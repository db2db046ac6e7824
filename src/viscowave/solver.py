"""Quasi-linear time marching and global fixed-point iteration.

The nonlinearity is the quadratic gradient contraction

    F_k(u) = sum_ij (d_i u_j)(d_i d_j u_k),

evaluated pseudospectrally in divergence form (Canuto, Hussaini, Quarteroni
& Zang, Spectral Methods, 2006): with ``M_jk = sum_i (d_i u_j)(d_i u_k)``,

    F_k(u) = sum_j d_j M_jk - sum_i (d_i div u)(d_i u_k).

That takes 21 field transforms per forcing (12 inverse, 9 forward) where the
27 products above take 30, and the unitary scale is folded into the
derivative multipliers.  The product is dealiased with the same two-thirds
mask as before (Orszag 1971).  On band-limited input (``u_hat * mask``) the
two forms agree to rounding; on content above the two-thirds band they
alias differently.

Every spectral array here lives on the half lattice ``k_z = 0 .. n/2``
(``rfftn`` layout, :mod:`viscowave.grid`): states and forcing as
``(3, n, n, n/2 + 1)`` spectra of real fields, kernel tables and the dealias
mask as ``(n, n, n/2 + 1)`` arrays.  Like
:func:`~viscowave.elastic.linear_propagate`, the solvers take the data
``(f0, f1)`` as half-lattice spectra, and any other shape is a
ShapeMismatchError.  The forcing enters through ``rfftn``; the X1 norms
and the blow-up guard sum the half lattice with the mirror weights of
:func:`~viscowave.grid.half_density_norm`.

Both solvers solve the same node equations: the Duhamel formula
``U(t) = S(t) U_0 + int_0^t S(t - s) (0, g(s)) ds`` for the state
``U = (u, v)``, with forcing samples ``g_j`` at the half-step nodes
``t_m = m h`` (``h = dt / 2``) and the composite-Simpson rule in time.  The
exact mode propagator ``S`` (:class:`~viscowave.elastic.Propagator`, kernel
tables built once per step) is a semigroup, so the state at node m
follows from the one at the last even node (trapezoid at m = 1):

    U_m = S(2h) U_{m-2} + panel(m-2, m)           (m even, weights h/3, 4h/3, h/3),
    U_m = S(h) U_{m-1} + trailing(m-2, m-1, m)    (m odd, weights -h/12, 8h/12, 5h/12),

where each window term is ``w S(lag) (0, g_j)`` at lags 2h, h and 0.  Since
``K1(0) = 0``, the lag-0 term is ``(0, w g_m)``: the displacement ``u_m``
takes no forcing from its own node.  So the node equations are explicit.
:func:`_march` sums ``S U`` and the lag-2h and lag-h terms in one
``Propagator.apply`` call per node, samples ``g_m`` from the ``u_m`` it
returns, and only then completes ``v_m`` (an exponential multistep
scheme; Hochbruck & Ostermann, Acta Numerica 19, 2010).  Every node starts
from an even one, so ``v_m`` is built at even nodes only.  It streams over
the nodes with a two-sample window and costs O(M) for M nodes.

`evolve_stream` runs one march, sampling ``F`` of the displacement it has
just built; there is no predictor or corrector.  It yields each full step
as the march reaches it and keeps none, so a consumer holds only what it
reads; `evolve` collects its states into a `Trajectory`.  `picard_iterate`
runs one march per sweep, sampling ``F`` of the previous iterate, so it
keeps the displacement at every node but the velocity only at the full
steps it returns.  Its fixed point solves the same node equations as
`evolve`, and the two agree up to the sweeps' convergence error and
rounding.  Both the sweep increments and the comparison
(`x1_norm_and_distance`) are sups over the full steps of the time-weighted
X1 integrand.  Where there is no forcing (Picard's homogeneous iterate 0,
and `evolve_stream` with ``nonlinear=False``), the march is the bare
``S(h)`` / ``S(2h)`` recursion, with no Duhamel terms.

Picard stores only the dealias band of each state.  The forcing is masked
to the band, so outside it every sample is an exact zero, and ``S`` and
the window terms act mode by mode: there each Duhamel term adds an exact
zero to the bare recursion.  So outside the band every Picard iterate, and
`evolve_stream`'s nonlinear march, is the homogeneous march bit for bit,
and the band (28% of the half lattice at n = 32) is all that tells one
iterate from another.  A sweep rebuilds the previous iterate's full state
at node m from its own ``u_m``, which already holds the homogeneous modes,
with the stored band scattered in; the increments and distances scatter
the band's difference into a zero state, which is what the full
difference is outside the band.  Every value is the one the full states
give, bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .elastic import LameParams, Propagator, _check_state
from .exceptions import DivergenceError, NoContractionError, OutOfDomainError, ShapeMismatchError
from .grid import (
    Grid3,
    _forward_scale,
    _irfftn,
    _rfftn,
    dealias_mask,
    half_density_norm,
    half_seminorm,
)

# Not called here; kept bound because perfbench's layer tracer self-test expects them here.
from .elastic import linear_propagate  # noqa: F401
from .grid import transform  # noqa: F401
from .kernels import kernel_hat  # noqa: F401

__all__ = [
    "SolverConfig",
    "Trajectory",
    "evolve",
    "evolve_stream",
    "picard_iterate",
    "x1_norm_and_distance",
    "x1_data_seminorm",
]


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    picard_tol: float = 1e-9
    picard_max_iter: int = 25

    def __post_init__(self) -> None:
        if not 0 < self.dt < math.inf:
            raise OutOfDomainError(f"dt must be finite and positive, got {self.dt}")
        if not 0 < self.t_end < math.inf:
            raise OutOfDomainError(f"t_end must be finite and positive, got {self.t_end}")
        steps = self.t_end / self.dt
        if not abs(steps - round(steps)) <= 1e-9 * steps:
            raise OutOfDomainError(
                f"t_end = {self.t_end:g} is not a whole number of steps dt = {self.dt:g}"
            )
        if not 0 < self.picard_tol < math.inf:
            raise OutOfDomainError(f"picard_tol must be finite and positive, got {self.picard_tol}")
        if not self.picard_max_iter >= 1:
            raise OutOfDomainError("picard_max_iter must be at least 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class Trajectory:
    """Solution snapshots: the displacement ``u[k]`` and velocity ``v[k]`` at ``times[k]``.

    A snapshot holds the modes ``band`` of a half-lattice spectrum: flat
    indices into one component's half lattice, packed as a ``(3, len(band))``
    array by :func:`_pack`.  `evolve` keeps every mode, in order.
    `picard_iterate` keeps the dealias band, outside which each of its
    states is the homogeneous march of its data (module docstring).
    """

    grid: Grid3
    times: np.ndarray
    u: list[np.ndarray]
    v: list[np.ndarray]
    band: np.ndarray


# ---------------------------------------------------------------------------
# nonlinearity


def _nonlinearity_hat(grid: Grid3, u_hat: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Dealiased half-lattice forcing ``F_k = sum_ij (d_i u_j)(d_i d_j u_k)`` of ``u_hat``.

    Computed in the divergence form of the module docstring, with ``C_k =
    sum_i (d_i div u)(d_i u_k)``, in 21 field transforms: 12 ``irfftn``
    calls, one per field (``d_i u_j`` and ``d_i div u``), and 7 ``rfftn``
    calls (one per field of the symmetric ``M``, one for the three fields of
    ``C``).  The unitary scale rides on the derivative multipliers, small
    broadcast arrays, so no field is scaled on its own.  For each ``i`` the
    four fields ``d_i u`` and ``d_i div u`` are accumulated into ``M`` and
    ``C`` and dropped before the next ``i``, so about 15 real ``n^3`` fields
    are held at most.  The two-thirds dealias mask is applied to the sum.
    """
    scale = _forward_scale(grid)
    xi = grid.xi
    pairs = [(j, k) for j in range(3) for k in range(j, 3)]
    div_hat = sum(1j * xi[j] * u_hat[j] for j in range(3))
    c = np.empty((3, *grid.shape))
    for i in range(3):
        # d_i u with the inverse transform's 1 / scale, and -scale d_i div u:
        # its 1 / scale cancels against the forward transform's -scale on C.
        d_i = (1j / scale) * xi[i]
        du = [_irfftn(grid, d_i * u_hat[j]) for j in range(3)]
        grad_div = _irfftn(grid, (-1j * xi[i]) * div_hat)
        if i == 0:
            m = [du[j] * du[k] for j, k in pairs]
            for k in range(3):
                np.multiply(du[k], grad_div, out=c[k])
        else:
            tmp = np.empty(grid.shape)
            for acc, (j, k) in zip(m, pairs):
                acc += np.multiply(du[j], du[k], out=tmp)
            for k in range(3):
                c[k] += np.multiply(du[k], grad_div, out=tmp)
            del tmp
        del du, grad_div  # free this i's fields before the next transforms

    f_hat = _rfftn(c)  # the spectrum of -scale C
    del c
    d = [(1j * scale) * x for x in xi]  # d_j with the forward transform's scale
    for (j, k), m_jk in zip(pairs, m):
        m_hat = _rfftn(m_jk)
        if j != k:
            f_hat[j] += d[k] * m_hat
        m_hat *= d[j]
        f_hat[k] += m_hat
    f_hat *= mask
    return f_hat


# ---------------------------------------------------------------------------
# shared helpers


def _pack(a: np.ndarray, band: np.ndarray) -> np.ndarray:
    """The modes ``band`` of each component of the half-lattice spectrum ``a``, as a new array."""
    return a.reshape(3, -1)[:, band]


def _node_march(grid: Grid3, lame: LameParams, dt: float):
    """The half step ``h``, propagator and forcing of a march with step ``dt``.

    ``prop`` serves the steps ``h = dt / 2`` and ``2h``; ``forcing(u_hat)`` is
    the dealiased forcing of a half-lattice displacement spectrum.
    """
    h = 0.5 * dt
    prop = Propagator(grid, lame)
    mask = dealias_mask(grid)
    return h, prop, lambda u_hat: _nonlinearity_hat(grid, u_hat, mask)


# ---------------------------------------------------------------------------
# time marching


def _march(prop: Propagator, h: float, m_count: int, u0, v0, sample=None):
    """Yield the state ``(m, u, v)`` at nodes m = 1, ..., ``m_count`` (module docstring).

    ``(u0, v0)`` is the state at node 0; neither it nor a yielded array is
    written to.  The velocity is built at the even nodes only, which are all
    that a later node and every caller read; at odd nodes ``v`` is None.
    ``sample(m, u)`` returns the forcing at node m given the displacement
    ``u`` just built there; it is called once per node, in order, from m = 0.
    ``sample=None`` means the forcing is zero at every node: the march is then
    the homogeneous recursion, with no Duhamel window (adding its exact zeros
    would change nothing).
    """
    trapezoid = (h / 2.0, h / 2.0)
    panel = (h / 3.0, 4.0 * h / 3.0, h / 3.0)
    trailing = (-h / 12.0, 8.0 * h / 12.0, 5.0 * h / 12.0)
    window = [] if sample is None else [sample(0, u0)]  # forcing at the last two nodes
    even = (u0, v0)  # state at the last even node
    for m in range(1, m_count + 1):
        if m == 1:
            weights, lags = trapezoid, (h,)
        else:
            weights, lags = (trailing if m % 2 else panel), (2.0 * h, h)
        tau = h if m % 2 else 2.0 * h
        state = [(1.0, tau, "K0", even[0]), (1.0, tau, "K1", even[1])]
        terms = state + [(w, lag, "K1", g) for w, lag, g in zip(weights, lags, window)]
        u, v = prop.apply(terms, velocity=m % 2 == 0)
        if sample is not None:
            g = sample(m, u)
            if v is not None:
                v += weights[-1] * g
            window = window[-1:] + [g]
        if v is not None:
            even = (u, v)
        yield m, u, v


def evolve_stream(
    grid: Grid3,
    f0_hat: np.ndarray,
    f1_hat: np.ndarray,
    lame: LameParams,
    config: SolverConfig,
    *,
    nonlinear: bool = True,
) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """March the quasi-linear system on ``[0, t_end]`` with step ``dt``, yielding each full step.

    Yields ``(t, u, v)`` (half-lattice spectra) at t = 0, the data arrays
    themselves, and after each step of one :func:`_march` over the half-step
    nodes, with forcing sampled from the displacement just built at each
    node, or none with ``nonlinear=False``.  A yielded state is the march's
    own, so holding it costs nothing more, and it must not be written to.
    The data's shapes are checked at the call; the march runs as the stream
    is read.  Raises DivergenceError if the state norm at a full step
    exceeds 1e6 times its initial value or is not finite.
    """
    _check_state(grid, f0_hat, f1_hat)
    h, prop, forcing = _node_march(grid, lame, config.dt)

    def state_norm(u, v):
        return math.hypot(half_seminorm(grid, u, 0), half_seminorm(grid, v, 0))

    sample = (lambda m, u: forcing(u)) if nonlinear else None
    nodes = _march(prop, h, 2 * config.n_steps, f0_hat, f1_hat, sample)
    guard = 1e6 * max(state_norm(f0_hat, f1_hat), 1e-300)

    def states(u0, v0):
        yield 0.0, u0, v0
        del u0, v0  # hold the data no longer than the march does
        for m, u, v in nodes:
            if m % 2 == 0:
                t = m * h
                norm = state_norm(u, v)
                if not norm <= guard:
                    message = f"state norm {norm:g} is not finite or exceeded the blow-up guard"
                    raise DivergenceError(f"{message} at t={t:g}")
                yield t, u, v
            del u, v  # hold no node while the march builds the next one

    return states(f0_hat, f1_hat)


def evolve(
    grid: Grid3,
    f0_hat: np.ndarray,
    f1_hat: np.ndarray,
    lame: LameParams,
    config: SolverConfig,
    *,
    nonlinear: bool = True,
) -> Trajectory:
    """Every state of :func:`evolve_stream`, collected into a Trajectory."""
    times, us, vs = zip(*evolve_stream(grid, f0_hat, f1_hat, lame, config, nonlinear=nonlinear))
    # Every mode in order: the packed snapshot is a view of its state.
    u, v = ([a.reshape(3, -1) for a in states] for states in (us, vs))
    return Trajectory(grid, np.asarray(times), u, v, np.arange(f0_hat[0].size))


# ---------------------------------------------------------------------------
# weighted solution norm


def _x1_integrand(grid: Grid3, t: float, u_hat: np.ndarray, v_hat: np.ndarray) -> float:
    """The X1 integrand at time t: four :func:`~viscowave.grid.half_seminorm` values in one pass.

    ``|u|^2``, ``|v|^2`` and ``|xi|^6`` are formed once each, by the same
    elementwise operations as ``half_seminorm``'s, and ``|xi|^2`` is the
    grid's table.
    """
    r2 = grid.xi2
    r6 = r2 * r2 * r2
    au, av = np.abs(u_hat) ** 2, np.abs(v_hat) ** 2
    w = 1.0 + t
    return (
        w**1.75 * half_density_norm(grid, au * r6)
        + w**0.75 * (half_density_norm(grid, au * r2) + half_density_norm(grid, av))
        + w**1.25 * half_density_norm(grid, av * r2)
    )


def _x1_band_distance(grid: Grid3, t: float, band: np.ndarray, u, v, u_packed, v_packed) -> float:
    """The X1 integrand at t of ``(u, v)`` minus the state packed as ``(u_packed, v_packed)``.

    The packed state holds the modes ``band``.  Off the band the two states
    are taken to agree, so the difference there is zero, as the full one is
    wherever both are the homogeneous march.
    """
    diffs = []
    for a, packed in ((u, u_packed), (v, v_packed)):
        d = np.zeros_like(a)
        d.reshape(3, -1)[:, band] = _pack(a, band) - packed
        diffs.append(d)
    return _x1_integrand(grid, t, *diffs)


def x1_norm_and_distance(states: Iterable, ref: Trajectory) -> tuple[float, float]:
    """X1 norm of a stream of ``(t, u, v)`` states, and its X1 distance from ``ref``, in one pass.

    Both are sups over the stream's times of the X1 integrand, of the state
    and of the state minus ``ref``'s; the stream must have ``ref``'s times.
    Off ``ref.band`` the stream must equal ``ref``'s states, as every march
    of ``ref``'s data does off the dealias band (module docstring), so the
    difference is formed on the band.  Holds one streamed state at a time.
    A NaN at any time makes the norm's sup NaN, and the distance's if it
    lies in the band.
    """
    norms, dists = [], []
    for (t, u, v), t_ref, u_ref, v_ref in zip(states, ref.times, ref.u, ref.v, strict=True):
        if abs(t - t_ref) > 1e-12:
            raise ShapeMismatchError(f"state at t={t:g} meets the reference at t={t_ref:g}")
        norms.append(_x1_integrand(ref.grid, t, u, v))
        dists.append(_x1_band_distance(ref.grid, t, ref.band, u, v, u_ref, v_ref))
    return float(np.max(norms)), float(np.max(dists))


def x1_data_seminorm(grid: Grid3, f0_hat: np.ndarray, f1_hat: np.ndarray) -> float:
    """Value of the X1 integrand at t = 0 for half-lattice data ``(f0h, f1h)``; used for scaling."""
    return _x1_integrand(grid, 0.0, f0_hat, f1_hat)


# ---------------------------------------------------------------------------
# global fixed-point iteration


def picard_iterate(
    grid: Grid3,
    f0_hat: np.ndarray,
    f1_hat: np.ndarray,
    lame: LameParams,
    config: SolverConfig,
) -> tuple[Trajectory, list[dict]]:
    """Successive substitution ``u <- u_lin + forcing integral of u`` on [0, t_end].

    The iterate lives on the half-step nodes ``m * dt / 2`` of :func:`evolve`.
    Iterate 0 is the homogeneous solution; each sweep recomputes every node by
    one :func:`_march` with forcing sampled from the previous iterate, so the
    fixed point solves :func:`evolve`'s node equations.  The forcing reads the
    displacement at every node; the velocity is kept at the full steps only,
    the ones returned.  Only the dealias band of each state is kept: outside
    it every iterate is the homogeneous march bit for bit (module
    docstring), so the sweep rebuilds the previous iterate at node m from
    its own ``u_m`` and the stored band, and the returned trajectory is
    band-packed.  Convergence is measured by the increment, the X1
    distance between successive iterates on the full steps; the returned
    history holds one dict per sweep with the increment, the contraction
    ratio against the previous increment, and whether the increment fell
    below ``picard_tol``.  Raises DivergenceError on a non-finite increment
    and NoContractionError after three consecutive ratios >= 1.
    """
    _check_state(grid, f0_hat, f1_hat)
    h, prop, forcing = _node_march(grid, lame, config.dt)
    m_count = 2 * config.n_steps
    taus = h * np.arange(m_count + 1)
    band = np.flatnonzero(dealias_mask(grid))

    states_u = [_pack(f0_hat, band)]  # every node
    states_v = [_pack(f1_hat, band)]  # the even nodes: states_v[k] is node 2k

    # Iterate 0: the homogeneous solution, the march without forcing.
    for m, u, v in _march(prop, h, m_count, f0_hat, f1_hat):
        states_u.append(_pack(u, band))
        if m % 2 == 0:
            states_v.append(_pack(v, band))
    del u, v

    def sample(m, u):
        # The previous iterate, read before the sweep overwrites it: this
        # sweep's u_m off the band, where every iterate is the same.
        previous = u.copy()
        previous.reshape(3, -1)[:, band] = states_u[m]
        return forcing(previous)

    history: list[dict] = []
    bad_streak = 0
    for it in range(1, config.picard_max_iter + 1):
        distance = 0.0
        for m, u, v in _march(prop, h, m_count, f0_hat, f1_hat, sample):
            if m % 2 == 0:
                t = float(taus[m])
                inc = _x1_band_distance(grid, t, band, u, v, states_u[m], states_v[m // 2])
                if not np.isfinite(inc):
                    raise DivergenceError(f"Picard sweep {it} increment is not finite at t={t:g}")
                distance = max(distance, inc)
                states_v[m // 2] = _pack(v, band)
            states_u[m] = _pack(u, band)
            del u, v

        ratio = distance / history[-1]["distance"] if history else None
        converged = distance < config.picard_tol
        history.append(
            {"iteration": it, "distance": distance, "ratio": ratio, "converged": converged}
        )
        if ratio is not None and ratio >= 1.0:
            bad_streak += 1
            if bad_streak >= 3:
                raise NoContractionError(
                    f"increment grew for 3 consecutive sweeps (last ratio {ratio:.3g})"
                )
        else:
            bad_streak = 0
        if converged:
            break

    return Trajectory(grid, taus[::2], states_u[::2], states_v, band), history
