"""Quasi-linear time marching and global fixed-point iteration.

The nonlinearity is the quadratic gradient contraction

    F_k(u) = sum c[k,i,j,m] (d_i u_j)(d_i d_j u_m),

evaluated pseudospectrally with a two-thirds dealias mask.  `evolve` marches
with the exact mode propagator plus a per-step Simpson forcing integral
(linear predictor, one corrector pass).  `picard_iterate` runs the global
successive-substitution scheme on the same half-step quadrature grid, so its
fixed point coincides with the marched solution up to the corrector's
midpoint sampling error; the two are compared through the time-weighted
solution norm computed by `x1_norm`.

Both solvers run on a :class:`~viscowave.elastic.Propagator`, whose kernel
tables are built once per fixed step; states and forcing samples are carried
as split (longitudinal, transverse) pairs, so each forcing sample is split
once.  A Picard sweep is O(M) in its M half-step nodes: the propagator is a
semigroup, so the composite-Simpson Duhamel sum ``D_m`` at node m follows
from the one at the last even node (step h, trapezoid at m = 1),

    D_m = S(2h) D_{m-2} + panel(m-2, m)           (m even, weights h/3, 4h/3, h/3),
    D_m = S(h) D_{m-1} + trailing(m-2, m-1, m)    (m odd, weights -h/12, 8h/12, 5h/12),

streamed over the nodes with a three-sample window of split forcing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elastic import ElasticState, LameParams, Propagator
from .exceptions import DivergenceError, NoContractionError
from .grid import Grid3, VectorField, dealias_mask, sobolev_seminorm, transform

# Not called here; kept bound because perfbench's layer tracer self-test expects them here.
from .elastic import linear_propagate  # noqa: F401
from .kernels import kernel_hat  # noqa: F401

__all__ = [
    "ContractionTensor",
    "SolverConfig",
    "Trajectory",
    "nonlinearity",
    "evolve",
    "picard_iterate",
    "x1_norm",
    "x1_distance",
    "x1_data_seminorm",
]


@dataclass(frozen=True)
class ContractionTensor:
    """Sparse weights ``c[k,i,j,m]`` of the quadratic gradient contraction."""

    entries: tuple[tuple[int, int, int, int, float], ...]

    @staticmethod
    def default() -> "ContractionTensor":
        """Full component coupling: ``F_k = sum_ij (d_i u_j)(d_i d_j u_k)``."""
        return ContractionTensor(
            tuple((k, i, j, k, 1.0) for k in range(3) for i in range(3) for j in range(3))
        )

    @staticmethod
    def zero() -> "ContractionTensor":
        return ContractionTensor(())

    @staticmethod
    def diagonal() -> "ContractionTensor":
        """Alternative contraction without cross-component products."""
        return ContractionTensor(
            tuple((k, i, k, k, 1.0) for k in range(3) for i in range(3))
        )


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    dealias_rule: str = "2/3"
    picard_tol: float = 1e-9
    picard_max_iter: int = 25

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        steps = self.t_end / self.dt
        if not abs(steps - round(steps)) <= 1e-9 * steps:
            raise ValueError(
                f"t_end = {self.t_end:g} is not a whole number of steps dt = {self.dt:g}"
            )
        if not self.picard_tol > 0:
            raise ValueError("picard_tol must be positive")
        if not self.picard_max_iter >= 1:
            raise ValueError("picard_max_iter must be at least 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class Trajectory:
    """Time-stamped solution snapshots plus cached spectral forcing."""

    times: np.ndarray
    states: list[ElasticState]
    nonlinearity_cache: list[VectorField | None] = field(default_factory=list)

    @property
    def grid(self) -> Grid3:
        return self.states[0].grid


# ---------------------------------------------------------------------------
# nonlinearity


def _nonlinearity_hat(
    grid: Grid3, u_hat: np.ndarray, tensor: ContractionTensor, mask: np.ndarray | None
) -> np.ndarray:
    """Dealiased spectral forcing from spectral displacement data."""
    from scipy import fft as sfft

    out = np.zeros((3, *grid.shape), dtype=np.complex128)
    if not tensor.entries:
        return out

    scale = grid.spacing**3 * (2.0 * np.pi) ** (-1.5)
    xi = [grid.xi_component_safe(a) for a in range(3)]

    first_pairs = sorted({(i, j) for (_, i, j, _, _) in tensor.entries})
    second_triples = sorted({(min(i, j), max(i, j), m) for (_, i, j, m, _) in tensor.entries})

    d1 = {}
    for i, j in first_pairs:
        d1[(i, j)] = sfft.ifftn(1j * xi[i] * u_hat[j], workers=-1).real / scale
    d2 = {}
    for i, j, m in second_triples:
        d2[(i, j, m)] = sfft.ifftn(-(xi[i] * xi[j]) * u_hat[m], workers=-1).real / scale

    f_phys = np.zeros((3, *grid.shape))
    for k, i, j, m, w in tensor.entries:
        f_phys[k] += w * d1[(i, j)] * d2[(min(i, j), max(i, j), m)]

    f_hat = sfft.fftn(f_phys, axes=(1, 2, 3), workers=-1) * scale
    if mask is not None:
        f_hat *= mask
    return f_hat


def nonlinearity(
    u: VectorField, tensor: ContractionTensor, dealias_rule: str = "2/3"
) -> VectorField:
    """Physical-space forcing ``F(u)`` with the dealias mask applied spectrally."""
    if u.space != "physical":
        raise ValueError("nonlinearity expects a physical-space field")
    grid = u.grid
    mask = None if dealias_rule in ("none", None) else dealias_mask(grid, dealias_rule)
    u_hat = transform(u)
    f_hat = _nonlinearity_hat(grid, u_hat.data, tensor, mask)
    return transform(VectorField(grid, f_hat, "spectral"))


# ---------------------------------------------------------------------------
# shared helpers


def _state(grid: Grid3, u: np.ndarray, v: np.ndarray, t: float) -> ElasticState:
    return ElasticState(
        VectorField(grid, u, "spectral"), VectorField(grid, v, "spectral"), t
    )


def _as_spectral(fld: VectorField) -> VectorField:
    return fld if fld.space == "spectral" else transform(fld)


def _simpson(delta: float, g_start, g_mid, g_end) -> list:
    """Duhamel terms of the three-node Simpson rule over one step of length ``delta``."""
    w = delta / 6.0
    return [(w, delta, g_start), (4.0 * w, 0.5 * delta, g_mid), (w, 0.0, g_end)]


def _add(acc, inc) -> None:
    """Add the arrays of ``inc`` to those of ``acc`` in place."""
    for a, x in zip(acc, inc):
        a += x


# ---------------------------------------------------------------------------
# time marching


def evolve(
    f0: VectorField,
    f1: VectorField,
    lame: LameParams,
    tensor: ContractionTensor,
    config: SolverConfig,
) -> Trajectory:
    """March the quasi-linear system on ``[0, t_end]`` with step ``dt``.

    Each step propagates exactly with the mode kernels and adds the Simpson
    forcing integral with samples at the step ends and midpoint; midpoint and
    endpoint forcing values come from a linear predictor followed by one
    corrector pass.  Aborts with DivergenceError if the state norm exceeds
    1e6 times its initial value or is not finite.
    """
    f0h, f1h = _as_spectral(f0), _as_spectral(f1)
    grid = f0h.grid
    mask = None if config.dealias_rule in ("none", None) else dealias_mask(grid, config.dealias_rule)
    dt = config.dt
    half = 0.5 * dt
    prop = Propagator(grid, lame, (0.5 * half, half, dt))
    dxi3 = (2.0 * np.pi / grid.box_length) ** 3

    def state_norm(u, v):
        return float(np.sqrt((np.sum(np.abs(u) ** 2) + np.sum(np.abs(v) ** 2)) * dxi3))

    def nl(u_arr):
        return _nonlinearity_hat(grid, u_arr, tensor, mask)

    u_arr = f0h.data.astype(np.complex128, copy=True)
    v_arr = f1h.data.astype(np.complex128, copy=True)
    guard = 1e6 * max(state_norm(u_arr, v_arr), 1e-300)
    u, v = prop.split(u_arr), prop.split(v_arr)

    times = [0.0]
    states = [_state(grid, u_arr, v_arr, 0.0)]
    f_now = nl(u_arr)
    cache = [VectorField(grid, f_now, "spectral")]
    g_now = prop.split(f_now)

    linear_only = not tensor.entries
    for k in range(config.n_steps):
        t_next = k * dt + dt
        if linear_only:
            u, v = prop.propagate(dt, u, v)
        else:
            u_half, _ = prop.propagate(half, u, v, velocity=False)
            u, v = prop.propagate(dt, u, v)
            g_mid = prop.split(nl(prop.join(u_half)))
            g_end = prop.split(nl(prop.join(u)))
            # Corrector: rebuild the sample displacements with the forcing integral included.
            g_quarter = [(3.0 * a + 6.0 * b - c) / 8.0 for a, b, c in zip(g_now, g_mid, g_end)]
            du_h, _ = prop.duhamel(_simpson(half, g_now, g_quarter, g_mid), velocity=False)
            du_f, _ = prop.duhamel(_simpson(dt, g_now, g_mid, g_end), velocity=False)
            _add(u_half, du_h)
            _add(du_f, u)
            del g_quarter, g_mid, g_end, du_h
            g_mid = prop.split(nl(prop.join(u_half)))
            f_now = nl(prop.join(du_f))
            g_end = prop.split(f_now)
            del u_half, du_f
            du_f, dv_f = prop.duhamel(_simpson(dt, g_now, g_mid, g_end))
            _add(u, du_f)
            _add(v, dv_f)
            g_now = g_end
        u_arr, v_arr = prop.join(u), prop.join(v)
        norm = state_norm(u_arr, v_arr)
        if not norm <= guard:
            raise DivergenceError(
                f"state norm {norm:g} is not finite or exceeded the blow-up guard at t={t_next:g}",
                t_next,
            )
        times.append(t_next)
        states.append(_state(grid, u_arr, v_arr, t_next))
        cache.append(VectorField(grid, f_now, "spectral"))

    return Trajectory(times=np.asarray(times), states=states, nonlinearity_cache=cache)


# ---------------------------------------------------------------------------
# weighted solution norm


def _x1_integrand(t: float, u_hat: VectorField, v_hat: VectorField) -> float:
    w = 1.0 + t
    return (
        w**1.75 * sobolev_seminorm(u_hat, 3)
        + w**0.75 * (sobolev_seminorm(u_hat, 1) + sobolev_seminorm(v_hat, 0))
        + w**1.25 * sobolev_seminorm(v_hat, 1)
    )


def x1_norm(traj: Trajectory) -> float:
    """Sup over stored times of the time-weighted derivative norms."""
    return max(
        _x1_integrand(float(t), st.displacement_hat, st.velocity_hat)
        for t, st in zip(traj.times, traj.states)
    )


def x1_distance(a: Trajectory, b: Trajectory) -> float:
    """X1 norm of the difference of two trajectories on their common times."""
    if len(a.times) != len(b.times) or np.max(np.abs(a.times - b.times)) > 1e-12:
        raise ValueError("trajectories must share the same time grid")
    best = 0.0
    for t, sa, sb in zip(a.times, a.states, b.states):
        du = VectorField(sa.grid, sa.displacement_hat.data - sb.displacement_hat.data, "spectral")
        dv = VectorField(sa.grid, sa.velocity_hat.data - sb.velocity_hat.data, "spectral")
        best = max(best, _x1_integrand(float(t), du, dv))
    return best


def x1_data_seminorm(f0: VectorField, f1: VectorField) -> float:
    """Value of the X1 integrand at t = 0 for data ``(f0, f1)``; used for scaling."""
    f0h, f1h = _as_spectral(f0), _as_spectral(f1)
    return _x1_integrand(0.0, f0h, f1h)


# ---------------------------------------------------------------------------
# global fixed-point iteration


def _duhamel_stream(prop: Propagator, h: float, samples):
    """Yield ``D_m = (du, dv)`` at nodes m = 1, 2, ... of step ``h`` (module docstring).

    ``samples`` yields split forcing at nodes 0, 1, ... and is read no further
    than node m before ``D_m`` is yielded.
    """
    trapezoid = (h / 2.0, h / 2.0)
    panel = (h / 3.0, 4.0 * h / 3.0, h / 3.0)
    trailing = (-h / 12.0, 8.0 * h / 12.0, 5.0 * h / 12.0)
    window: list = []
    even = None  # split (du, dv) at the last even node; None stands for D_0 = 0
    for m, g in enumerate(samples):
        window = window[-2:] + [g]
        if m == 0:
            continue
        if m == 1:
            du, dv = prop.duhamel(zip(trapezoid, (h, 0.0), window))
        else:
            weights, lag = (panel, 2.0 * h) if m % 2 == 0 else (trailing, h)
            du, dv = prop.duhamel(zip(weights, (2.0 * h, h, 0.0), window))
            if even is not None:
                pu, pv = prop.propagate(lag, *even)
                _add(du, pu)
                _add(dv, pv)
                del pu, pv
        if m % 2 == 0:
            even = (du, dv)
        yield prop.join(du), prop.join(dv)
        del du, dv


def picard_iterate(
    f0: VectorField,
    f1: VectorField,
    lame: LameParams,
    tensor: ContractionTensor,
    config: SolverConfig,
) -> tuple[Trajectory, list[dict]]:
    """Successive substitution ``u <- u_lin + forcing integral of u`` on [0, t_end].

    The iterate lives on the half-step grid ``m * dt / 2`` so the global
    quadrature coincides with the per-step Simpson rule of :func:`evolve`.
    Each sweep streams over the nodes and adds to each the Duhamel integral
    of the change in forcing since the previous sweep.  Convergence is
    measured in the X1 norm of these increments; the returned history holds
    one dict per sweep with the increment size, the contraction ratio against
    the previous increment, and whether the increment fell below
    ``picard_tol``.  Raises DivergenceError on a non-finite increment and
    NoContractionError after three consecutive ratios >= 1.
    """
    f0h, f1h = _as_spectral(f0), _as_spectral(f1)
    grid = f0h.grid
    mask = None if config.dealias_rule in ("none", None) else dealias_mask(grid, config.dealias_rule)
    h = 0.5 * config.dt
    prop = Propagator(grid, lame, (h, 2.0 * h))
    m_count = 2 * config.n_steps
    taus = h * np.arange(m_count + 1)

    # Iterate 0: the homogeneous solution, by the S(h) recursion.
    states_u = [f0h.data.astype(np.complex128, copy=True)]
    states_v = [f1h.data.astype(np.complex128, copy=True)]
    u, v = prop.split(states_u[0]), prop.split(states_v[0])
    for _ in range(m_count):
        u, v = prop.propagate(h, u, v)
        states_u.append(prop.join(u))
        states_v.append(prop.join(v))
    del u, v

    f_prev: list[np.ndarray | None] = [None] * (m_count + 1)

    def forcing_increments():
        # Read at node m before the sweep updates it; f_prev keeps the new
        # sample for the next sweep's difference.
        for m in range(m_count + 1):
            f_new = _nonlinearity_hat(grid, states_u[m], tensor, mask)
            df = f_new if f_prev[m] is None else f_new - f_prev[m]
            f_prev[m] = f_new
            yield prop.split(df)

    history: list[dict] = []
    bad_streak = 0
    for it in range(1, config.picard_max_iter + 1):
        distance = 0.0
        for m, (du, dv) in enumerate(_duhamel_stream(prop, h, forcing_increments()), start=1):
            states_u[m] += du
            states_v[m] += dv
            inc = _x1_integrand(
                float(taus[m]), VectorField(grid, du, "spectral"), VectorField(grid, dv, "spectral")
            )
            if not np.isfinite(inc):
                raise DivergenceError(
                    f"Picard sweep {it} increment is not finite at t={taus[m]:g}", float(taus[m])
                )
            distance = max(distance, inc)

        ratio = None if not history else (
            distance / history[-1]["distance"] if history[-1]["distance"] > 0 else 0.0
        )
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

    # Return the full-step subset, matching evolve's sampling.
    idx = range(0, m_count + 1, 2)
    states = [_state(grid, states_u[m], states_v[m], float(taus[m])) for m in idx]
    cache = [VectorField(grid, f_prev[m], "spectral") for m in idx]
    return Trajectory(times=taus[::2], states=states, nonlinearity_cache=cache), history
