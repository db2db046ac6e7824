"""Vector-valued propagator of the damped elastic system.

Each Fourier mode splits into a longitudinal part (projection ``P`` onto
``xi``) moving at speed ``sqrt(lambda + 2 mu)`` and a transverse part moving
at ``sqrt(mu)``, both damped by ``nu |xi|^2``.  The matrix kernels are

    K_j(t, xi) = k_j^{long}(t, |xi|) P + k_j^{trans}(t, |xi|) (I - P),

and the homogeneous solution is ``uh(t) = K_0 f0h + K_1 f1h`` with the
velocity tracked through the time-differentiated kernels so that restarting
is exact.  The zero mode evolves as ``f0h + t f1h``, the common ``r -> 0``
limit of both branches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InsufficientSamplesError, ShapeMismatchError
from .grid import CutoffSpec, Grid3, VectorField
from .kernels import DampingParams, kernel_hat

__all__ = [
    "LameParams",
    "ElasticState",
    "projection",
    "matrix_kernel",
    "Propagator",
    "linear_propagate",
    "duhamel_increment",
    "duhamel_increment_pair",
    "diagonalize_check",
    "default_cutoffs",
    "split_longitudinal",
    "energy",
]


@dataclass(frozen=True)
class LameParams:
    """Material constants ``(lambda, mu, nu)`` with the usual positivity."""

    lam: float
    mu: float
    nu: float

    def __post_init__(self) -> None:
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.lam + 2.0 * self.mu > 0:
            raise ValueError(f"lambda + 2*mu must be positive, got {self.lam + 2 * self.mu}")
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")

    @property
    def beta_long(self) -> float:
        return float(np.sqrt(self.lam + 2.0 * self.mu))

    @property
    def beta_trans(self) -> float:
        return float(np.sqrt(self.mu))

    @property
    def long_params(self) -> DampingParams:
        return DampingParams(self.beta_long, self.nu)

    @property
    def trans_params(self) -> DampingParams:
        return DampingParams(self.beta_trans, self.nu)


def default_cutoffs(lame: LameParams) -> CutoffSpec:
    """Frequency cutoffs tied to the root thresholds of both wave families.

    The low support ends at half the smaller oscillatory threshold, so the
    trigonometric forms hold on all of it; the high onset sits past twice
    the larger threshold, safely inside the overdamped region.
    """
    bmin = min(lame.beta_long, lame.beta_trans)
    bmax = max(lame.beta_long, lame.beta_trans)
    return CutoffSpec(c0=bmin / lame.nu, c1=4.0 * bmax / lame.nu)


@dataclass(frozen=True, eq=False)
class ElasticState:
    """Spectral displacement/velocity pair at one time."""

    displacement_hat: VectorField
    velocity_hat: VectorField
    time: float

    def __post_init__(self) -> None:
        if self.displacement_hat.grid != self.velocity_hat.grid:
            raise ShapeMismatchError("displacement and velocity live on different grids")
        if self.displacement_hat.space != "spectral" or self.velocity_hat.space != "spectral":
            raise ValueError("ElasticState stores spectral fields")

    @property
    def grid(self) -> Grid3:
        return self.displacement_hat.grid


def projection(xi) -> np.ndarray:
    """Rank-one projector ``(xi/|xi|) (x) (xi/|xi|)``; zero matrix at ``xi = 0``."""
    xi = np.asarray(xi, dtype=float)
    n2 = float(xi @ xi)
    if n2 == 0.0:
        return np.zeros((3, 3))
    return np.outer(xi, xi) / n2


def matrix_kernel(
    t: float, xi, lame: LameParams, which: str = "K0", dt_order: int = 0
) -> np.ndarray:
    """3x3 mode kernel at one wave vector (see module docstring)."""
    xi = np.asarray(xi, dtype=float)
    r = float(np.linalg.norm(xi))
    kl = kernel_hat(t, r, lame.long_params, which, dt_order)
    kt = kernel_hat(t, r, lame.trans_params, which, dt_order)
    if r == 0.0:
        # Both branches coincide in the r -> 0 limit.
        return kt * np.eye(3)
    p = projection(xi)
    return kl * p + kt * (np.eye(3) - p)


def split_longitudinal(fld: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """Split spectral data into (P data, (I-P) data); the zero mode goes transverse.

    Returned arrays have the field's shape and sum to the input data.  The
    projector is built from Nyquist-safe wave-vector components so that real
    fields stay real; unpaired Nyquist content counts as transverse.
    """
    grid = fld.grid
    data = fld.data
    xi = [grid.xi_component_safe(a) for a in range(3)]
    dot = sum(xi[a] * data[a] for a in range(3))
    r2 = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(r2 > 0, dot / np.where(r2 > 0, r2, 1.0), 0.0)
    par = np.stack([scale * xi[a] for a in range(3)])
    return par, data - par


class Propagator:
    """Exact mode propagator ``S(tau)`` on one grid, for a fixed set of steps.

    ``S(tau)`` maps a state ``(u, v)`` to ``(K0 u + K1 v, K0' u + K1' v)``.
    Data are carried as split ``(P data, (I-P) data)`` pairs (see
    :func:`split_longitudinal`), on which every matrix kernel is a per-element
    multiply by its (long, trans) table.  Each table (``K0``/``K1``, time
    orders 0 and 1) is built from the unique-radius table on first use, once
    per step; steps not declared at construction are rejected.
    """

    def __init__(self, grid: Grid3, lame: LameParams, steps):
        self.grid = grid
        self.lame = lame
        self.steps = frozenset(float(s) for s in steps)
        self._tables: dict = {}

    def split(self, data: np.ndarray) -> list[np.ndarray]:
        """Split spectral data into a mutable ``[par, perp]`` pair."""
        return list(split_longitudinal(VectorField(self.grid, data, "spectral")))

    @staticmethod
    def join(pair) -> np.ndarray:
        return pair[0] + pair[1]

    def kernel(self, tau: float, which: str, order: int) -> tuple[np.ndarray, np.ndarray]:
        """(long, trans) tables of ``d^order/dt^order`` of ``which`` at ``tau``."""
        key = (float(tau), which, order)
        hit = self._tables.get(key)
        if hit is None:
            if key[0] not in self.steps:
                raise ValueError(f"step {tau!r} is not one of this propagator's steps")
            vals, inv = self.grid.unique_radii()
            hit = tuple(
                kernel_hat(key[0], vals, params, which, order)[inv]
                for params in (self.lame.long_params, self.lame.trans_params)
            )
            self._tables[key] = hit
        return hit

    def propagate(self, tau: float, u, v, velocity: bool = True):
        """``S(tau)`` on the split state ``(u, v)``; the velocity is None unless asked for."""

        def combine(order):
            k0, k1 = self.kernel(tau, "K0", order), self.kernel(tau, "K1", order)
            return [a * x + b * y for a, b, x, y in zip(k0, k1, u, v)]

        return combine(0), (combine(1) if velocity else None)

    def duhamel(self, terms, velocity: bool = True):
        """Weighted sum of ``w S(tau) (0, g)`` over ``(w, tau, g)`` terms, as split pairs.

        ``S(tau) (0, g) = (K1(tau) g, K1'(tau) g)``, which is ``(0, g)`` at
        ``tau = 0``.  Returns ``(du, dv)``; ``dv`` is None unless asked for.
        """
        shape = (3, *self.grid.shape)
        du = [np.zeros(shape, dtype=np.complex128) for _ in range(2)]
        dv = [np.zeros(shape, dtype=np.complex128) for _ in range(2)] if velocity else None
        for w, tau, g in terms:
            if tau == 0.0:
                if velocity:
                    for acc, x in zip(dv, g):
                        acc += w * x
                continue
            for acc, k, x in zip(du, self.kernel(tau, "K1", 0), g):
                acc += (w * k) * x
            if velocity:
                for acc, k, x in zip(dv, self.kernel(tau, "K1", 1), g):
                    acc += (w * k) * x
        return du, dv


def linear_propagate(
    f0_hat: VectorField, f1_hat: VectorField, t: float, lame: LameParams
) -> ElasticState:
    """Homogeneous evolution of spectral data ``(f0h, f1h)`` to time ``t``."""
    if f0_hat.grid != f1_hat.grid:
        raise ShapeMismatchError("initial data live on different grids")
    grid = f0_hat.grid
    prop = Propagator(grid, lame, (t,))
    u, v = prop.propagate(t, prop.split(f0_hat.data), prop.split(f1_hat.data))
    return ElasticState(
        displacement_hat=VectorField(grid, prop.join(u), "spectral"),
        velocity_hat=VectorField(grid, prop.join(v), "spectral"),
        time=t,
    )


def propagate_state(state: ElasticState, dt: float, lame: LameParams) -> ElasticState:
    """Advance a state by ``dt`` homogeneously (restart-exact)."""
    out = linear_propagate(state.displacement_hat, state.velocity_hat, dt, lame)
    return ElasticState(out.displacement_hat, out.velocity_hat, state.time + dt)


def _simpson_coeffs(n_samples: int) -> np.ndarray:
    if n_samples < 3 or n_samples % 2 == 0:
        raise InsufficientSamplesError(
            f"Duhamel quadrature needs an odd sample count >= 3, got {n_samples}"
        )
    w = np.ones(n_samples)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def duhamel_increment_pair(
    samples, delta: float, lame: LameParams
) -> tuple[np.ndarray, np.ndarray]:
    """Simpson approximation of the forcing integral over one step.

    ``samples`` are spectral forcing fields at uniformly spaced times
    ``t, t + delta/2, ..., t + delta`` (odd count).  Returns the raw
    (displacement, velocity) increment arrays

        int_0^delta K1(delta - s) Fh(t + s) ds,
        int_0^delta dK1(delta - s) Fh(t + s) ds.
    """
    n = len(samples)
    w = _simpson_coeffs(n) * (delta / (n - 1))
    grid = samples[0].grid
    if any(fs.grid != grid for fs in samples):
        raise ShapeMismatchError("forcing samples live on different grids")
    lags = [delta - delta * i / (n - 1) for i in range(n)]
    prop = Propagator(grid, lame, lags)
    du, dv = prop.duhamel(
        (w[i], lags[i], prop.split(fs.data)) for i, fs in enumerate(samples)
    )
    return prop.join(du), prop.join(dv)


def duhamel_increment(samples, delta: float, lame: LameParams) -> VectorField:
    """Displacement part of :func:`duhamel_increment_pair`."""
    du, _ = duhamel_increment_pair(samples, delta, lame)
    return VectorField(samples[0].grid, du, "spectral")


def diagonalize_check(
    t: float,
    xi,
    lame: LameParams,
    which: str = "K1",
    dt_order: int = 0,
    completion: str = "min-dot",
) -> float:
    """Max-abs difference between the kernel and its explicit diagonalization.

    Builds an orthogonal matrix whose first column is ``xi/|xi|`` (completed
    by Gram-Schmidt from the two standard basis vectors least aligned with
    it, or from a fixed alternative pair when ``completion="alt"``), forms
    ``Q diag(k_long, k_trans, k_trans) Q^T``, and compares with
    :func:`matrix_kernel`.
    """
    xi = np.asarray(xi, dtype=float)
    r = float(np.linalg.norm(xi))
    if r == 0.0:
        raise ValueError("diagonalize_check requires xi != 0")
    q1 = xi / r
    order = np.argsort(np.abs(q1)) if completion == "min-dot" else np.argsort(-np.abs(q1))
    cols = [q1]
    for idx in order:
        if len(cols) == 3:
            break
        v = np.zeros(3)
        v[idx] = 1.0
        for c in cols:
            v = v - (v @ c) * c
        norm = np.linalg.norm(v)
        if norm < 1e-8:  # candidate nearly parallel to the span; try the next one
            continue
        cols.append(v / norm)
    q = np.column_stack(cols)
    kl = kernel_hat(t, r, lame.long_params, which, dt_order)
    kt = kernel_hat(t, r, lame.trans_params, which, dt_order)
    rebuilt = q @ np.diag([kl, kt, kt]) @ q.T
    return float(np.max(np.abs(rebuilt - matrix_kernel(t, xi, lame, which, dt_order))))


def energy(state: ElasticState, lame: LameParams) -> float:
    """Dissipated energy functional ``||v||^2 + mu || |xi| u ||^2 + (lam+mu) ||xi.u||^2``."""
    grid = state.grid
    dxi3 = (2.0 * np.pi / grid.box_length) ** 3
    u = state.displacement_hat.data
    v = state.velocity_hat.data
    xi = [grid.xi_component_safe(a) for a in range(3)]
    div = sum(xi[a] * u[a] for a in range(3))
    ekin = np.sum(np.abs(v) ** 2)
    egrad = np.sum(grid.radius**2 * np.abs(u) ** 2)
    ediv = np.sum(np.abs(div) ** 2)
    return float((ekin + lame.mu * egrad + (lame.lam + lame.mu) * ediv) * dxi3)
