"""Vector-valued propagator of the damped elastic system.

Each Fourier mode splits into a longitudinal part (projection ``P`` onto
``xi``) moving at speed ``sqrt(lambda + 2 mu)`` and a transverse part moving
at ``sqrt(mu)``, both damped by ``nu |xi|^2``.  The matrix kernels are

    K_j(t, xi) = k_j^{long}(t, |xi|) P + k_j^{trans}(t, |xi|) (I - P),

and the homogeneous solution is ``uh(t) = K_0 f0h + K_1 f1h`` with the
velocity tracked through the time-differentiated kernels so that restarting
is exact.  The zero mode evolves as ``f0h + t f1h``, the common ``r -> 0``
limit of both branches.

Every spectral array here is a real field's spectrum on the half lattice
``k_z = 0 .. n/2`` (see :mod:`viscowave.grid`): the split, the
:class:`Propagator`, :func:`linear_propagate` and :func:`energy` take and
return ``(3, n, n, n/2 + 1)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeMismatchError
from .grid import CutoffSpec, Grid3, half_seminorm
from .kernels import DampingParams, kernel_hat

__all__ = [
    "LameParams",
    "Propagator",
    "linear_propagate",
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
        if not np.all(np.isfinite((self.lam, self.mu, self.nu))):
            raise ValueError(f"Lame parameters must be finite, got {(self.lam, self.mu, self.nu)}")
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


def split_longitudinal(grid: Grid3, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split half-lattice data into (P data, (I-P) data); the zero mode goes transverse.

    ``data`` has shape ``(3, n, n, n/2 + 1)``, or ShapeMismatchError is
    raised; every propagator input passes through here, so this one check
    covers :func:`linear_propagate` and both solvers.  The returned arrays
    have its shape and sum to it.  The projector is built from Nyquist-safe
    wave-vector components so that real fields stay real; unpaired Nyquist
    content (such as the z component on the ``k_z = n/2`` plane) counts as
    transverse.
    """
    shape = (3, *grid.half_shape)
    if np.shape(data) != shape:
        raise ShapeMismatchError(f"data has shape {np.shape(data)}, expected {shape}")
    xi = [grid.xi_half(a) for a in range(3)]
    dot = sum(xi[a] * data[a] for a in range(3))
    r2 = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(r2 > 0, dot / np.where(r2 > 0, r2, 1.0), 0.0)
    par = np.stack([scale * xi[a] for a in range(3)])
    return par, data - par


class Propagator:
    """Exact mode propagator ``S(tau)`` on one grid, for a fixed set of steps.

    ``S(tau)`` maps a state ``(u, v)`` to ``(K0 u + K1 v, K0' u + K1' v)``.
    States are half-lattice spectra of real fields, shape ``(3, n, n, n/2 + 1)``,
    carried as split ``(P data, (I-P) data)`` pairs (see
    :func:`split_longitudinal`), on which every matrix kernel is a per-element
    multiply by its (long, trans) table of shape ``(n, n, n/2 + 1)``.  Each
    table (``K0``/``K1``, time orders 0 and 1) is built from the unique-radius
    table on first use, once per step; steps not declared at construction
    are rejected.
    """

    def __init__(self, grid: Grid3, lame: LameParams, steps):
        self.grid = grid
        self.lame = lame
        self.steps = frozenset(float(s) for s in steps)
        self._tables: dict = {}

    def split(self, data: np.ndarray) -> list[np.ndarray]:
        """Split half-lattice data into a mutable ``[par, perp]`` pair."""
        return list(split_longitudinal(self.grid, data))

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

    def duhamel(self, terms):
        """Weighted sum of ``w S(tau) (0, g)`` over ``(w, tau, g)`` terms, as split pairs.

        ``S(tau) (0, g) = (K1(tau) g, K1'(tau) g)``.  Returns ``(du, dv)``.
        """
        shape = (3, *self.grid.half_shape)
        du = [np.zeros(shape, dtype=np.complex128) for _ in range(2)]
        dv = [np.zeros(shape, dtype=np.complex128) for _ in range(2)]
        for w, tau, g in terms:
            for acc, k, x in zip(du, self.kernel(tau, "K1", 0), g):
                acc += (w * k) * x
            for acc, k, x in zip(dv, self.kernel(tau, "K1", 1), g):
                acc += (w * k) * x
        return du, dv


def linear_propagate(
    grid: Grid3, f0_hat: np.ndarray, f1_hat: np.ndarray, t: float, lame: LameParams
) -> tuple[np.ndarray, np.ndarray]:
    """Homogeneous evolution ``(u, v)`` at time ``t`` of half-lattice data ``(f0h, f1h)``."""
    prop = Propagator(grid, lame, (t,))
    u, v = prop.propagate(t, prop.split(f0_hat), prop.split(f1_hat))
    return prop.join(u), prop.join(v)


def energy(grid: Grid3, u: np.ndarray, v: np.ndarray, lame: LameParams) -> float:
    """Dissipated energy ``||v||^2 + mu || |xi| u ||^2 + (lam+mu) ||xi.u||^2`` of a state.

    ``u`` and ``v`` are half-lattice spectra; each norm is a mirror-weighted
    :func:`~viscowave.grid.half_seminorm`.
    """
    div = sum(grid.xi_half(a) * u[a] for a in range(3))
    return (
        half_seminorm(grid, v, 0) ** 2
        + lame.mu * half_seminorm(grid, u, 1) ** 2
        + (lame.lam + lame.mu) * half_seminorm(grid, div, 0) ** 2
    )
