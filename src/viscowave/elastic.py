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
:class:`Propagator` and :func:`linear_propagate` take and return
``(3, n, n, n/2 + 1)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import OutOfDomainError, ShapeMismatchError
from .grid import CutoffSpec, Grid3
from .kernels import DampingParams, kernel_hat

__all__ = [
    "LameParams",
    "Propagator",
    "linear_propagate",
    "default_cutoffs",
    "split_longitudinal",
]


@dataclass(frozen=True)
class LameParams:
    """Material constants ``(lambda, mu, nu)`` with the usual positivity.

    Non-finite values, ``mu`` or ``lambda + 2 mu`` not positive and ``nu`` not
    positive raise OutOfDomainError.
    """

    lam: float
    mu: float
    nu: float

    def __post_init__(self) -> None:
        if not np.all(np.isfinite((self.lam, self.mu, self.nu))):
            raise OutOfDomainError(
                f"Lame parameters must be finite, got {(self.lam, self.mu, self.nu)}"
            )
        if not self.mu > 0:
            raise OutOfDomainError(f"mu must be positive, got {self.mu}")
        if not self.lam + 2.0 * self.mu > 0:
            raise OutOfDomainError(f"lambda + 2*mu must be positive, got {self.lam + 2 * self.mu}")
        if not self.nu > 0:
            raise OutOfDomainError(f"nu must be positive, got {self.nu}")

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


def _check_state(grid: Grid3, *states) -> None:
    """Raise ShapeMismatchError unless every array has the state shape ``(3, n, n, n/2 + 1)``."""
    shape = (3, *grid.half_shape)
    for data in states:
        if np.shape(data) != shape:
            raise ShapeMismatchError(f"data has shape {np.shape(data)}, expected {shape}")


def _inverse_xi2(grid: Grid3) -> np.ndarray:
    """``1 / |xi|^2`` on the half lattice from the grid's table, 0 where ``xi = 0``."""
    with np.errstate(divide="ignore"):
        return np.where(grid.xi2 > 0, 1.0 / grid.xi2, 0.0)


def split_longitudinal(grid: Grid3, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split half-lattice data into (P data, (I-P) data); the zero mode goes transverse.

    ``data`` has shape ``(3, n, n, n/2 + 1)``, or ShapeMismatchError is
    raised.  The returned arrays have its shape and sum to it.  The projector
    is :class:`Propagator`'s: built from Nyquist-safe wave-vector components
    so that real fields stay real, with unpaired Nyquist content (such as the
    z component on the ``k_z = n/2`` plane) transverse.
    """
    _check_state(grid, data)
    xi = grid.xi
    scale = sum(xi[a] * data[a] for a in range(3)) * _inverse_xi2(grid)
    par = np.stack([scale * xi[a] for a in range(3)])
    return par, data - par


class Propagator:
    """Exact mode propagator ``S(tau)`` on one grid, for any step ``tau >= 0``.

    ``S(tau)`` maps a state ``(u, v)`` to ``(K0 u + K1 v, K0' u + K1' v)``.
    States are half-lattice spectra of real fields, shape ``(3, n, n, n/2 + 1)``.
    Each matrix kernel is applied as ``K u = k_trans u + xi (d (xi . u))``
    with ``d = (k_long - k_trans) / |xi|^2``, 0 where the Nyquist-safe ``xi``
    is (see :func:`split_longitudinal`), from a ``(k_trans, d)`` table pair
    of shape ``(n, n, n/2 + 1)``.  Each table (``K0``/``K1``, time orders 0
    and 1) is built from the unique-radius table on first use, once per
    step, by :func:`~viscowave.kernels.kernel_hat`, which rejects a step that
    is negative or not finite (OutOfDomainError).
    """

    def __init__(self, grid: Grid3, lame: LameParams):
        self.grid = grid
        self.lame = lame
        self._tables: dict = {}
        self._inv_r2 = _inverse_xi2(grid)

    def kernel(self, tau: float, which: str, order: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(k_trans, d)`` tables of ``which``'s ``order``-th time derivative at ``tau``."""
        key = (float(tau), which, order)
        hit = self._tables.get(key)
        if hit is None:
            vals, inv = self.grid.unique_radii()
            k_long, k_trans = (
                kernel_hat(key[0], vals, params, which, order)[inv]
                for params in (self.lame.long_params, self.lame.trans_params)
            )
            hit = self._tables[key] = (k_trans, (k_long - k_trans) * self._inv_r2)
        return hit

    def apply(self, terms, velocity: bool = True):
        """``sum w K(tau) x`` over ``(w, tau, which, x)`` terms, and its time derivative.

        ``which`` is ``"K0"`` or ``"K1"``, and each ``x`` a state-shaped array
        (else ShapeMismatchError).  ``S(tau) (u, v)`` is the two terms
        ``(1, tau, "K0", u)`` and ``(1, tau, "K1", v)``; a Duhamel term
        ``w S(tau) (0, g)`` is ``(w, tau, "K1", g)``.  The ``xi`` part is added
        once per time order for all terms.  Returns the displacement
        ``sum w K x`` and the velocity ``sum w K' x``, None unless asked for,
        as fresh arrays.  ``terms`` holds at least one term; OutOfDomainError
        otherwise.

        The first term writes the outputs and the later ones add into them
        through call-local scratch, in the order ``out += (w a) x``,
        ``s += (w d) (xi . x)``, then ``out += xi s``; a weight of 1 is not
        multiplied in.
        """
        orders = (0, 1) if velocity else (0,)
        shape, half = (3, *self.grid.half_shape), self.grid.half_shape
        xi = self.grid.xi
        outs = [np.empty(shape, dtype=np.complex128) for _ in orders]
        sums = [np.empty(half, dtype=np.complex128) for _ in orders]
        dot, tmp = np.empty(half, dtype=np.complex128), np.empty(half, dtype=np.complex128)
        prod = np.empty(shape, dtype=np.complex128)
        wa, wd = np.empty(half), np.empty(half)
        first = True
        for w, tau, which, x in terms:
            _check_state(self.grid, x)
            np.multiply(xi[0], x[0], out=dot)
            for c in (1, 2):
                dot += np.multiply(xi[c], x[c], out=tmp)
            for out, s, order in zip(outs, sums, orders):
                a, d = self.kernel(tau, which, order)
                if w != 1.0:
                    a, d = np.multiply(w, a, out=wa), np.multiply(w, d, out=wd)
                if first:
                    np.multiply(a, x, out=out)
                    np.multiply(d, dot, out=s)
                else:
                    out += np.multiply(a, x, out=prod)
                    s += np.multiply(d, dot, out=tmp)
            first = False
        if first:
            raise OutOfDomainError("apply needs at least one term")
        for out, s in zip(outs, sums):
            for c in range(3):
                out[c] += np.multiply(xi[c], s, out=tmp)
        return outs[0], (outs[1] if velocity else None)

    def propagate(self, tau: float, u, v, velocity: bool = True):
        """``S(tau)`` on the state ``(u, v)``; the velocity is None unless asked for."""
        return self.apply(((1.0, tau, "K0", u), (1.0, tau, "K1", v)), velocity)


def linear_propagate(
    grid: Grid3, f0_hat: np.ndarray, f1_hat: np.ndarray, t: float, lame: LameParams
) -> tuple[np.ndarray, np.ndarray]:
    """Homogeneous evolution ``(u, v)`` at time ``t`` of half-lattice data ``(f0h, f1h)``.

    Data that are not finite, and a ``t`` that is negative or not finite,
    raise OutOfDomainError.
    """
    if not (np.isfinite(f0_hat).all() and np.isfinite(f1_hat).all()):
        raise OutOfDomainError("data must be finite")
    return Propagator(grid, lame).propagate(t, f0_hat, f1_hat)

