"""Periodic 3-D grid, FFT layer, cutoffs, and norms.

Conventions fixed here and relied on everywhere else:

* lattice: n points per axis on ``[0, L)``, wave vectors ``xi = (2 pi / L) k``
  with integer ``k in {-n/2, ..., n/2 - 1}`` per axis (fftfreq order);
* transform normalization: ``fhat = (2 pi)^{-3/2} h^3 FFT[f]`` with
  ``h = L/n``, so the discrete coefficients approximate the continuum
  transform and discrete Plancherel holds exactly:
  ``sum |f|^2 h^3 = sum |fhat|^2 (2 pi / L)^3``;
* vector fields are stored as arrays of shape ``(3, n, n, n)`` with axis
  order (component, x, y, z);
* the spectrum of a real field is stored on the half lattice ``k_z = 0 .. n/2``
  (``rfftn`` layout): shape ``(n, n, n/2 + 1)`` for a scalar and
  ``(3, n, n, n/2 + 1)`` for a vector field.  The ``k_z`` planes strictly
  between 0 and n/2 stand for themselves and their conjugate mirror images,
  so sums over them count twice (:func:`half_density_norm`).  Every spectral
  array the library computes or takes is in this layout; the library's
  physical data are plain real arrays.  The full-lattice layer,
  :class:`VectorField`, :func:`transform` and :func:`sobolev_seminorm`, has
  no library caller; it remains as a test reference and as a lookup target
  of perfbench's layer tracer;
* one wave-vector table: ``Grid3.xi``, the half-lattice ``xi`` components
  with the unpaired Nyquist entry ``k = -n/2`` zeroed, and ``Grid3.xi2``,
  their ``|xi|^2``.  Every seminorm, derivative, Riesz factor and projector
  reads it (integer powers by multiplication), so real fields stay real and
  a seminorm is the physical norm of its derivative fields.  The kernel
  tables key on the exact lattice ``|k|^2`` instead (``unique_radii``).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .exceptions import (
    InvalidExponentError,
    InvalidGridError,
    OutOfDomainError,
    ShapeMismatchError,
    UnsupportedOrderError,
)

# Not called here; kept bound because perfbench's layer tracer self-test expects it here.
from .kernels import kernel_hat  # noqa: F401

__all__ = [
    "Grid3",
    "VectorField",
    "CutoffSpec",
    "make_grid",
    "transform",
    "forward_scalar",
    "inverse_scalar",
    "inverse_slabs",
    "lp_norm",
    "sobolev_seminorm",
    "half_density_norm",
    "half_seminorm",
    "dealias_mask",
]

# scipy.fft is imported where a transform is made, as kernels.mode_oracle
# imports scipy.linalg, so the suites that make none never load scipy; after
# the first import each call's import is one sys.modules lookup.
#
# scipy.fft workers: the CPUs this process may run on.  workers=-1 would count
# os.cpu_count(), which ignores CPU affinity before Python 3.13.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


@dataclass(frozen=True)
class Grid3:
    """Periodic cubic lattice and its frequency lattice.

    ``xi1`` is the 1-D frequency array in FFT order.  ``xi`` and ``xi2`` are
    the wave-vector table of the module docstring, built at construction:
    ``xi[a]`` broadcasts like :meth:`xi_component_safe` on the half lattice,
    and ``xi2`` has the half-lattice shape ``(n, n, n/2 + 1)``.
    """

    n: int
    box_length: float
    spacing: float = field(init=False, compare=False)
    xi1: np.ndarray = field(init=False, repr=False, compare=False)
    xi: tuple = field(init=False, repr=False, compare=False)
    xi2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.check(self.n, self.box_length)
        spacing = self.box_length / self.n
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "xi1", 2.0 * np.pi * np.fft.fftfreq(self.n, d=spacing))
        xi = tuple(self.half_lattice(self.xi_component_safe(a)) for a in range(3))
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "xi2", xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2])

    @staticmethod
    def check(n: int, box_length: float) -> None:
        """Raise InvalidGridError unless ``n`` is even and >= 8 and ``0 < box_length < inf``."""
        if n < 8 or n % 2 != 0:
            raise InvalidGridError(f"n must be even and >= 8, got {n}")
        if not 0 < box_length < math.inf:
            raise InvalidGridError(f"box_length must be finite and positive, got {box_length}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def half_shape(self) -> tuple[int, int, int]:
        """Shape of a real scalar's half-lattice spectrum."""
        return (self.n, self.n, self.n // 2 + 1)

    def xi_component_safe(self, axis: int) -> np.ndarray:
        """Wave-vector component with the unpaired Nyquist entry zeroed.

        Broadcastable as an (n,1,1)/(1,n,1)/(1,1,n) array.  Odd symbols
        (derivatives, Riesz factors, projector contractions) must annihilate
        the self-conjugate ``k = -n/2`` plane or they break the lattice
        Hermitian symmetry of real fields.
        """
        shape = [1, 1, 1]
        shape[axis] = self.n
        safe = self.xi1.copy()
        safe[self.n // 2] = 0.0
        return safe.reshape(shape)

    def half_lattice(self, a: np.ndarray) -> np.ndarray:
        """The ``k_z = 0 .. n/2`` planes of a full-lattice array (a view)."""
        return a[..., : self.n // 2 + 1]

    def x_component(self, axis: int) -> np.ndarray:
        """Physical coordinate along one axis, broadcastable like xi_component_safe."""
        shape = [1, 1, 1]
        shape[axis] = self.n
        return (self.spacing * np.arange(self.n)).reshape(shape)

    def unique_radii(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted unique |xi| values, inverse index array on the half lattice).

        Lets radial kernels be evaluated on a few thousand scalars instead of
        one per lattice point; ``vals[inv]`` has shape ``(n, n, n/2 + 1)``.
        Radii are keyed exactly, on the integer ``|k|^2`` of each lattice
        point, and ``vals = (2 pi / L) sqrt(|k|^2)``.  Every radius of the
        full lattice has a mirror image on the half lattice, so ``vals`` is
        the full lattice's set.  Cached after the first call.
        """
        cached = self.__dict__.get("_unique_radii")
        if cached is None:
            k2 = ((np.arange(self.n) + self.n // 2) % self.n - self.n // 2) ** 2
            m = k2[:, None, None] + k2[None, :, None] + k2[None, None, : self.n // 2 + 1]
            keys, inv = np.unique(m, return_inverse=True)
            vals = 2.0 * np.pi / self.box_length * np.sqrt(keys)
            cached = (vals, inv.reshape(m.shape).astype(np.int32))
            object.__setattr__(self, "_unique_radii", cached)
        return cached


def make_grid(n: int, box_length: float) -> Grid3:
    """Validated grid constructor."""
    return Grid3(n=int(n), box_length=float(box_length))


@dataclass(frozen=True, eq=False)
class VectorField:
    """Three-component field over a grid, in physical or spectral space.

    Physical data is real float64, spectral data complex128 with Hermitian
    symmetry.  Treated as immutable; operations return new fields.
    """

    grid: Grid3
    data: np.ndarray
    space: str  # "physical" | "spectral"

    def __post_init__(self) -> None:
        if self.space not in ("physical", "spectral"):
            raise ValueError(f"space must be 'physical' or 'spectral', got {self.space!r}")
        if self.data.shape != (3, *self.grid.shape):
            raise ShapeMismatchError(
                f"field shape {self.data.shape} does not match grid {self.grid.shape}"
            )


def _forward_scale(grid: Grid3) -> float:
    return grid.spacing**3 * (2.0 * np.pi) ** (-1.5)


def transform(fld: VectorField) -> VectorField:
    """Toggle between physical and spectral space (unitary up to round-off)."""
    from scipy import fft as sfft

    scale = _forward_scale(fld.grid)
    if fld.space == "physical":
        data = sfft.fftn(fld.data, axes=(1, 2, 3), workers=_WORKERS) * scale
        return VectorField(fld.grid, data, "spectral")
    data = sfft.ifftn(fld.data, axes=(1, 2, 3), workers=_WORKERS) / scale
    return VectorField(fld.grid, np.ascontiguousarray(data.real), "physical")


_SPACE_AXES = (-3, -2, -1)


def _rfftn(f: np.ndarray) -> np.ndarray:
    """Unscaled ``rfftn`` over the last three axes."""
    from scipy import fft as sfft

    return sfft.rfftn(f, axes=_SPACE_AXES, workers=_WORKERS)


def _irfftn(grid: Grid3, fh: np.ndarray) -> np.ndarray:
    """Unscaled ``irfftn`` of a half-lattice spectrum over the last three axes."""
    from scipy import fft as sfft

    return sfft.irfftn(fh, s=grid.shape, axes=_SPACE_AXES, workers=_WORKERS)


def forward_scalar(grid: Grid3, f: np.ndarray) -> np.ndarray:
    """Half-lattice spectrum of real data, scaled like ``transform``.

    Transforms the last three axes, so one call takes a scalar ``(n, n, n)``
    or a vector field's ``(3, n, n, n)`` data.
    """
    return _rfftn(f) * _forward_scale(grid)


def inverse_scalar(grid: Grid3, fh: np.ndarray) -> np.ndarray:
    """Physical values of a half-lattice spectrum: the inverse of ``forward_scalar``.

    Transforms the last three axes, like ``forward_scalar``.
    """
    # One expression, so numpy divides the irfftn temporary in place.
    return _irfftn(grid, fh) / _forward_scale(grid)


# Points per slab of inverse_slabs: a slab's output and its transform
# workspace take 0.5 and 1 MB, so even at 64^3 a field is four slabs.
_SLAB_POINTS = 1 << 16


def inverse_slabs(grid: Grid3, fh: np.ndarray):
    """``inverse_scalar`` of a scalar half-lattice spectrum, yielded one x-slab at a time.

    The slabs hold about 2^16 points each and concatenate along the first
    axis to ``inverse_scalar(grid, fh)``, bit for bit: the x pass runs on the
    whole spectrum first, written into ``fh`` itself (which is overwritten),
    and then each slab takes the (y, z) passes and the same two scalings,
    ``irfftn``'s 1/n^3 and the division by the forward scale.  So no
    full-size physical array is made.  Each slab is a fresh array.
    """
    if fh.shape != grid.half_shape:
        raise ShapeMismatchError(
            f"spectrum shape {fh.shape} is not the half lattice {grid.half_shape}"
        )
    from scipy import fft as sfft

    n = grid.n
    x = sfft.ifft(fh, axis=0, norm="forward", overwrite_x=True, workers=_WORKERS)
    # irfftn's 1/n^3 as it applies it, in its last pass; for every even n up
    # to 2048 this double is its long-double-rounded factor.
    fct, scale = 1.0 / n**3, _forward_scale(grid)
    rows = max(1, _SLAB_POINTS // (n * n))
    for start in range(0, n, rows):
        slab = sfft.irfftn(
            x[start : start + rows], s=(n, n), axes=(1, 2), norm="forward", workers=_WORKERS
        )
        slab *= fct
        slab /= scale
        yield slab


# ---------------------------------------------------------------------------
# cutoffs


def _smoothstep(s: np.ndarray) -> np.ndarray:
    """C^inf step: 1 for s <= 0, 0 for s >= 1, exp(-1/s)-based in between."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    out[s <= 0.0] = 1.0
    out[s >= 1.0] = 0.0
    mid = (s > 0.0) & (s < 1.0)
    if np.any(mid):
        sm = s[mid]
        g = np.exp(-1.0 / sm)
        gc = np.exp(-1.0 / (1.0 - sm))
        out[mid] = gc / (g + gc)
    return out


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth low/mid/high frequency partition of unity.

    ``chi_l = 1`` for ``r <= c0/2`` and 0 for ``r >= c0``; ``chi_h = 0`` for
    ``r <= c1`` and 1 for ``r >= 2 c1``; ``chi_m`` is the remainder.  Needs
    ``0 < c0 < c1 < inf`` so the low and high supports cannot overlap;
    OutOfDomainError otherwise.
    """

    c0: float
    c1: float

    def __post_init__(self) -> None:
        if not 0.0 < self.c0 < self.c1 < math.inf:
            raise OutOfDomainError(f"need 0 < c0 < c1 < inf, got c0={self.c0}, c1={self.c1}")

    def chi_l(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return _smoothstep((r - 0.5 * self.c0) / (0.5 * self.c0))

    def chi_h(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return _smoothstep((2.0 * self.c1 - r) / self.c1)

    def chi_m(self, r) -> np.ndarray:
        return 1.0 - self.chi_l(r) - self.chi_h(r)

    def chi(self, part: str, r) -> np.ndarray:
        return {"L": self.chi_l, "M": self.chi_m, "H": self.chi_h}[part](r)


def dealias_mask(grid: Grid3) -> np.ndarray:
    """Boolean retain-mask on the half lattice for quadratic products (two-thirds rule)."""
    kmax = grid.n // 3
    k1 = np.rint(grid.xi1 / (2.0 * np.pi / grid.box_length)).astype(int)
    keep1 = np.abs(k1) <= kmax
    return keep1[:, None, None] & keep1[None, :, None] & grid.half_lattice(keep1)[None, None, :]


# ---------------------------------------------------------------------------
# norms


def lp_norm(grid: Grid3, f, p: float) -> float:
    """Riemann-sum L^p norm of real physical data, summed over all of it.

    ``f`` is one array (a scalar, or a vector field's ``data``) or an iterable
    of arrays, read one at a time, whose sums add: the component-sum
    convention, matching the max over all entries at p = inf.
    """
    if not p >= 1:  # written so that NaN also fails
        raise InvalidExponentError(f"p must satisfy 1 <= p <= inf, got {p}")

    def power(a: np.ndarray) -> np.ndarray:
        """``a**p`` for ``a = |f|``; p = 2, 4 and 6 square in place, with no C ``pow``."""
        if p in (2, 4, 6):
            a *= a
            if p > 2:
                a *= a if p == 4 else a * a
            return a
        return a if p == 1 else a**p

    parts = []  # the max, or the sum of a**p, of each array
    for a in (f,) if isinstance(f, np.ndarray) else f:
        if np.iscomplexobj(a):
            raise OutOfDomainError("lp_norm expects real physical data, got a complex array")
        a = np.abs(a)
        parts.append(float(np.max(a)) if math.isinf(p) else float(np.sum(power(a))))
        del a  # a streamed array and its magnitudes go before the next one is made
    if math.isinf(p):
        return max(parts)
    return float((sum(parts) * grid.spacing**3) ** (1.0 / p))


def sobolev_seminorm(fld: VectorField, order: int) -> float:
    """Homogeneous seminorm ``|| |xi|^order fhat ||`` by Plancherel, Nyquist-safe ``xi``."""
    if fld.space != "spectral":
        raise ValueError("sobolev_seminorm expects a spectral field")
    dxi3 = (2.0 * np.pi / fld.grid.box_length) ** 3
    xi = [fld.grid.xi_component_safe(a) for a in range(3)]
    w = reduce(np.multiply, [xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2]] * order, 1.0)
    return float(np.sqrt(np.sum(w * np.abs(fld.data) ** 2) * dxi3))


def half_density_norm(grid: Grid3, a: np.ndarray) -> float:
    """``sqrt(sum a (2 pi / L)^3)`` over the full lattice, for a density ``a`` on the half lattice.

    The ``k_z`` planes 1 .. n/2 - 1 count twice, for their mirror images;
    the planes ``k_z = 0`` and ``k_z = n/2`` are their own mirrors and count
    once.  ``a`` is a weighted squared magnitude such as ``|xi|^2 |fh|^2``.
    """
    dxi3 = (2.0 * np.pi / grid.box_length) ** 3
    total = 2.0 * np.sum(a[..., 1:-1]) + np.sum(a[..., 0]) + np.sum(a[..., -1])
    return float(np.sqrt(total * dxi3))


def half_seminorm(grid: Grid3, fh: np.ndarray, order: int) -> float:
    """``sobolev_seminorm`` of a real scalar or vector field from its half-lattice spectrum.

    The mirror planes count as in :func:`half_density_norm`.  The components
    of a vector field add, as in ``sobolev_seminorm``.  ``order`` must be a
    non-negative integer; UnsupportedOrderError otherwise.
    """
    if not (isinstance(order, numbers.Integral) and order >= 0):
        raise UnsupportedOrderError(f"order must be a non-negative integer, got {order!r}")
    a = np.abs(fh) ** 2
    if order:
        a *= reduce(np.multiply, [grid.xi2] * order)  # |xi|^(2 order), no C pow
    return half_density_norm(grid, a)
