"""Empirical verification of the inequality arsenal.

Three families of checks:

* interpolation/embedding inequalities evaluated as constant-free ratios,
  with dilation scans certifying scale invariance where it holds;
* exponential-decay fits of the mid/high-frequency kernel parts;
* pointwise bound scans of the low-frequency symbol derivatives against
  their claimed majorants.

The symbol derivatives are evaluated in closed form with every cancellation
performed analytically (differences of phases go through product formulas,
``phi - 1`` through its rationalized form), so the scanned ratios reflect
the mathematics rather than finite-difference noise; a central-difference
cross-check away from the singular corner guards the formulas themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .asymptotics import _l2_norm_from_mults, line_fit, slope_ci95
from .elastic import LameParams
from .exceptions import (
    DegenerateInputError,
    FitError,
    OutOfDomainError,
    ShapeMismatchError,
    UnsupportedSymbolError,
)
from .grid import (
    CutoffSpec,
    Grid3,
    forward_scalar,
    half_density_norm,
    half_seminorm,
    inverse_slabs,
    lp_norm,
)
from .kernels import DampingParams, kernel_hat
from .radial import (
    AngularFit,
    AngularTerm,
    angular_fit,
    axisym_evaluate,
    axisym_lp_norm,
    gauss_theta_rule,
    radial_grid,
)

# Not called here; kept bound because perfbench's layer tracer self-test expects it here.
from .grid import transform  # noqa: F401

__all__ = [
    "DecayFit",
    "inequality_check",
    "dilation_ratios",
    "decay_fit",
    "symbol_bound_scan",
    "heat_multiplier_l1",
    "SYMBOL_BOUNDS",
]


# ---------------------------------------------------------------------------
# interpolation inequalities


def _gradient(grid: Grid3, fh: np.ndarray):
    """The three first derivatives of the real scalar with half-lattice spectrum ``fh``.

    Yields each derivative in x-slabs (:func:`~viscowave.grid.inverse_slabs`);
    the three spectra ``i xi_a fh`` take turns in one buffer.
    """
    buf = np.empty_like(fh)
    for a in range(3):
        np.multiply(1j * grid.xi_half(a), fh, out=buf)
        yield from inverse_slabs(grid, buf)


def _riesz_symbol(grid: Grid3) -> np.ndarray:
    """``xi_1 / |xi|`` on the half lattice, with the Nyquist-safe ``xi`` and 0 at ``xi = 0``."""
    xi = [grid.xi_half(a) for a in range(3)]
    rs2 = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(rs2 > 0, xi[0] / np.sqrt(np.where(rs2 > 0, rs2, 1.0)), 0.0)


def _weighted_l2(grid: Grid3, f: np.ndarray) -> float:
    """``|| |x - c|^2 f ||_2`` about the box centre ``c``; the weight goes with its product."""
    x = [grid.x_component(a) - grid.box_length / 2.0 for a in range(3)]
    return lp_norm(grid, f * (x[0] ** 2 + x[1] ** 2 + x[2] ** 2), 2)


# The physical-space norms of f that each inequality reads, and whether it
# reads f's spectrum.
_PHYSICAL_NORMS = {
    "l1": lambda grid, f: lp_norm(grid, f, 1),
    "l2": lambda grid, f: lp_norm(grid, f, 2),
    "l6": lambda grid, f: lp_norm(grid, f, 6),
    "sup": lambda grid, f: lp_norm(grid, f, math.inf),
    "weighted_l2": _weighted_l2,
}
_READS = {
    "GN_L1": (("l1", "l2", "weighted_l2"), False),
    "GN_INF": (("l2", "sup"), True),
    "GRAD_2P": (("sup",), True),
    "SOB_6": (("l6",), True),
    "RIESZ": ((), True),
}


class _Norms:
    """The norms of one real scalar ``f`` on ``grid`` that the inequalities ``ineq_ids`` read.

    The physical-space norms are all taken at construction, before the
    spectrum is made, and no reference to ``f`` is kept, so the field can be
    freed while its spectrum is worked on.  A scan of several inequalities
    over one field transforms it once.  The Hessian norm is computed on
    first use.
    """

    def __init__(self, grid: Grid3, f: np.ndarray, ineq_ids):
        if f.shape != grid.shape:
            raise ShapeMismatchError(f"scalar shape {f.shape} does not match grid {grid.shape}")
        for ineq_id in ineq_ids:
            if ineq_id not in _READS:
                raise UnsupportedSymbolError(f"unknown inequality {ineq_id!r}")
        names = sorted({name for ineq_id in ineq_ids for name in _READS[ineq_id][0]})
        self.grid = grid
        self.physical = {name: _PHYSICAL_NORMS[name](grid, f) for name in names}
        spectral = any(_READS[ineq_id][1] for ineq_id in ineq_ids)
        self.fh = forward_scalar(grid, f) if spectral else None

    @cached_property
    def hessian_l2(self) -> float:
        """``||D^2 f||_2`` over all nine second derivatives, by Plancherel.

        ``sum_ab |xi_a xi_b|^2 = |xi|^4`` with the Nyquist-safe ``xi`` of
        :func:`_gradient`, so no second derivative is transformed.
        """
        xi2 = sum(self.grid.xi_half(a) ** 2 for a in range(3))
        a = np.abs(self.fh) ** 2
        a *= xi2 * xi2
        return half_density_norm(self.grid, a)


def _ratio(ineq_id: str, norms: _Norms) -> float:
    """Constant-free ratio (left side / right side) of one inequality on the field of ``norms``."""
    grid, phys, fh = norms.grid, norms.physical, norms.fh

    def guard(rhs: float) -> float:
        if rhs == 0.0:
            raise DegenerateInputError(f"{ineq_id}: right side vanishes")
        return rhs

    if ineq_id == "GN_L1":
        rhs = guard(phys["l2"] ** 0.25 * phys["weighted_l2"] ** 0.75)
        return phys["l1"] / rhs
    if ineq_id == "GN_INF":
        rhs = guard(phys["l2"] ** 0.25 * half_seminorm(grid, fh, 2) ** 0.75)
        return phys["sup"] / rhs
    if ineq_id == "GRAD_2P":
        rhs = guard(phys["sup"] ** 0.5 * norms.hessian_l2**0.5)
        return lp_norm(grid, _gradient(grid, fh), 4.0) / rhs
    if ineq_id == "SOB_6":
        rhs = guard(half_seminorm(grid, fh, 1))
        return phys["l6"] / rhs
    # RIESZ: R_1 = F^{-1} (-i xi_1 / |xi|) F maps real data to real data.
    rhs = guard(half_seminorm(grid, fh, 0))
    riesz = fh * _riesz_symbol(grid)
    riesz *= -1j
    return half_seminorm(grid, riesz, 0) / rhs


def inequality_check(ineq_id: str, grid: Grid3, f: np.ndarray) -> float:
    """Constant-free ratio (left side / right side) of one inequality.

    ``f`` holds the real scalar test function on ``grid``; only the norms the
    inequality reads are computed.  Gradient norms stream their fields one
    at a time.  Raises DegenerateInputError when the right side vanishes.
    """
    norms = _Norms(grid, f, (ineq_id,))
    del f  # a caller's temporary field goes before the spectral work
    return _ratio(ineq_id, norms)


def dilation_ratios(ineq_ids, generator, grid, lams=(0.5, 1.0, 2.0)) -> dict[str, list[float]]:
    """Ratios of each inequality across the dilation family ``g(lam x)``.

    ``generator(x, y, z)`` produces the scalar profile in centered
    coordinates; scale-invariant inequalities must return equal ratios.
    Each dilate is built and transformed once for all of ``ineq_ids``, and
    freed once its norms are taken.  Returns ``{ineq_id: [ratio per lam]}``.
    """
    ineq_ids = tuple(ineq_ids)
    xc = [grid.x_component(a) - grid.box_length / 2.0 for a in range(3)]

    def ratios_at(lam: float) -> list[float]:
        # The dilate lives only while _Norms takes its norms and its spectrum.
        dilate = np.broadcast_to(generator(lam * xc[0], lam * xc[1], lam * xc[2]), grid.shape)
        norms = _Norms(grid, dilate, ineq_ids)
        del dilate
        return [_ratio(ineq_id, norms) for ineq_id in ineq_ids]

    per_lam = [ratios_at(lam) for lam in lams]
    return {ineq_id: [r[i] for r in per_lam] for i, ineq_id in enumerate(ineq_ids)}


# ---------------------------------------------------------------------------
# mid/high-frequency exponential decay


@dataclass(frozen=True)
class DecayFit:
    c_fit: float
    prefactor: float
    residual: float  # max |log v - fit| / log-range
    times: np.ndarray
    values: np.ndarray
    rate_ci95: float  # 95% half-width on c_fit


def decay_fit(
    part: str,
    which: str,
    ghat,
    lame: LameParams,
    cutoff: CutoffSpec,
    window: tuple[float, float] = (0.1, 30.0),
) -> DecayFit:
    """Exponential fit of the banded kernel norm ``||K_{part}(t) g||_2`` at 25 times.

    ``ghat`` is the radial coefficient profile of vector data along a fixed
    direction, and ``cutoff`` the partition that selects the band; the norm
    combines both wave families.  The fit is linear in ``(t, log v)``;
    ``residual`` is the worst deviation relative to the fitted log-range,
    and the fit fails on non-monotone series.
    """
    if part not in ("M", "H"):
        raise ValueError("part must be 'M' or 'H'")
    times = np.linspace(window[0], window[1], 25)

    def banded(dp: DampingParams):
        return lambda t, r: kernel_hat(t, r, dp, which) * cutoff.chi(part, r) * ghat(r)

    ml, mt = banded(lame.long_params), banded(lame.trans_params)
    vals = np.array([_l2_norm_from_mults(ml, mt, float(t), 0) for t in times])
    if np.any(vals <= 0.0):
        raise FitError("banded kernel norm vanished inside the window")
    logs = np.log(vals)
    rises = np.diff(logs)
    if np.any(rises > 0.05 * max(np.ptp(logs), 1e-12)):
        raise FitError("banded kernel norm is not monotonically decaying")
    slope, intercept, stderr = line_fit(times, logs)
    resid = float(np.max(np.abs(logs - (slope * times + intercept))))
    log_range = float(np.ptp(logs))
    return DecayFit(
        c_fit=float(-slope),
        prefactor=float(np.exp(intercept)),
        residual=resid / max(log_range, 1e-300),
        times=times,
        values=vals,
        rate_ci95=slope_ci95(stderr, times.size),
    )


# ---------------------------------------------------------------------------
# low-frequency symbol bound scans


def _phi_pack(dp: DampingParams, r: np.ndarray):
    """phi and its stable companions on the oscillatory branch."""
    k = dp.nu / (2.0 * dp.beta)
    kr = k * r
    phi = np.sqrt((1.0 - kr) * (1.0 + kr))
    phi_m1 = -(kr * kr) / (1.0 + phi)
    dphi = -(k * k) * r / phi
    d2phi = -(k * k) / phi - (k**4) * r * r / phi**3
    rp = phi + r * dphi  # (r phi)'
    rpp = 2.0 * dphi + r * d2phi  # (r phi)''
    rm1p = phi_m1 + r * dphi  # d/dr [r (phi - 1)] = (r phi)' - 1, stable
    return phi, phi_m1, dphi, d2phi, rp, rpp, rm1p


def _scan_values(bound_id: str, dp: DampingParams, t: np.ndarray, r: np.ndarray):
    """(|scanned quantity|, majorant) arrays on a (t, r) mesh."""
    t = t[:, None]
    r = r[None, :]
    beta = dp.beta
    phi, phi_m1, dphi, d2phi, rp, rpp, rm1p = _phi_pack(dp, r[0])
    a = t * beta * (r * phi)
    b = t * beta * r
    half_diff = 0.5 * t * beta * r * phi_m1  # (a - b) / 2
    cos_a, sin_a = np.cos(a), np.sin(a)
    cos_b, sin_b = np.cos(b), np.sin(b)
    cosdiff = -2.0 * np.sin(0.5 * (a + b)) * np.sin(half_diff)
    sindiff = 2.0 * np.cos(0.5 * (a + b)) * np.sin(half_diff)
    tb = t * beta

    if bound_id == "B331":
        lhs = np.abs(-sin_a * tb * rp) + np.abs(cos_a * tb * rp)
        return lhs, t * np.ones_like(lhs)
    if bound_id == "B332":
        d2_cos = -cos_a * (tb * rp) ** 2 - sin_a * tb * rpp
        d2_sin = -sin_a * (tb * rp) ** 2 + cos_a * tb * rpp
        d1_cos = -sin_a * tb * rp
        d1_sin = cos_a * tb * rp
        lhs = np.maximum(np.abs(d2_cos), np.abs(d1_cos) / r) + np.maximum(
            np.abs(d2_sin), np.abs(d1_sin) / r
        )
        return lhs, t * t + t / r
    if bound_id == "B333":
        d1 = -tb * (rp * sindiff + rm1p * sin_b)
        return np.abs(d1), t * t * r**3 + t * r * r
    if bound_id == "B334":
        d1 = -tb * (rp * sindiff + rm1p * sin_b)
        d2 = -tb * rpp * sin_a - tb * tb * (rp * rp * cosdiff + rm1p * (rp + 1.0) * cos_b)
        lhs = np.maximum(np.abs(d2), np.abs(d1) / r)
        return lhs, t * t * r * r + t * r
    if bound_id == "B335":
        d1 = tb * rp * cosdiff + tb * tb * r * phi_m1 * sin_b
        return np.abs(d1), t**3 * r**6 + t * t * r**5 + t * r * r
    if bound_id == "B336":
        d1 = tb * rp * cosdiff + tb * tb * r * phi_m1 * sin_b
        d2 = (
            tb * rpp * cosdiff
            - tb * tb * rp * (rp * sindiff + rm1p * sin_b)
            + tb * tb * rm1p * sin_b
            + tb**3 * r * phi_m1 * cos_b
        )
        lhs = np.maximum(np.abs(d2), np.abs(d1) / r)
        return lhs, t**4 * r**6 + t * t * r * r + t * r
    if bound_id == "B337":
        env = np.exp(-0.5 * dp.nu * t * r * r)
        denv = -dp.nu * t * r * env
        d2env = (dp.nu * t * r) ** 2 * env - dp.nu * t * env
        v1 = denv * phi_m1 + env * dphi
        v2 = d2env * phi_m1 + 2.0 * denv * dphi + env * d2phi
        c = 0.25 * dp.nu
        bound_env = np.exp(-c * (1.0 + t) * r * r)
        lhs1 = np.abs(v1) / (bound_env * r)
        lhs2 = np.maximum(np.abs(v2), np.abs(v1) / r) / bound_env
        return np.maximum(lhs1, lhs2), np.ones_like(lhs1)
    raise UnsupportedSymbolError(f"unknown bound {bound_id!r}")


SYMBOL_BOUNDS = ("B331", "B332", "B333", "B334", "B335", "B336", "B337")


def symbol_bound_scan(
    bound_id: str,
    t_range: tuple[float, float],
    r_range: tuple[float, float],
    dp: DampingParams,
    density: int = 64,
    seed: int = 0,
) -> float:
    """Sup of |scanned symbol quantity| / majorant over a jittered log mesh of density^2 points.

    The mesh is reproducible from ``seed``; doubling ``density`` must leave
    the sup stable (checked by the caller, not here).  ``r_range`` must stay
    inside the oscillatory region of ``dp``.
    """
    if r_range[1] >= dp.root_threshold:
        raise ValueError(
            f"scan region must satisfy r < 2 beta / nu = {dp.root_threshold:g}"
        )
    rng = np.random.default_rng(seed)
    jt = np.exp(rng.uniform(-0.02, 0.02, density))
    jr = np.exp(rng.uniform(-0.02, 0.02, density))
    ts = np.geomspace(t_range[0], t_range[1], density) * jt
    rs = np.geomspace(r_range[0], r_range[1], density) * jr
    ts = np.clip(ts, t_range[0], t_range[1])
    rs = np.clip(rs, r_range[0], r_range[1])
    lhs, maj = _scan_values(bound_id, dp, ts, rs)
    return float(np.max(lhs / maj))


# ---------------------------------------------------------------------------
# heat-multiplier L^1 decay


# The polar angles of heat_multiplier_l1's L^1 integral: 48 Gauss nodes in cos(theta).
_HEAT_THETAS, _HEAT_THETA_W = gauss_theta_rule(48)


@cache
def _heat_fit(alpha: int) -> AngularFit:
    """Angular fit of ``omega_3^(2 + alpha)`` on the heat rule's thetas, made once per ``alpha``."""

    def ang(wx, wy, wz, gz):
        w3 = wx * gz[0] + wy * gz[1] + wz * gz[2]
        return w3 ** (2 + alpha)

    return angular_fit([AngularTerm(0, 0, ang)], 1, _HEAT_THETAS)


def heat_multiplier_l1(
    t: float,
    nu: float,
    cutoff: CutoffSpec,
    orders: Sequence[tuple[int, int]],
) -> list[float]:
    """L^1 norms of the double-Riesz low-pass heat kernel with derivatives, one per order.

    For each ``(alpha, ell)`` of ``orders``, evaluates ``F^{-1}[(i xi_3)^alpha
    (-nu |xi|^2 / 2)^ell e^{-nu t |xi|^2 / 2} chi_L omega_3^2]`` on an
    axisymmetric polar grid (axis-aligned representative indices) and
    integrates its absolute value.  The grid depends on ``t``, ``nu`` and the
    cutoff only, so one moment sweep serves every order.  ``t`` must be
    finite and non-negative; OutOfDomainError otherwise.
    """
    if not 0.0 <= t < math.inf:  # written so that NaN also fails
        raise OutOfDomainError(f"t must be finite and non-negative, got {t}")
    c0 = cutoff.c0
    r_max = c0
    s_max = 12.0 * math.sqrt(max(nu * t, 1e-6)) + 80.0 / c0
    r = radial_grid(r_max, s_max)
    psis = [
        (1j * r) ** alpha
        * (-0.5 * nu * r * r) ** ell
        * np.exp(-0.5 * nu * t * r * r)
        * cutoff.chi_l(r)
        for alpha, ell in orders
    ]
    ds = math.pi / (10.0 * r_max)
    s = np.arange(0.0, s_max, ds)
    fits = [_heat_fit(alpha) for alpha, _ in orders]

    def l1(k, slots):
        (vals,) = slots
        return axisym_lp_norm(np.abs(vals), s, _HEAT_THETA_W, 1.0)

    return axisym_evaluate(r, psis, fits, s, reduce=l1)
