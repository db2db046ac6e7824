"""Empirical verification of the inequality arsenal.

Three families of checks:

* interpolation/embedding inequalities evaluated as constant-free ratios,
  with dilation scans certifying scale invariance where it holds;
* exponential-decay fits of the mid/high-frequency kernel parts;
* pointwise bound scans of the low-frequency symbol derivatives against
  their claimed majorants.

The symbol derivatives are evaluated in closed form with every cancellation
performed analytically (differences of phases go through product formulas,
``phi - 1`` through its rationalized form), so the scanned ratios reflect the
mathematics rather than finite-difference noise; a central-difference check of
every symbol's first and second derivatives, away from r = 0, guards them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .asymptotics import line_fit, slope_ci95
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
    radial_l2_norm,
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
    for xi in grid.xi:
        np.multiply(1j * xi, fh, out=buf)
        yield from inverse_slabs(grid, buf)


def _weighted_l2(grid: Grid3, f: np.ndarray) -> float:
    """``|| |x - c|^2 f ||_2`` about the box centre ``c``; the weight goes with its product."""
    x = [grid.x_component(a) - grid.box_length / 2.0 for a in range(3)]
    return lp_norm(grid, f * (x[0] ** 2 + x[1] ** 2 + x[2] ** 2), 2)


def _riesz_l2(grid: Grid3, fh: np.ndarray) -> float:
    """``||R_1 f||_2`` of ``R_1 = F^{-1} (-i xi_1 / |xi|) F`` by Plancherel, 0 where ``xi`` is."""
    a = np.abs(fh) ** 2
    a *= grid.xi[0] * grid.xi[0]
    np.divide(a, grid.xi2, out=a, where=grid.xi2 > 0)
    return half_density_norm(grid, a)


# The named norms of a real scalar f, taken from f itself or from its spectrum
# fh; h<k> is the Plancherel seminorm || |xi|^k fh ||_2, so h2 is ||D^2 f||_2.
_PHYSICAL = {
    "l1": lambda grid, f: lp_norm(grid, f, 1),
    "l2": lambda grid, f: lp_norm(grid, f, 2),
    "l6": lambda grid, f: lp_norm(grid, f, 6),
    "sup": lambda grid, f: lp_norm(grid, f, math.inf),
    "weighted_l2": _weighted_l2,
}
_SPECTRAL = {
    "h0": lambda grid, fh: half_seminorm(grid, fh, 0),
    "h1": lambda grid, fh: half_seminorm(grid, fh, 1),
    "h2": lambda grid, fh: half_seminorm(grid, fh, 2),
    "grad_l4": lambda grid, fh: lp_norm(grid, _gradient(grid, fh), 4.0),
    "riesz_l2": _riesz_l2,
}
# Each inequality as ``(lhs, ((rhs, power), ...))``: its constant-free ratio
# is ``||f||_lhs / prod ||f||_rhs ** power``.
_RATIOS = {
    "GN_L1": ("l1", (("l2", 0.25), ("weighted_l2", 0.75))),
    "GN_INF": ("sup", (("l2", 0.25), ("h2", 0.75))),
    "GRAD_2P": ("grad_l4", (("sup", 0.5), ("h2", 0.5))),
    "SOB_6": ("l6", (("h1", 1.0),)),
    "RIESZ": ("riesz_l2", (("h0", 1.0),)),
}


def _norms_of(grid: Grid3, f: np.ndarray, ineq_ids) -> tuple[dict, np.ndarray | None]:
    """The physical norms of ``f`` that ``ineq_ids`` read, then its spectrum if they read one.

    No reference to ``f`` is kept, so a caller that drops its own frees the
    field before :func:`_ratios` takes the spectral norms.
    """
    if f.shape != grid.shape:
        raise ShapeMismatchError(f"scalar shape {f.shape} does not match grid {grid.shape}")
    if unknown := sorted(set(ineq_ids) - _RATIOS.keys()):
        raise UnsupportedSymbolError(f"unknown inequality {unknown[0]!r}")
    names = {name for i in ineq_ids for name in (_RATIOS[i][0], *dict(_RATIOS[i][1]))}
    norms = {name: _PHYSICAL[name](grid, f) for name in sorted(names & _PHYSICAL.keys())}
    return norms, (forward_scalar(grid, f) if len(norms) < len(names) else None)


def _ratios(ineq_ids, grid: Grid3, norms: dict, fh) -> list[float]:
    """Each inequality's ratio from ``norms``, to which the spectral norms of ``fh`` are added once."""
    ratios = []
    for ineq_id in ineq_ids:
        lhs, rhs = _RATIOS[ineq_id]
        for name in (lhs, *dict(rhs)):
            if name not in norms:
                norms[name] = _SPECTRAL[name](grid, fh)
        denominator = math.prod(norms[name] ** power for name, power in rhs)
        if denominator == 0.0:
            raise DegenerateInputError(f"{ineq_id}: right side vanishes")
        ratios.append(norms[lhs] / denominator)
    return ratios


def inequality_check(ineq_id: str, grid: Grid3, f: np.ndarray) -> float:
    """Constant-free ratio (left side / right side) of one inequality.

    ``f`` holds the real scalar test function on ``grid``; only the norms the
    inequality reads are computed.  Gradient norms stream their fields one
    at a time.  Raises DegenerateInputError when the right side vanishes.
    """
    norms, fh = _norms_of(grid, f, (ineq_id,))
    del f  # a caller's temporary field goes before the spectral work
    return _ratios((ineq_id,), grid, norms, fh)[0]


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
        # The dilate lives only while its physical norms and its spectrum are taken.
        dilate = np.broadcast_to(generator(lam * xc[0], lam * xc[1], lam * xc[2]), grid.shape)
        norms, fh = _norms_of(grid, dilate, ineq_ids)
        del dilate
        return _ratios(ineq_ids, grid, norms, fh)

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
        raise UnsupportedSymbolError(f"part must be 'M' or 'H', got {part!r}")
    times = np.linspace(window[0], window[1], 25)

    def banded(dp: DampingParams, t: float):
        return lambda r: kernel_hat(t, r, dp, which) * cutoff.chi(part, r) * ghat(r)

    long, trans = lame.long_params, lame.trans_params
    vals = np.array([radial_l2_norm(banded(long, t), banded(trans, t), 0) for t in times])
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


def _derivatives(symbol: str, dp: DampingParams, t: np.ndarray, r: np.ndarray):
    """``(d1, d2)``, the first two r-derivatives of each function ``symbol`` sums.

    With ``a = t beta r phi`` and ``b = t beta r``: ``phase`` sums ``cos a`` and
    ``sin a``, ``cos_gap`` is ``cos a - cos b``, ``sin_gap`` is ``sin a - sin b
    - (a - b) cos b`` and ``envelope`` is ``e^{-nu t r^2 / 2} (phi - 1)``.
    """
    phi, phi_m1, dphi, d2phi, rp, rpp, rm1p = _phi_pack(dp, r)
    if symbol == "envelope":
        env = np.exp(-0.5 * dp.nu * t * r * r)
        denv = -dp.nu * t * r * env
        d2env = (dp.nu * t * r) ** 2 * env - dp.nu * t * env
        return ((denv * phi_m1 + env * dphi, d2env * phi_m1 + 2.0 * denv * dphi + env * d2phi),)
    tb = t * dp.beta
    a, b = tb * (r * phi), tb * r
    half_diff = 0.5 * tb * r * phi_m1  # (a - b) / 2
    cos_a, sin_a, cos_b, sin_b = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    cosdiff = -2.0 * np.sin(0.5 * (a + b)) * np.sin(half_diff)  # cos a - cos b
    sindiff = 2.0 * np.cos(0.5 * (a + b)) * np.sin(half_diff)  # sin a - sin b
    if symbol == "phase":
        return (
            (-sin_a * tb * rp, -cos_a * (tb * rp) ** 2 - sin_a * tb * rpp),
            (cos_a * tb * rp, -sin_a * (tb * rp) ** 2 + cos_a * tb * rpp),
        )
    if symbol == "cos_gap":
        d1 = -tb * (rp * sindiff + rm1p * sin_b)
        d2 = -tb * rpp * sin_a - tb * tb * (rp * rp * cosdiff + rm1p * (rp + 1.0) * cos_b)
        return ((d1, d2),)
    d1 = tb * rp * cosdiff + tb * tb * r * phi_m1 * sin_b  # sin_gap
    d2 = (
        tb * rpp * cosdiff - tb * tb * rp * (rp * sindiff + rm1p * sin_b)
        + tb * tb * rm1p * sin_b + tb**3 * r * phi_m1 * cos_b
    )
    return ((d1, d2),)


# Each bound as ``(symbol, order, majorant(t, r, nu))``.  An order-1 row scans
# ``sum |f'|`` over the functions f the symbol sums, an order-2 row
# ``sum max(|f''|, |f'| / r)``; its ratio is the scanned value over the majorant.
_BOUNDS = {
    "B331": ("phase", 1, lambda t, r, nu: t),
    "B332": ("phase", 2, lambda t, r, nu: t * t + t / r),
    "B333": ("cos_gap", 1, lambda t, r, nu: t * t * r**3 + t * r * r),
    "B334": ("cos_gap", 2, lambda t, r, nu: t * t * r * r + t * r),
    "B335": ("sin_gap", 1, lambda t, r, nu: t**3 * r**6 + t * t * r**5 + t * r * r),
    "B336": ("sin_gap", 2, lambda t, r, nu: t**4 * r**6 + t * t * r * r + t * r),
    "B337": ("envelope", 2, lambda t, r, nu: np.exp(-0.25 * nu * (1.0 + t) * r * r)),
}
SYMBOL_BOUNDS = tuple(_BOUNDS)


def symbol_bound_scan(
    bound_id: str,
    t_range: tuple[float, float],
    r_range: tuple[float, float],
    dp: DampingParams,
    density: int = 64,
    seed: int = 0,
) -> float:
    """Sup of |scanned symbol quantity| / majorant over a jittered log mesh of density^2 points.

    The mesh is reproducible from ``seed``; doubling ``density`` must leave the
    sup stable (checked by the caller, not here).  A ``bound_id`` outside
    SYMBOL_BOUNDS raises UnsupportedSymbolError; ``density`` must be at least 2,
    each range ``0 < lo <= hi < inf``, and ``r_range`` inside the oscillatory
    region of ``dp``; OutOfDomainError otherwise.
    """
    if bound_id not in _BOUNDS:
        raise UnsupportedSymbolError(f"unknown bound {bound_id!r}")
    if not density >= 2:
        raise OutOfDomainError(f"density must be at least 2, got {density}")
    for name, (lo, hi) in (("t_range", t_range), ("r_range", r_range)):
        if not 0.0 < lo <= hi < math.inf:  # written so that NaN also fails
            raise OutOfDomainError(f"{name} must satisfy 0 < lo <= hi < inf, got {(lo, hi)}")
    if r_range[1] >= dp.root_threshold:
        raise OutOfDomainError(f"scan region must satisfy r < 2 beta / nu = {dp.root_threshold:g}")
    rng = np.random.default_rng(seed)
    jt = np.exp(rng.uniform(-0.02, 0.02, density))
    jr = np.exp(rng.uniform(-0.02, 0.02, density))
    ts = np.geomspace(t_range[0], t_range[1], density) * jt
    rs = np.geomspace(r_range[0], r_range[1], density) * jr
    t, r = np.clip(ts, t_range[0], t_range[1])[:, None], np.clip(rs, r_range[0], r_range[1])
    symbol, order, majorant = _BOUNDS[bound_id]
    lhs = sum(
        np.abs(d1) if order == 1 else np.maximum(np.abs(d2), np.abs(d1) / r)
        for d1, d2 in _derivatives(symbol, dp, t, r)
    )
    return float(np.max(lhs / majorant(t, r, dp.nu)))


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
