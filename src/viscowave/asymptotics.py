"""Diffusion-wave profiles and decay-rate measurement.

The long-time shape of the linear solution is governed by the diffusion-wave
factors evaluated at the zero-frequency moment ``m1 = int f1 dx`` of the
velocity data: the displacement profile is built from ``G1``-factors; the
velocity and acceleration profiles swap in ``G0``-factors and
``beta^2 |xi|^2``-weighted combinations.  The measurement side fits log-log
slopes of norm series computed on the continuum radial path (no periodic
images), and compares solution decay against profile-error decay.

Conventions: profiles are stated in the same unitary transform used by the
grid layer, so a profile coefficient approximates the solution coefficient
as ``xi -> 0``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .elastic import LameParams
from .exceptions import (
    FitError,
    InvalidExponentError,
    OutOfDomainError,
    QuadratureAccuracyError,
    UnsupportedNormError,
    WindowError,
)
from .kernels import diffusion_hat, kernel_hat
from .radial import (
    AngularFit,
    AngularTerm,
    angular_fit,
    axisym_evaluate,
    axisym_lp_norm,
    axisym_magnitude,
    gauss_theta_rule,
    radial_grid,
    radial_l2_norm,
)

# Not called here; kept bound because perfbench's layer tracer self-test expects it here.
from .grid import transform  # noqa: F401

__all__ = [
    "DecayReport",
    "NormSpec",
    "LinearSource",
    "decay_slope",
    "line_fit",
    "linear_norm",
    "slope_ci95",
    "profile_error_norms",
    "expected_solution_slope",
    "SUPPORTED_NORMS",
]

# ---------------------------------------------------------------------------
# decay-slope fitting


@dataclass(frozen=True)
class NormSpec:
    """Which norm to measure: derivative order, time order, exponent."""

    alpha: int
    ell: int
    p: float

    def label(self) -> str:
        return f"alpha={self.alpha},ell={self.ell},p={self.p:g}"


@dataclass(frozen=True)
class DecayReport:
    slope: float
    ci95: float
    power_law_ok: bool
    drift: float


def line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line through ``(x, y)``: slope, intercept and the slope's standard error.

    The formulas are those of ``scipy.stats.linregress`` (moments from
    ``np.cov(x, y, bias=1)``, the correlation clipped to [-1, 1]), so the
    values agree with it; needs at least 3 points.
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0.0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (x.size - 2))
    return float(slope), float(intercept), float(stderr)


def _t_two_tail(t: float, dof: int) -> tuple[float, float]:
    """``P(|T| > t)`` for Student's t with ``dof`` degrees of freedom, and its density at ``t``.

    The finite series of Abramowitz & Stegun 26.7.3-4 in ``theta = atan(t / sqrt(dof))``,
    arranged so that no rounded ``cos^2 theta`` is raised to a power (its k-th
    power is ``exp(-k log1p(t^2 / dof))``) and the even-dof series starts
    from ``1 - sin theta = cos^2 theta / (1 + sin theta)``.
    """
    x = t * t / dof
    log_c2 = -math.log1p(x)  # log cos^2 theta
    s = math.sqrt(x / (1.0 + x))  # sin theta
    coef, terms = 1.0, []
    for k in range(1, dof // 2):
        coef *= (2 * k - 1) / (2 * k) if dof % 2 == 0 else 2 * k / (2 * k + 1)
        terms.append(coef * math.exp(k * log_c2))
    if dof % 2 == 0:
        tail = math.exp(log_c2) / (1.0 + s) - s * math.fsum(terms)
    else:
        sin_cos = math.sqrt(x) / (1.0 + x) * (1.0 + math.fsum(terms)) if dof > 1 else 0.0
        tail = 2.0 / math.pi * (math.atan2(math.sqrt(dof), t) - sin_cos)
    log_norm = math.lgamma(0.5 * (dof + 1)) - math.lgamma(0.5 * dof) - 0.5 * math.log(dof * math.pi)
    return tail, math.exp(log_norm + 0.5 * (dof + 1) * log_c2)


def slope_ci95(stderr: float, n: int) -> float:
    """95% half-width of a fitted slope with standard error ``stderr`` from ``n >= 3`` points.

    The half-width is ``stderr`` times the 0.975 quantile of Student's t with
    ``n - 2`` degrees of freedom, found by Newton's method on
    ``P(|T| > t) = 0.05`` (:func:`_t_two_tail`).  It starts at the normal
    quantile, which lies below every t quantile; the tail is convex in t, so
    the iterates rise to the root.  OutOfDomainError for ``n < 3``.
    """
    if not n >= 3:
        raise OutOfDomainError(f"a slope's confidence interval needs at least 3 points, got {n}")
    t = 1.959963984540054
    while True:
        tail, density = _t_two_tail(t, n - 2)
        step = (tail - 0.05) / (2.0 * density)
        t += step
        if abs(step) < 1e-12 * t:  # convergence is quadratic: what is left is round-off
            return float(t * stderr)


def decay_slope(times, values) -> DecayReport:
    """Least-squares slope of log(values) against log(times).

    Requires at least 8 points spanning 1.5 decades.  ``power_law_ok`` is
    false when decade-windowed slopes drift by more than 0.02, which flags
    logarithmic corrections masquerading as power laws.  A non-finite or
    non-positive time or value raises FitError.
    """
    times = np.asarray(times, float)
    values = np.asarray(values, float)
    if not all(np.all(np.isfinite(x) & (x > 0.0)) for x in (times, values)):
        raise FitError("decay_slope requires finite positive times and values")
    if times.size < 8 or np.log10(times[-1] / times[0]) < 1.5:
        raise WindowError("need >= 8 points spanning >= 1.5 decades")
    lt, lv = np.log(times), np.log(values)
    slope, _, stderr = line_fit(lt, lv)

    # Decade-windowed drift check.
    slopes = []
    lo = times[0]
    while lo * 10.0 <= times[-1] * (1.0 + 1e-9):
        sel = (times >= lo) & (times <= lo * 10.0)
        if np.count_nonzero(sel) >= 3:
            slopes.append(line_fit(lt[sel], lv[sel])[0])
        lo *= math.sqrt(10.0)
    drift = float(np.max(slopes) - np.min(slopes)) if len(slopes) >= 2 else 0.0
    return DecayReport(
        slope=slope,
        ci95=slope_ci95(stderr, times.size),
        power_law_ok=drift <= 0.02,
        drift=drift,
    )


def expected_solution_slope(spec: NormSpec) -> float:
    """Sharp decay exponent of ``||grad^a dt^l u||_p`` for data with mass.

    Derived from the measured family: ``-5/2 (1 - 1/p) + 1 - (a + l)/2``.
    """
    inv_p = 0.0 if math.isinf(spec.p) else 1.0 / spec.p
    return -2.5 * (1.0 - inv_p) + 1.0 - 0.5 * (spec.alpha + spec.ell)


# ---------------------------------------------------------------------------
# linear measurement path (radial data, continuum norms)


@dataclass(frozen=True)
class LinearSource:
    """Velocity data ``f1(x) = g(|x|) e`` with continuum radial transform ``ghat``.

    ``e`` is a unit vector; the measured norms are rotation invariant, so its
    direction is irrelevant.  ``ghat0`` is ``ghat(0)``, the data's mass
    times ``(2 pi)^{-3/2}``.
    """

    ghat: Callable

    @staticmethod
    def gaussian(sigma: float = 0.5) -> "LinearSource":
        """Unit-mass Gaussian of width ``sigma``, finite and positive (else OutOfDomainError)."""
        if not 0.0 < sigma < math.inf:  # written so that NaN also fails
            raise OutOfDomainError(f"sigma must be finite and positive, got {sigma}")
        c = (2.0 * np.pi) ** (-1.5)
        return LinearSource(ghat=lambda r: c * np.exp(-0.5 * (sigma * r) ** 2))

    def ghat0(self) -> float:
        return float(np.real(self.ghat(np.zeros(1))[0]))


# Supported (profile, ell) -> {p: allowed alphas}.
SUPPORTED_NORMS: dict[tuple[str, int], dict[float, tuple[int, ...]]] = {
    ("G", 0): {2.0: (1, 2, 3), math.inf: (0, 1)},
    ("H", 1): {2.0: (0, 1, 2), 4.0: (2,), math.inf: (0, 1)},
    ("Gtilde", 2): {2.0: (0,), 4.0: (0,)},
}


# Profile -> (its diffusion-wave factor, whether it carries the weight -beta^2 r^2),
# per unit moment: displacement ``G``, velocity ``H`` and acceleration ``Gtilde``.
_PROFILES = {"G": ("G1", False), "H": ("G0", False), "Gtilde": ("G1", True)}


def _solution_mults(lame: LameParams, src: LinearSource, ell: int):
    """(long, trans) radial coefficient functions of d_t^ell u at time t."""

    def mult(dp):
        return lambda t, r: kernel_hat(t, r, dp, "K1", ell) * src.ghat(r)

    return mult(lame.long_params), mult(lame.trans_params)


def _profile_mults(lame: LameParams, src: LinearSource, which: str):
    """(long, trans) radial coefficient functions of the matching profile."""
    g0 = src.ghat0()
    factor, weighted = _PROFILES[which]

    def mult(dp, b2):
        def coeff(t, r):
            g = diffusion_hat(t, r, dp, factor)
            return (-b2 * r * r * g if weighted else g) * g0

        return coeff

    return mult(lame.long_params, lame.lam + 2.0 * lame.mu), mult(lame.trans_params, lame.mu)


def _support_r_max(lame: LameParams, src: LinearSource, t: float) -> float:
    """Radius beyond which the damped coefficients are negligible.

    Raises QuadratureAccuracyError (``achieved = inf``) if they vanish on the whole probe.
    """
    probe = np.logspace(-4, 2.5, 2048)
    m = -0.5 * lame.nu * probe**2
    d2 = m * m - (max(lame.beta_long, lame.beta_trans) * probe) ** 2
    sigma_re = np.where(d2 > 0, m + np.sqrt(np.maximum(d2, 0.0)), m)
    env = np.abs(src.ghat(probe)) * np.exp(np.maximum(sigma_re * t, -745.0)) * (1.0 + t)
    env = np.maximum(env, np.abs(src.ghat(probe)) * 1e-300)
    peak = env.max()
    if peak == 0.0:
        raise QuadratureAccuracyError("data transform vanishes on the support probe", math.inf)
    keep = np.nonzero(env > peak * 1e-18)[0]
    return float(probe[keep[-1]] * 1.25)


def _xspace_grids(lame: LameParams, src: LinearSource, t: float):
    r_max = _support_r_max(lame, src, t)
    width = max(math.sqrt(lame.nu * t), 1e-3)
    s_max = lame.beta_long * t + 12.0 * width + 12.0 * math.pi / r_max
    ds = math.pi / (8.0 * r_max)
    n_s = int(s_max / ds) + 2
    s = np.linspace(0.0, s_max, n_s)
    return radial_grid(r_max, s_max), s


def _derivative_slots(alpha: int):
    """Sorted derivative multisets with multinomial weights, crossed with components."""
    if not 0 <= alpha <= 2:
        raise UnsupportedNormError("sup/p-norm path supports derivative orders 0..2")
    slots = []
    for dirs in itertools.combinations_with_replacement(range(3), alpha):
        weight = math.factorial(alpha) / math.prod(math.factorial(dirs.count(d)) for d in range(3))
        slots += [(dirs, j, weight) for j in range(3)]
    return slots


# Polar angles of the sup/L^p path: 24 Gauss nodes in cos(theta) carry the
# L^p integrals, and 13 uniform angles join them in the sup search.
_THETA_GAUSS, _THETA_W = gauss_theta_rule(24)
_THETAS = np.concatenate([_THETA_GAUSS, np.linspace(0.0, np.pi, 13)])


@functools.cache
def _derivative_fit(alpha: int) -> AngularFit:
    """Angular fit of ``grad^alpha`` of a field with profiles (long - trans, trans) on _THETAS.

    The field is ``psi_0(r) (omega . e) omega + psi_1(r) e`` for the data
    direction ``e`` (global z).  The fit depends on the derivative order
    only, so it is made once per process.
    """
    ii = 1j**alpha
    slots = _derivative_slots(alpha)
    terms = []
    for islot, (dirs, j, _w) in enumerate(slots):
        def ang_par(wx, wy, wz, e, dirs=dirs, j=j):
            we = wx * e[0] + wy * e[1] + wz * e[2]
            comp = (wx, wy, wz)
            val = ii * we * comp[j]
            for d in dirs:
                val = val * comp[d]
            return val

        def ang_perp(wx, wy, wz, e, dirs=dirs, j=j):
            val = ii * e[j] * np.ones_like(wx)
            for d in dirs:
                val = val * (wx, wy, wz)[d]
            return val

        terms.append(AngularTerm(slot=islot, psi=0, angular=ang_par))
        terms.append(AngularTerm(slot=islot, psi=1, angular=ang_perp))
    return angular_fit(terms, len(slots), _THETAS, nmax=alpha + 2)


def _xspace_norms(fields, t: float, lame: LameParams, src: LinearSource) -> list[float]:
    """Sup- or L^p-norms at time t of several fields from one radial moment pass.

    ``fields`` is a list of ``(spec, (long, trans))`` pairs of a norm and the
    field's radial coefficient callables.  The ``(r, s)`` grid depends on t
    only, so one :func:`axisym_evaluate` call sweeps the moment tables for
    every field; each field is then contracted one slot at a time, each
    slot's weighted squared magnitude added to a running sum as it arrives,
    and reduced to its norm before the next one is built.
    """
    r, s = _xspace_grids(lame, src, t)
    psi_bank, fits = [], []
    for spec, (ml, mt) in fields:
        ra = r**spec.alpha
        vl = np.asarray(ml(t, r), dtype=np.complex128)
        vt = np.asarray(mt(t, r), dtype=np.complex128)
        psi_bank.extend([ra * (vl - vt), ra * vt])
        fit = _derivative_fit(spec.alpha)
        # The L^p quadrature reads only the Gauss angles, so an L^p field skips the rest.
        fits.append(fit if math.isinf(spec.p) else AngularFit(fit.weights[..., : _THETA_GAUSS.size]))

    def norm(k, slots):
        spec = fields[k][0]
        weights = np.array([w for (_, _, w) in _derivative_slots(spec.alpha)])
        return axisym_lp_norm(axisym_magnitude(slots, weights), s, _THETA_W, spec.p)

    return axisym_evaluate(r, psi_bank, fits, s, reduce=norm)


def _norms(fields, t: float, lame: LameParams, src: LinearSource) -> list[float]:
    """The norm of each ``(spec, (long, trans))`` field at time t.

    L^2 norms are radial quadratures; the sup/L^p norms share one moment pass.
    """
    shared = [field for field in fields if field[0].p != 2.0]
    values = iter(_xspace_norms(shared, t, lame, src) if shared else ())
    return [
        radial_l2_norm(functools.partial(ml, t), functools.partial(mt, t), spec.alpha)
        if spec.p == 2.0
        else next(values)
        for spec, (ml, mt) in fields
    ]


def _check_norm_input(specs: Sequence[NormSpec], t: float) -> None:
    """Raise unless every spec's ``p`` lies in [1, inf] and ``t`` is finite and non-negative.

    InvalidExponentError for a bad ``p``, OutOfDomainError for a bad ``t``.
    """
    for spec in specs:
        if not spec.p >= 1.0:  # written so that NaN also fails
            raise InvalidExponentError(f"p must satisfy 1 <= p <= inf, got {spec.p}")
    if not 0.0 <= t < math.inf:
        raise OutOfDomainError(f"t must be finite and non-negative, got {t}")


def linear_norm(
    lame: LameParams, src: LinearSource, specs: Sequence[NormSpec], t: float
) -> list[float]:
    """The norms ``||grad^a dt^l u(t)||_p`` of the homogeneous solution, one per spec.

    Each ``p`` must lie in [1, inf] (InvalidExponentError) and ``t`` must be
    finite and non-negative (OutOfDomainError).
    """
    _check_norm_input(specs, t)
    fields = [(spec, _solution_mults(lame, src, spec.ell)) for spec in specs]
    return _norms(fields, t, lame, src)


def _validate_norm(which: str, spec: NormSpec) -> None:
    table = SUPPORTED_NORMS.get((which, spec.ell))
    if table is None or spec.p not in table or spec.alpha not in table[spec.p]:
        raise UnsupportedNormError(
            f"norm {spec.label()} is outside the measured set for profile {which}"
        )


def _profile_fields(src: LinearSource, norms: Sequence[tuple[str, NormSpec]], lame: LameParams):
    """The solution field and its error against the profile, per (profile, norm), in that order."""
    fields = []
    for which, spec in norms:
        ml, mt = _solution_mults(lame, src, spec.ell)
        pl, pt = _profile_mults(lame, src, which)
        el = lambda t, r, ml=ml, pl=pl: ml(t, r) - pl(t, r)
        et = lambda t, r, mt=mt, pt=pt: mt(t, r) - pt(t, r)
        fields += [(spec, (ml, mt)), (spec, (el, et))]
    return fields


def profile_error_norms(
    src: LinearSource, norms: Sequence[tuple[str, NormSpec]], t: float, lame: LameParams
) -> list[float]:
    """The solution's norm and its error's norm against the profile at time t, per (profile, norm).

    Two values per entry of ``norms``, in that order; the sup/L^p ones share
    one moment pass.  Guarded like :func:`linear_norm`.
    """
    _check_norm_input([spec for _, spec in norms], t)
    for which, spec in norms:
        _validate_norm(which, spec)
    return _norms(_profile_fields(src, norms, lame), t, lame, src)
