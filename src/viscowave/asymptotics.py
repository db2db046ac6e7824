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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elastic import LameParams
from .exceptions import FitError, UnsupportedNormError, WindowError
from .kernels import diffusion_hat, kernel_hat
from .radial import (
    AngularTerm,
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
    "linear_norm",
    "profile_error_series",
    "expected_solution_slope",
    "SUPPORTED_NORMS",
]

# ---------------------------------------------------------------------------
# profiles


def _profile_coeff(t, r, lame: LameParams, family: str, which: str):
    """Radial coefficient of profile ``which`` for one wave family, per unit moment.

    ``family`` is ``"long"`` or ``"trans"``.  ``G`` (displacement) is the
    ``G1`` factor, ``H`` (velocity) the ``G0`` factor and ``Gtilde``
    (acceleration) ``-beta^2 r^2 G1``.
    """
    if family == "long":
        dp, b2 = lame.long_params, lame.lam + 2.0 * lame.mu
    else:
        dp, b2 = lame.trans_params, lame.mu
    if which == "G":
        return diffusion_hat(t, r, dp, "G1")
    if which == "H":
        return diffusion_hat(t, r, dp, "G0")
    if which == "Gtilde":
        return -b2 * r * r * diffusion_hat(t, r, dp, "G1")
    raise ValueError(f"unknown profile {which!r}")


# ---------------------------------------------------------------------------
# decay-slope fitting


@dataclass(frozen=True)
class NormSpec:
    """Which norm to measure: derivative order, time order, exponent."""

    alpha: int
    ell: int
    p: float

    def label(self) -> str:
        p = "inf" if math.isinf(self.p) else f"{self.p:g}"
        return f"alpha={self.alpha},ell={self.ell},p={p}"


@dataclass(frozen=True)
class DecayReport:
    times: np.ndarray
    values: np.ndarray
    slope: float
    ci95: float
    expected: float | None
    norm_id: str
    power_law_ok: bool
    drift: float = 0.0


def decay_slope(
    times, values, expected: float | None = None, norm_id: str = ""
) -> DecayReport:
    """Least-squares slope of log(values) against log(times).

    Requires at least 8 points spanning 1.5 decades.  ``power_law_ok`` is
    false when decade-windowed slopes drift by more than 0.02, which flags
    logarithmic corrections masquerading as power laws.  A non-finite time
    or value raises FitError.
    """
    from scipy import stats

    times = np.asarray(times, float)
    values = np.asarray(values, float)
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise FitError("decay_slope requires finite times and values")
    if np.any(values <= 0.0) or np.any(times <= 0.0):
        raise ValueError("decay_slope requires positive times and values")
    if times.size < 8 or np.log10(times[-1] / times[0]) < 1.5:
        raise WindowError("need >= 8 points spanning >= 1.5 decades")
    lt, lv = np.log(times), np.log(values)
    fit = stats.linregress(lt, lv)
    ci = float(stats.t.ppf(0.975, times.size - 2) * fit.stderr)

    # Decade-windowed drift check.
    slopes = []
    lo = times[0]
    while lo * 10.0 <= times[-1] * (1.0 + 1e-9):
        sel = (times >= lo) & (times <= lo * 10.0)
        if np.count_nonzero(sel) >= 3:
            slopes.append(stats.linregress(lt[sel], lv[sel]).slope)
        lo *= math.sqrt(10.0)
    drift = float(np.max(slopes) - np.min(slopes)) if len(slopes) >= 2 else 0.0
    return DecayReport(
        times=times,
        values=values,
        slope=float(fit.slope),
        ci95=ci,
        expected=expected,
        norm_id=norm_id,
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

    ``amp`` is ``|e|``; the measured norms are rotation invariant so the
    direction itself is irrelevant.  ``ghat0`` must equal ``ghat(0)``.
    """

    ghat: Callable
    amp: float = 1.0

    @staticmethod
    def gaussian(sigma: float = 0.5, mass: float = 1.0, amp: float = 1.0) -> "LinearSource":
        c = mass * (2.0 * np.pi) ** (-1.5)
        return LinearSource(ghat=lambda r: c * np.exp(-0.5 * (sigma * r) ** 2), amp=amp)

    def ghat0(self) -> float:
        return float(np.real(self.ghat(np.zeros(1))[0]))


# Supported (profile, ell) -> {p: allowed alphas}.
SUPPORTED_NORMS: dict[tuple[str, int], dict[float, tuple[int, ...]]] = {
    ("G", 0): {2.0: (1, 2, 3), math.inf: (0, 1)},
    ("H", 1): {2.0: (0, 1, 2), 4.0: (2,), math.inf: (0, 1)},
    ("Gtilde", 2): {2.0: (0,), 4.0: (0,)},
}


def _solution_mults(lame: LameParams, src: LinearSource, ell: int):
    """(long, trans) radial coefficient functions of d_t^ell u at time t."""

    def ml(t, r):
        return kernel_hat(t, r, lame.long_params, "K1", ell) * src.ghat(r)

    def mt(t, r):
        return kernel_hat(t, r, lame.trans_params, "K1", ell) * src.ghat(r)

    return ml, mt


def _profile_mults(lame: LameParams, src: LinearSource, which: str):
    """(long, trans) radial coefficient functions of the matching profile."""
    g0 = src.ghat0()

    def mult(family):
        return lambda t, r: _profile_coeff(t, r, lame, family, which) * g0

    return mult("long"), mult("trans")


def _l2_norm_from_mults(ml, mt, t: float, alpha: int, amp: float) -> float:
    one = lambda r: np.ones_like(r)
    nl = radial_l2_norm(ml, one, alpha, (1.0, 0.0), t=t)
    nt = radial_l2_norm(mt, one, alpha, (0.0, 1.0), t=t)
    return amp * math.hypot(nl, nt)


def _support_radius(lame: LameParams, src: LinearSource, t: float) -> float:
    """Radius beyond which the damped coefficients are negligible."""
    probe = np.logspace(-4, 2.5, 2048)
    m = -0.5 * lame.nu * probe**2
    d2 = m * m - (max(lame.beta_long, lame.beta_trans) * probe) ** 2
    sigma_re = np.where(d2 > 0, m + np.sqrt(np.maximum(d2, 0.0)), m)
    env = np.abs(src.ghat(probe)) * np.exp(np.maximum(sigma_re * t, -745.0)) * (1.0 + t)
    env = np.maximum(env, np.abs(src.ghat(probe)) * 1e-300)
    peak = env.max()
    keep = np.nonzero(env > peak * 1e-18)[0]
    return float(probe[keep[-1]] * 1.25)


def _xspace_grids(lame: LameParams, src: LinearSource, t: float):
    r_max = _support_radius(lame, src, t)
    width = max(math.sqrt(lame.nu * t), 1e-3)
    s_max = lame.beta_long * t + 12.0 * width + 12.0 * math.pi / r_max
    ds = math.pi / (8.0 * r_max)
    n_s = int(s_max / ds) + 2
    s = np.linspace(0.0, s_max, n_s)
    return radial_grid(r_max, s_max), s


def _derivative_slots(alpha: int):
    """Sorted derivative multisets with multinomial weights, crossed with components."""
    if alpha == 0:
        dir_groups = [((), 1.0)]
    elif alpha == 1:
        dir_groups = [((d,), 1.0) for d in range(3)]
    elif alpha == 2:
        dir_groups = [
            ((c, d), 1.0 if c == d else 2.0) for c in range(3) for d in range(c, 3)
        ]
    else:
        raise UnsupportedNormError("sup/p-norm path supports derivative orders 0..2")
    slots = []
    for dirs, w in dir_groups:
        for j in range(3):
            slots.append((dirs, j, w))
    return slots


def _xspace_norms(
    mult_pairs, t: float, spec: NormSpec, amp: float, lame: LameParams, src: LinearSource
) -> list[float]:
    """Sup- or L^p-norms of several fields sharing one evaluation grid.

    ``mult_pairs`` is a list of (long, trans) radial coefficient callables;
    fusing them lets the moment tables be computed once per time point.
    """
    r, s = _xspace_grids(lame, src, t)
    ra = r**spec.alpha
    slots = _derivative_slots(spec.alpha)
    ii = 1j**spec.alpha

    psi_bank = []
    terms = []
    for ip, (ml, mt) in enumerate(mult_pairs):
        vl = np.asarray(ml(t, r), dtype=np.complex128)
        vt = np.asarray(mt(t, r), dtype=np.complex128)
        psi_bank.extend([ra * (vl - vt), ra * vt])
        for islot, (dirs, j, _w) in enumerate(slots):
            def ang_par(wx, wy, wz, f, dirs=dirs, j=j):
                e = f.gz
                we = wx * e[0] + wy * e[1] + wz * e[2]
                comp = (wx, wy, wz)
                val = ii * we * comp[j]
                for d in dirs:
                    val = val * comp[d]
                return val

            def ang_perp(wx, wy, wz, f, dirs=dirs, j=j):
                e = f.gz
                val = ii * e[j] * np.ones_like(wx)
                for d in dirs:
                    val = val * (wx, wy, wz)[d]
                return val

            slot = ip * len(slots) + islot
            terms.append(AngularTerm(slot=slot, psi=2 * ip, angular=ang_par))
            terms.append(AngularTerm(slot=slot, psi=2 * ip + 1, angular=ang_perp))

    theta_gauss, theta_w = gauss_theta_rule(24)
    theta_extra = np.linspace(0.0, np.pi, 13)
    thetas = np.concatenate([theta_gauss, theta_extra])
    fields = axisym_evaluate(
        r, psi_bank, terms, len(mult_pairs) * len(slots), s, thetas, nmax=spec.alpha + 2
    )

    weights = np.array([w for (_, _, w) in slots])
    out = []
    for ip in range(len(mult_pairs)):
        block = fields[ip * len(slots) : (ip + 1) * len(slots)]
        if math.isinf(spec.p):
            mag = axisym_magnitude(block, weights)
            out.append(amp * axisym_lp_norm(mag, s, theta_w, spec.p))
        else:
            mag = axisym_magnitude(block[:, :, : theta_gauss.size], weights)
            out.append(amp * axisym_lp_norm(mag, s, theta_w, spec.p))
    return out


def linear_norm(
    lame: LameParams, src: LinearSource, spec: NormSpec, t: float
) -> float:
    """One norm value ``||grad^a dt^l u(t)||_p`` of the homogeneous solution."""
    ml, mt = _solution_mults(lame, src, spec.ell)
    if spec.p == 2.0:
        return _l2_norm_from_mults(ml, mt, t, spec.alpha, src.amp)
    return _xspace_norms([(ml, mt)], t, spec, src.amp, lame, src)[0]


def _validate_norm(which: str, spec: NormSpec) -> None:
    table = SUPPORTED_NORMS.get((which, spec.ell))
    if table is None or spec.p not in table or spec.alpha not in table[spec.p]:
        raise UnsupportedNormError(
            f"norm {spec.label()} is outside the measured set for profile {which}"
        )


def profile_error_series(
    src: LinearSource, which: str, spec: NormSpec, times, lame: LameParams
) -> tuple[DecayReport, DecayReport]:
    """(solution decay, profile-error decay) for one norm and profile on the continuum path."""
    _validate_norm(which, spec)
    ml, mt = _solution_mults(lame, src, spec.ell)
    pl, pt = _profile_mults(lame, src, which)
    el = lambda t, r: ml(t, r) - pl(t, r)
    et = lambda t, r: mt(t, r) - pt(t, r)

    sol_vals, err_vals = [], []
    for t in times:
        t = float(t)
        if spec.p == 2.0:
            sol_vals.append(_l2_norm_from_mults(ml, mt, t, spec.alpha, src.amp))
            err_vals.append(_l2_norm_from_mults(el, et, t, spec.alpha, src.amp))
        else:
            sv, ev = _xspace_norms([(ml, mt), (el, et)], t, spec, src.amp, lame, src)
            sol_vals.append(sv)
            err_vals.append(ev)
    exp_sol = expected_solution_slope(spec)
    sol = decay_slope(times, np.asarray(sol_vals), expected=exp_sol, norm_id=spec.label())
    err = decay_slope(
        times, np.asarray(err_vals), expected=exp_sol - 0.5, norm_id=spec.label() + ",err"
    )
    return sol, err
