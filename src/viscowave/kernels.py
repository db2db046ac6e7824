"""Closed-form Fourier-mode kernels of the strongly damped wave operator.

Every Fourier mode of ``w_tt - beta^2 Lap w - nu Lap w_t = f`` obeys the
scalar ODE ``w'' + nu r^2 w' + beta^2 r^2 w = f`` with ``r = |xi|``.  This
module evaluates the two fundamental solutions of that ODE (``K0`` for unit
initial value, ``K1`` for unit initial velocity) and their time derivatives
up to second order, together with the diffusion-wave factors ``G0, G1``, the
low-frequency cosine kernel ``K00``, and an independent oracle that solves
the mode ODE by a matrix exponential, used to verify all of them.

The characteristic roots are

    sigma_pm = (-nu r^2 +/- sqrt(nu^2 r^4 - 4 beta^2 r^2)) / 2,

complex conjugates for ``nu r < 2 beta`` (oscillatory modes), real for
``nu r > 2 beta`` (overdamped modes), and confluent on the threshold.  All
evaluators are branch-stable: the overdamped branch uses expm1-based
differences so no catastrophic cancellation occurs near confluence, and an
explicit degenerate window switches to the confluent limit formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import OutOfDomainError, UnsupportedOrderError, UnsupportedSymbolError

__all__ = [
    "DampingParams",
    "kernel_branch",
    "kernel_hat",
    "diffusion_hat",
    "mode_oracle",
    "lowfreq_residual",
]

# Relative half-width of the confluent window around the degenerate root.
_DEGENERATE_RTOL = 1e-6


@dataclass(frozen=True)
class DampingParams:
    """Wave speed ``beta`` and viscosity ``nu`` of one scalar mode family.

    Both must be finite and positive; OutOfDomainError otherwise.
    """

    beta: float
    nu: float

    def __post_init__(self) -> None:
        if not 0 < self.beta < math.inf:
            raise OutOfDomainError(f"beta must be finite and positive, got {self.beta}")
        if not 0 < self.nu < math.inf:
            raise OutOfDomainError(f"nu must be finite and positive, got {self.nu}")

    @property
    def root_threshold(self) -> float:
        """Radius ``2 beta / nu`` separating oscillatory from overdamped modes."""
        return 2.0 * self.beta / self.nu


def _finite_nonnegative(**values) -> list[np.ndarray]:
    """``values`` as float arrays; OutOfDomainError unless every entry is finite and non-negative.

    One min and one max per array, not a test per element; NaN fails too, as
    it propagates through both.
    """
    arrays = []
    for name, value in values.items():
        a = np.asarray(value, dtype=float)
        if a.size and not (0.0 <= a.min() and a.max() < np.inf):
            raise OutOfDomainError(
                f"{name} must be finite and non-negative, got values in [{a.min()}, {a.max()}]"
            )
        arrays.append(a)
    return arrays


def _split(params: DampingParams, r):
    """Return (m, d2, degenerate_mask) with m the root midpoint and d2 = m^2 - beta^2 r^2."""
    r = np.asarray(r, dtype=float)
    m = -0.5 * params.nu * r * r
    d2 = m * m - (params.beta * r) ** 2
    half_gap = np.sqrt(np.abs(d2))
    scale = np.maximum(np.abs(m), params.beta * r)
    degen = 2.0 * half_gap <= _DEGENERATE_RTOL * scale + 1e-300
    return m, d2, degen


def kernel_branch(params: DampingParams, r: float) -> str:
    """Root branch at ``r``: ``complex_roots``, ``real_roots`` or ``degenerate``."""
    _, d2, degen = _split(params, r)
    return "degenerate" if degen else "complex_roots" if d2 < 0.0 else "real_roots"


def _envelopes(params: DampingParams, t, r):
    """Stable ``(EC, ES)`` with EC = e^{mt} cosh(dt) and ES = e^{mt} sinh(dt)/d.

    ``d`` is the half root gap (imaginary on the oscillatory branch, where the
    pair reduces to ``e^{mt} cos(w t)`` and ``e^{mt} sin(w t)/w``).  These two
    envelopes generate every kernel and time derivative in this module.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    t, r = np.broadcast_arrays(t, r)
    m, d2, degen = _split(params, r)

    ec = np.empty_like(m)
    es = np.empty_like(m)

    osc = (d2 < 0.0) & ~degen
    if np.any(osc):
        w = np.sqrt(-d2[osc])
        emt = np.exp(m[osc] * t[osc])
        ec[osc] = emt * np.cos(w * t[osc])
        es[osc] = emt * t[osc] * np.sinc(w * t[osc] / np.pi)

    over = (d2 > 0.0) & ~degen
    if np.any(over):
        a = np.sqrt(d2[over])
        to = t[over]
        ro = np.broadcast_to(r, m.shape)[over]
        # sigma_plus <= 0 (no overflow), computed from the exact root product
        # to dodge the m + a cancellation at strong overdamping.
        s_plus = (params.beta * ro) ** 2 / (m[over] - a)
        ep = np.exp(s_plus * to)
        e2 = np.exp(-2.0 * a * to)
        ec[over] = 0.5 * ep * (1.0 + e2)
        es[over] = 0.5 * ep * (-np.expm1(-2.0 * a * to)) / a

    if np.any(degen):
        emt = np.exp(m[degen] * t[degen])
        ec[degen] = emt
        es[degen] = t[degen] * emt

    return ec, es, m


# d^l/dt^l K1 for l = 0, 1, 2 in the envelopes (EC, ES), the root midpoint m
# and beta^2 r^2; K0 is EC - m ES, and its l-th derivative -beta^2 r^2 times row l - 1.
_K1 = (
    lambda ec, es, m, b2r2: es,
    lambda ec, es, m, b2r2: m * es + ec,
    lambda ec, es, m, b2r2: (2.0 * m * m - b2r2) * es + 2.0 * m * ec,
)


def kernel_hat(t, r, params: DampingParams, which: str = "K0", dt_order: int = 0):
    """Evaluate ``d^l/dt^l`` of the mode kernel ``K0`` or ``K1`` at ``(t, r)``.

    Broadcasts over ``t`` and ``r``.  ``K0`` solves the mode ODE with data
    (1, 0), ``K1`` with data (0, 1); derivatives use the exact relations
    ``K0' = -beta^2 r^2 K1`` and the envelope algebra, so every branch is
    cancellation-free.  Every ``t`` and ``r`` must be finite and
    non-negative; OutOfDomainError otherwise.  UnsupportedSymbolError for a
    ``which`` other than ``K0`` and ``K1``.
    """
    if dt_order not in (0, 1, 2):
        raise UnsupportedOrderError(f"time derivative order {dt_order} not supported (0..2)")
    t, r = _finite_nonnegative(t=t, r=r)
    if which not in ("K0", "K1"):
        raise UnsupportedSymbolError(f"unknown kernel {which!r}")
    ec, es, m = _envelopes(params, t, r)
    b2r2 = (params.beta * np.broadcast_to(r, ec.shape)) ** 2
    if which == "K1":
        out = _K1[dt_order](ec, es, m, b2r2)
    elif dt_order:
        out = -b2r2 * _K1[dt_order - 1](ec, es, m, b2r2)
    else:
        out = ec - m * es
    return out if out.ndim else float(out)


def _phi(params: DampingParams, r):
    """Frequency-correction factor sqrt(1 - nu^2 r^2 / (4 beta^2)), oscillatory branch."""
    s = params.nu * np.asarray(r, dtype=float) / (2.0 * params.beta)
    return np.sqrt((1.0 - s) * (1.0 + s))


def diffusion_hat(t, r, params: DampingParams, which: str):
    """Diffusion-wave factors ``G0, G1`` or the cosine kernel ``K00``.

    ``G0 = e^{-nu r^2 t/2} cos(beta r t)`` and
    ``G1 = e^{-nu r^2 t/2} sin(beta r t)/(beta r)`` (limit ``t`` at ``r = 0``).
    ``K00 = e^{-nu r^2 t/2} cos(beta r phi t)`` with ``phi`` of :func:`_phi`, on
    the oscillatory branch only: OutOfDomainError for ``r >= 2 beta / nu``.
    Every ``t`` and ``r`` must be finite and non-negative; OutOfDomainError
    otherwise.  UnsupportedSymbolError for a ``which`` other than ``G0``,
    ``G1`` and ``K00``.
    """
    t, r = _finite_nonnegative(t=t, r=r)
    env = np.exp(-0.5 * params.nu * r * r * t)
    if which == "G0":
        out = env * np.cos(params.beta * r * t)
    elif which == "G1":
        out = env * t * np.sinc(params.beta * r * t / np.pi)
    elif which == "K00":
        if np.any(r >= params.root_threshold):
            raise OutOfDomainError(f"K00 requires r < 2*beta/nu = {params.root_threshold:g}")
        out = env * np.cos(params.beta * r * _phi(params, r) * t)
    else:
        raise UnsupportedSymbolError(f"unknown diffusion kernel {which!r}")
    out = np.asarray(out)
    return out if out.ndim else float(out)


def mode_oracle(
    t: float,
    r: float,
    params: DampingParams,
    w0: float,
    w1: float,
) -> tuple[float, float]:
    """Solve one mode ODE ``w'' + nu r^2 w' + beta^2 r^2 w = 0`` exactly to time ``t``.

    Independent verification oracle for the closed-form kernels: the ODE is
    linear with constant coefficients, so ``(w, w')(t) = expm(t A) (w0, w1)``
    for the companion matrix ``A = [[0, 1], [-beta^2 r^2, -nu r^2]]``.
    ``scipy.linalg.expm`` (scaling and squaring with Pade approximants;
    Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 2009) never forms the
    characteristic roots the kernel formulas branch on, so it needs no
    confluent branch.  Returns ``(w(t), w'(t))`` for ``w(0) = w0``,
    ``w'(0) = w1``.  ``t`` and ``r`` must be finite and non-negative;
    OutOfDomainError otherwise.
    """
    from scipy.linalg import expm

    _finite_nonnegative(t=t, r=r)
    a = np.array([[0.0, 1.0], [-((params.beta * r) ** 2), -params.nu * r * r]])
    w, wdot = expm(t * a) @ np.array([w0, w1], dtype=float)
    return float(w), float(wdot)


def lowfreq_residual(t, r, params: DampingParams) -> tuple[float, float]:
    """Residuals of the two oscillatory-branch representation identities.

    On the oscillatory branch the kernels admit trigonometric forms; the
    identities (exact, so both residuals vanish to round-off) are

        K0 = (nu r^2 / 2) K1 + K00,
        K1 = e^{-nu r^2 t/2} sin(t beta r phi) / (beta r phi).

    The coefficient ``nu r^2 / 2`` is forced by the initial conditions:
    ``K0(0) = 1, K0'(0) = 0`` pins the sine amplitude to half the damping
    rate.  Raises outside the oscillatory region, where ``phi`` is imaginary.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r >= params.root_threshold):
        raise OutOfDomainError(
            f"trigonometric forms require r < 2*beta/nu = {params.root_threshold:g}"
        )
    k0 = kernel_hat(t, r, params, "K0")
    k1 = kernel_hat(t, r, params, "K1")
    k00 = diffusion_hat(t, r, params, "K00")
    res_24 = np.abs(k0 - 0.5 * params.nu * r * r * k1 - k00)

    phi = _phi(params, r)
    env = np.exp(-0.5 * params.nu * r * r * t)
    trig = env * t * np.sinc(params.beta * r * phi * t / np.pi)
    res_25 = np.abs(k1 - trig)
    if res_24.ndim:
        return res_24, res_25
    return float(res_24), float(res_25)
