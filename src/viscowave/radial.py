"""Continuum norm evaluation for radially structured spectral data.

Two paths live here, both free of periodic-image artifacts:

* ``radial_l2_norm`` - L^2 norms of fields whose coefficients are a radial
  multiplier times a fixed angular structure (longitudinal / transverse
  split of a constant direction), by composite 16-point Gauss-Legendre
  quadrature: each level is one vectorised integrand call, and the panel
  count doubles until two levels agree (Trefethen, SIAM Review 2008);
* an axisymmetric physical-space evaluator that reconstructs vector and
  tensor fields ``F^{-1}[psi(|xi|) * P(xi/|xi|)]`` on a polar ``(s, theta)``
  grid, used for sup-norm and L^p (p != 2) measurements.

The evaluator reduces the 3-D inverse transform to one dimension: an
azimuthal integral of the angular polynomial (exact trapezoid), a monomial
fit in ``mu = cos(gamma)`` (exact interpolation, one batched solve), and
moment integrals ``I_n(q) = int_{-1}^{1} mu^n e^{i q mu} dmu`` with closed
forms for large ``q`` and series for small ``q``, built in place as real
tables one cache-sized block of ``s`` at a time.

The angular fit depends on the angular terms and the theta set only, so
:func:`angular_fit` runs once per field shape, outside any time loop.  The
moment tables depend on the ``(r, s)`` grid only, so one
:func:`axisym_evaluate` call sweeps them once for a whole bank of radial
profiles: every field on that grid shares the sweep and its moment matmul,
and then each field in turn is contracted with its own fit and handed to a
reduction (a magnitude and a norm, say) one slot at a time, before the next
field is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import OutOfDomainError, QuadratureAccuracyError

__all__ = [
    "SPHERE_LONG", "SPHERE_TRANS", "radial_l2_norm", "AngularTerm", "AngularFit", "angular_fit",
    "axisym_evaluate", "axisym_magnitude", "axisym_lp_norm", "gauss_theta_rule",
    "radial_grid", "simpson_weights",
]

# Angular integrals over the unit sphere of |P e|^2 and |(I - P) e|^2 for a
# unit vector e, with P the rank-one projector along the direction:
# int (omega . e)^2 dOmega = 4 pi / 3 and its complement.
SPHERE_LONG = 4.0 * np.pi / 3.0
SPHERE_TRANS = 8.0 * np.pi / 3.0

# radial_l2_norm: support probe up to _PROBE_RMAX, 16 Gauss-Legendre nodes per
# panel, 16 panels doubled up to the cap, relative tolerance of the result.
_PROBE_RMAX = 100.0
_ZERO_RMAX = 1e4  # reach of the check that a coefficient zero on the probe is zero
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_PANELS_MAX = 2**14
_EPSREL = 1e-8
# axisym_evaluate: azimuthal trapezoid points, q-table elements per s-block
# (one block's tables stay in cache), radii per group of the angle-addition
# split of sin and cos, profile columns per moment matmul, and r points per
# 2 pi of r * s in radial_grid.  OpenBLAS's threaded dgemm gives the same bits
# at any thread count for products up to 12 columns wide, not from 16 on, so
# the bank meets the tables 8 columns at a time and the reports do not depend
# on the BLAS thread count.  Four points per cycle is the aliasing bound of
# the Simpson rule on these even integrands (see radial_grid): at three, the
# smoothing suite's sup-norms move by 5.6e-3.
_N_PHI = 16
_BLOCK_ELEMENTS = 1 << 16
_ANGLE_SPLIT = 64
_MATMUL_COLUMNS = 8
_PTS_PER_CYCLE = 4.0


def _gauss_legendre(integrand: Callable, upper: float, panels: int) -> float:
    """Composite Gauss-Legendre rule on ``[0, upper]`` with equal panels, in one call."""
    half = 0.5 * upper / panels
    r = (2.0 * np.arange(panels)[:, None] + 1.0 + _GL_NODES) * half
    return half * float(np.sum(integrand(r.reshape(-1)).reshape(r.shape) @ _GL_WEIGHTS))


def radial_l2_norm(coef: Callable, alpha: int, angular_weights: tuple[float, float]) -> float:
    """L^2 norm of a field with radial coefficient ``coef(r)``.

    Computes ``sqrt( int_0^inf r^{2 alpha} |coef|^2 (w_long * 4pi/3 +
    w_trans * 8pi/3) r^2 dr )`` by composite 16-point Gauss-Legendre
    quadrature on the probed support, doubling the panels until two levels
    agree to ``1e-9`` relative; raises QuadratureAccuracyError with the
    achieved tolerance if the last level still misses ``1e-8``, and with
    ``achieved = inf`` if the integrand or the result is not finite, or the
    integrand is still above its support cut at the probe's end r = 100.  An
    integrand that is zero on the whole probe reads 0.0 only if ``coef`` is
    exactly zero at 8,192 points out to r = 1e4 as well; a support wholly
    beyond r = 100, or a coefficient whose square underflows, raises with
    ``achieved = inf``.

    ``coef`` must accept a numpy array of radii.
    """
    cang = angular_weights[0] * SPHERE_LONG + angular_weights[1] * SPHERE_TRANS

    def integrand(r):
        return r ** (2 * alpha + 2) * np.abs(coef(r)) ** 2 * cang

    # Probe for the effective support so the rule works on a finite interval.
    probe = np.logspace(-6, np.log10(_PROBE_RMAX), 4096)
    vals = integrand(probe)
    if not np.all(np.isfinite(vals)):
        raise QuadratureAccuracyError("radial integrand is not finite", achieved=math.inf)
    peak = vals.max()
    if peak == 0.0:
        # Only a zero coefficient has norm 0; a nonzero or non-finite value
        # on the wider reach is a support the probe missed.
        reach = np.logspace(-6, np.log10(_ZERO_RMAX), 8192)
        with np.errstate(all="ignore"):
            missed = np.any(coef(reach) != 0.0)
        if missed:
            raise QuadratureAccuracyError(
                "radial integrand underflows on the support probe", achieved=math.inf
            )
        return 0.0
    above = np.nonzero(vals > peak * 1e-26)[0]
    if above[-1] == probe.size - 1:
        raise QuadratureAccuracyError("radial support runs past the probe", achieved=math.inf)
    upper = min(_PROBE_RMAX, probe[above[-1]] * 1.3)

    panels, err = 16, math.inf
    val = _gauss_legendre(integrand, upper, panels)
    while err > 0.1 * _EPSREL * val and panels < _GL_PANELS_MAX:
        panels *= 2
        prev, val = val, _gauss_legendre(integrand, upper, panels)
        err = abs(val - prev)
    # Written so that a NaN or infinite level also fails.
    if not (err <= _EPSREL * val and math.isfinite(val)):
        achieved = err / val if 0.0 < val < math.inf else math.inf
        raise QuadratureAccuracyError(
            f"radial quadrature reached relative error {achieved:.2e}", achieved=achieved
        )
    return float(np.sqrt(val))


# ---------------------------------------------------------------------------
# moment integrals I_n(q) = int_{-1}^{1} mu^n e^{i q mu} dmu


def _cs_tables(s: np.ndarray, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Moment tables at ``q = s[:, None] * r[None, :]`` for uniform ``r``.

    Fills the ``(nmax + 1, len(s), len(r))`` buffer ``out`` with
    ``J_n = C_n = int_0^1 mu^n cos(q mu) dmu`` for even n and ``J_n = S_n =
    int_0^1 mu^n sin(q mu) dmu`` for odd n (so ``I_n = 2 C_n`` or ``2i S_n``;
    this chain needs no other) and returns it.  Upward recursion for q >= 1
    (stable there; amplification n!/q^n stays modest for n <= 8), series below.
    """
    q = s[:, None] * r[None, :]
    # sin q and cos q by angle addition: r_j = r_{aB} + (r_b - r_0) for
    # j = aB + b, so only len(s) * (len(r) / B + B) angles reach sin and cos.
    B = min(_ANGLE_SPLIT, r.size)
    head, tail = s[:, None] * r[::B], s[:, None] * (r[:B] - r[0])
    sh, ch = np.sin(head)[:, :, None], np.cos(head)[:, :, None]
    st, ct = np.sin(tail)[:, None, :], np.cos(tail)[:, None, :]
    sq, cq = (x.reshape(s.size, -1)[:, : r.size] for x in (sh * ct + ch * st, ch * ct - sh * st))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.divide(1.0, q)  # inf at q = 0, which the series patch below overwrites
        np.multiply(sq, inv, out=out[0])
        for n in range(1, out.shape[0]):
            np.multiply(out[n - 1], n, out=out[n])
            if n % 2:
                out[n] -= cq  # S_n = (n C_{n-1} - cos q) / q
            else:
                np.subtract(sq, out[n], out=out[n])  # C_n = (sin q - n S_{n-1}) / q
            out[n] *= inv

    # Patch the small-q region with the power series (the recursion loses digits
    # there): J_n = sum_k (-1)^k q^m / (m! (m + n + 1)) over m = 2k + (n mod 2).
    i, j = np.divmod(np.flatnonzero(q < 1.0), r.size)
    if i.size:
        m, n = np.arange(24), np.arange(out.shape[0])[:, None]
        coef = (-1.0) ** (m // 2) / (np.cumprod(np.maximum(m, 1.0)) * (m + n + 1))
        out[:, i, j] = np.where(m % 2 == n % 2, coef, 0.0) @ q[i, j] ** m[:, None]
    return out


# ---------------------------------------------------------------------------
# axisymmetric field evaluation


@dataclass(frozen=True)
class AngularTerm:
    """One additive term ``psi_bank[psi] * angular(omega)`` of a field slot.

    ``angular(wx, wy, wz, gz)`` must be a polynomial in the direction
    components (complex coefficients allowed, e.g. i-factors of derivatives).
    The evaluation frame has its z-axis along the evaluation direction
    ``xhat`` (global polar angle theta, azimuth 0), and ``gz`` is the global
    z unit vector, the axis of the axisymmetric data, in its coordinates.
    """

    slot: int
    psi: int
    angular: Callable


def radial_grid(r_max: float, s_max: float) -> np.ndarray:
    """Uniform r grid on ``[0, r_max]`` for :func:`axisym_evaluate` up to radius ``s_max``.

    Takes ``ceil(r_max * s_max * 4 / (2 pi))`` intervals rounded up to an even
    count, and at least 800, so the step is ``h <= pi / (2 s_max)``: 4 points
    per cycle of ``e^{i r s}``.  That is the aliasing bound of the Simpson rule
    ``(4 T_h - T_2h) / 3``.  The integrand ``psi(r) r^2 J_n(s r)`` is smooth
    and even in r (a smooth field's ``psi`` has the parity of the moment
    orders n that its :func:`angular_fit` keeps) and negligible at
    ``r_max``, so the Euler-Maclaurin endpoint terms vanish and each
    trapezoid sum errs only by aliasing (Trefethen and Weideman, SIAM Review
    56, 2014).  ``T_2h`` takes its alias from radial distance
    ``pi / h - s >= s_max``, which lies outside the support that the caller
    builds ``s_max`` to cover.
    """
    intervals = math.ceil(r_max * s_max * _PTS_PER_CYCLE / (2.0 * math.pi))
    intervals += intervals % 2
    return np.linspace(0.0, r_max, max(intervals, 800) + 1)


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n (odd) uniformly spaced points."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of points >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _angular_coeffs(
    terms: Sequence[AngularTerm], thetas: np.ndarray, nmax: int
) -> tuple[np.ndarray, np.ndarray]:
    """Monomial coefficients in mu of each term's azimuthally integrated factor.

    Returns the coefficients, shape ``(len(thetas), len(terms), nmax + 2)``,
    and the fit's residual at the pole ``mu = 1``.  The phi trapezoid is exact
    for trig degree < _N_PHI.  The fit on ``nmax + 2`` Gauss nodes is exact
    interpolation: excess degree of the other parity than ``nmax`` shows in
    its top coefficient, and excess of the same parity, which the nodes alias
    into lower coefficients, in the pole residual (the node polynomial is 1
    there).
    """
    nodes, _ = np.polynomial.legendre.leggauss(nmax + 2)
    mu = np.append(nodes, 1.0)
    phi = (np.arange(_N_PHI) + 0.5) * (2.0 * np.pi / _N_PHI)
    sg = np.sqrt(1.0 - mu * mu)[:, None]
    wx, wy, wz = sg * np.cos(phi), sg * np.sin(phi), mu[:, None] * np.ones_like(phi)
    integ = np.empty((len(thetas), len(terms), mu.size), dtype=np.complex128)
    for it, th in enumerate(thetas):
        gz = (-np.sin(float(th)), 0.0, np.cos(float(th)))
        for jt, term in enumerate(terms):
            vals = np.broadcast_to(term.angular(wx, wy, wz, gz), wx.shape)
            integ[it, jt] = vals.sum(axis=1) * (2.0 * np.pi / _N_PHI)
    V = np.vander(nodes, nodes.size, increasing=True)
    fit = integ[..., :-1].reshape(-1, nodes.size).T
    coeff = np.linalg.solve(V, fit).T.reshape(*integ.shape[:2], nodes.size)
    return coeff, integ[..., -1] - coeff.sum(axis=-1)


@dataclass(frozen=True)
class AngularFit:
    """The angular terms of one field, fitted on a theta set by :func:`angular_fit`.

    ``weights[n, part, psi, slot, theta]`` is what slot ``slot`` at ``theta``
    takes from the real (part 0) or imaginary (part 1) moment ``n`` of the
    field's profile ``psi``, with ``I_n = 2 C_n`` (n even) or ``2i S_n``
    (n odd) and the transform's ``(2 pi)^{-3/2}`` folded in.
    """

    weights: np.ndarray

    @property
    def n_top(self) -> int:
        """Highest moment order the field takes."""
        return self.weights.shape[0] - 1

    @property
    def n_psi(self) -> int:
        """Radial profiles the field reads from the bank."""
        return self.weights.shape[2]


def angular_fit(
    terms: Sequence[AngularTerm], n_slots: int, thetas: np.ndarray, nmax: int = 6
) -> AngularFit:
    """Fit the angular terms of a field with ``n_slots`` slots at polar angles ``thetas``.

    Raises ValueError if an angular factor exceeds degree ``nmax``.  The
    field's profiles are ``psi = 0, ..., max(term.psi)``.
    """
    coeff, pole = _angular_coeffs(terms, thetas, nmax)
    scale = max(float(np.max(np.abs(coeff[..., :-1]))), 1e-300)
    if max(float(np.max(np.abs(coeff[..., -1]))), float(np.max(np.abs(pole)))) > 1e-9 * scale:
        raise ValueError("angular factor exceeds the configured polynomial degree")
    coeff = coeff[..., :-1] * (np.max(np.abs(coeff[..., :-1]), axis=(0, 1)) > 1e-14 * scale)
    n_top = int(max(np.flatnonzero(np.any(coeff, axis=(0, 1))), default=0))

    factor = np.where(np.arange(n_top + 1) % 2, 2.0j, 2.0) * (2.0 * np.pi) ** (-1.5)
    n_psi = max(term.psi for term in terms) + 1
    G = np.zeros((n_top + 1, 2, n_psi, n_slots, len(thetas)), dtype=np.complex128)
    for jt, term in enumerate(terms):
        G[:, 0, term.psi, term.slot] += factor[:, None] * coeff[:, jt, : n_top + 1].T
    G[:, 1] = 1j * G[:, 0]
    G.flags.writeable = False  # a fit may be cached and shared by many evaluations
    return AngularFit(G)


def axisym_evaluate(
    r: np.ndarray,
    psi_bank: Sequence[np.ndarray],
    fits: Sequence[AngularFit],
    s: np.ndarray,
    reduce: Callable[[int, np.ndarray], object] | None = None,
) -> list:
    """Evaluate fields ``F^{-1}[sum_j psi_j(|xi|) A_j(xi/|xi|)]`` on a polar grid.

    Field k has the angular fit ``fits[k]`` and reads the next
    ``fits[k].n_psi`` profiles of ``psi_bank``, in field order; one fit may
    serve several fields.  ``r`` must be uniform and increasing from ``r[0]
    >= 0`` with an odd point count (Simpson quadrature), and ``s >= 0`` with
    ``max(s) * dr <= pi / 2`` (see :func:`radial_grid`); OutOfDomainError
    otherwise.  The moment tables are swept once for the whole
    bank.  Then field k is contracted one slot at a time: each slot is a
    complex ``(len(s), len(thetas))`` array, its values at radius ``s`` and
    the fit's polar angles (components in the evaluation frame, so
    rotation-invariant reductions should be taken per point).
    ``reduce(k, slots)`` receives an iterator over the field's slots, each
    written into one buffer that the next slot overwrites, so a reduction
    keeps what it needs of a slot before it asks for the next.  Returns the
    list of ``reduce(k, slots)``, or without ``reduce`` of the fields
    themselves, complex arrays of shape ``(n_slots, len(s), len(thetas))``.
    """
    r, s = np.asarray(r, dtype=float), np.asarray(s, dtype=float)
    dr = r[1] - r[0]
    # Written so that NaN also fails; the slack absorbs linspace rounding.
    if not (r[0] >= 0.0 and dr > 0.0 and np.allclose(np.diff(r), dr, rtol=1e-9, atol=0.0)):
        raise OutOfDomainError("r must be uniform and increasing from r[0] >= 0")
    if not np.all(s >= 0.0):
        raise OutOfDomainError("s must be non-negative")
    if not np.max(s, initial=0.0) * dr <= 0.5 * math.pi * (1.0 + 1e-12):
        raise OutOfDomainError(
            f"max(s) * dr = {np.max(s) * dr:.6g} exceeds pi / 2: the r grid aliases (see radial_grid)"
        )
    ws = simpson_weights(r.size, dr) * r * r
    # Radial profiles with measure folded in, as real [Re | Im] columns: the
    # moment tables are real, so each moment is one real matmul.
    bank = np.stack([np.asarray(p, dtype=np.complex128) * ws for p in psi_bank])
    bank_ri = np.ascontiguousarray(np.concatenate([bank.real, bank.imag]).T)
    n_psi, n_read = bank.shape[0], sum(fit.n_psi for fit in fits)
    if n_read != n_psi:
        raise ValueError(f"the fits read {n_read} radial profiles, the bank holds {n_psi}")
    n_top = max(fit.n_top for fit in fits)

    # moments[n, b] = int [Re | Im] psi(r) r^2 J_n(s_b r) dr, s-block by s-block.
    moments = np.empty((n_top + 1, s.size, 2 * n_psi))
    rows = max(1, _BLOCK_ELEMENTS // r.size)
    work = np.empty((n_top + 1) * rows * r.size)
    for start in range(0, s.size, rows):
        sb = s[start : start + rows]
        J = work[: (n_top + 1) * sb.size * r.size].reshape(n_top + 1, sb.size, r.size)
        _cs_tables(sb, r, J)
        for c in range(0, 2 * n_psi, _MATMUL_COLUMNS):
            cols = slice(c, c + _MATMUL_COLUMNS)
            np.matmul(J, bank_ri[:, cols], out=moments[:, start : start + sb.size, cols])
    del work

    def slots(M: np.ndarray, weights: np.ndarray):
        """Each slot of one field in turn, written into one buffer that the next overwrites."""
        n_theta = weights.shape[-1]
        buf = np.empty((s.size, n_theta), dtype=np.complex128)
        for slot in range(weights.shape[-2]):
            yield np.matmul(M, weights[..., slot, :].reshape(-1, n_theta), out=buf)

    results, first = [], 0
    for k, fit in enumerate(fits):
        cols = np.arange(first, first + fit.n_psi)
        first += fit.n_psi
        # This field's moments as rows over s, columns over (n, Re | Im, psi).
        M = moments[: fit.n_top + 1][:, :, np.concatenate([cols, n_psi + cols])]
        M = M.transpose(1, 0, 2).reshape(s.size, -1)
        field_slots = slots(M, fit.weights)
        if reduce is None:
            results.append(np.array([slot.copy() for slot in field_slots]))
        else:
            results.append(reduce(k, field_slots))
        del M, field_slots
    return results


def axisym_magnitude(fields, slot_weights: np.ndarray) -> np.ndarray:
    """Pointwise weighted Frobenius magnitude over slots (rotation invariant).

    ``fields`` is a complex ``(n_slots, ...)`` array, or an iterable of its
    ``n_slots = len(slot_weights)`` slots read one at a time, such as the
    slots :func:`axisym_evaluate` hands a reduction.  Only the running sum
    ``sum_i w_i |slot_i|^2`` and one scratch slot are held; a weight of 1 is
    not multiplied in.
    """
    total = scratch = None
    for w, slot in zip(slot_weights, fields, strict=True):
        scratch = np.abs(slot, out=scratch)
        np.square(scratch, out=scratch)
        if w != 1.0:
            scratch *= w
        if total is None:
            total, scratch = scratch, None  # the first slot starts the sum
        else:
            total += scratch
    return np.sqrt(total, out=total)


def gauss_theta_rule(n: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule in cos(theta): nodes as angles, weights for dcos."""
    mu, w = np.polynomial.legendre.leggauss(n)
    return np.arccos(mu), w


def axisym_lp_norm(
    magnitude: np.ndarray, s: np.ndarray, theta_weights: np.ndarray, p: float
) -> float:
    """L^p norm of an axisymmetric scalar magnitude given on the polar grid.

    ``magnitude`` has shape (len(s), len(thetas)) with thetas from
    ``gauss_theta_rule``; the s-integral is trapezoidal (uniform grid).  The
    sup norm refines the discrete maximum with a parabola through its radial
    neighbours, removing the O(ds^2) sampling bias.
    """
    if np.isinf(p):
        flat = int(np.argmax(magnitude))
        i, j = np.unravel_index(flat, magnitude.shape)
        peak = float(magnitude[i, j])
        if 0 < i < magnitude.shape[0] - 1:
            lo, hi = float(magnitude[i - 1, j]), float(magnitude[i + 1, j])
            denom = lo - 2.0 * peak + hi
            if denom < 0.0:
                peak = peak - 0.125 * (hi - lo) ** 2 / denom
        return peak
    ang = magnitude**p @ theta_weights  # integral over dcos(theta)
    val = 2.0 * np.pi * np.trapezoid(ang * s * s, s)
    return float(val ** (1.0 / p))
