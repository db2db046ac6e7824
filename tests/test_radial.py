"""Radial quadrature and axisymmetric physical-space evaluation tests."""

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import centered_gaussian
from viscowave.asymptotics import LinearSource, _solution_mults
from viscowave.elastic import LameParams, default_cutoffs
from viscowave.exceptions import OutOfDomainError, QuadratureAccuracyError
from viscowave.grid import lp_norm, make_grid
from viscowave.kernels import kernel_hat
from viscowave.radial import (
    SPHERE_LONG,
    SPHERE_TRANS,
    AngularTerm,
    _cs_tables,
    angular_fit,
    axisym_evaluate,
    axisym_lp_norm,
    axisym_magnitude,
    gauss_theta_rule,
    radial_grid,
    radial_l2_norm,
)

LAME = LameParams(0.0, 1.0, 1.0)
# The radial profile itself, on the z axis: one slot, one profile.
_SCALAR_FIT = angular_fit([AngularTerm(0, 0, lambda wx, wy, wz, gz: np.ones_like(wx))], 1, np.zeros(1))


# The coefficient of a family the field does not have.
ZERO = np.zeros_like


def quad_reference(coef, alpha, cang, upper):
    """One family's norm, with sphere integral ``cang``, by adaptive scipy quad at a tight tolerance."""

    def integrand(r):
        r = np.array([r])
        return (r ** (2 * alpha + 2) * np.abs(coef(r)) ** 2)[0]

    val, err = quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-13, limit=20000)
    assert err < 1e-11 * val
    return np.sqrt(cang * val)


class TestRadialL2:
    def test_gaussian_analytic(self):
        # coef(r) = e^{-r^2/2}: integral = c_ang * int r^2 e^{-r^2} dr
        gauss = lambda r: np.exp(-0.5 * r * r)
        val = radial_l2_norm(gauss, ZERO, 0)
        exact = np.sqrt(SPHERE_LONG * np.sqrt(np.pi) / 4.0)
        assert val == pytest.approx(exact, rel=1e-8)
        # both families: the sphere integrals add to 4 pi
        both = radial_l2_norm(gauss, gauss, 0)
        assert both == pytest.approx(np.sqrt(4.0 * np.pi * np.sqrt(np.pi) / 4.0), rel=1e-8)

    def test_angular_constants_against_sphere_quadrature(self):
        # c_par = int (w.e)^2 dOmega, c_perp = int |e - (w.e)w|^2 dOmega
        c_par = 2.0 * np.pi * quad(lambda mu: mu * mu, -1, 1)[0]
        c_perp = 2.0 * np.pi * quad(lambda mu: 1.0 - mu * mu, -1, 1)[0]
        assert SPHERE_LONG == pytest.approx(c_par, rel=1e-12)
        assert SPHERE_TRANS == pytest.approx(c_perp, rel=1e-12)

    def test_heat_multiplier_monotone_in_time(self):
        h = lambda r: np.exp(-0.25 * r * r)
        vals = []
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            coef = lambda r, t=t: np.exp(-r * r * t) * h(r)
            vals.append(radial_l2_norm(coef, coef, 0))
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_agrees_with_grid_norm(self):
        # band-limited radial data measured both ways
        g = make_grid(48, 24.0)
        sigma = 1.0
        fld = centered_gaussian(g, sigma=sigma, components=(1.0, 0.0, 0.0))
        grid_val = lp_norm(g, fld.data, 2)
        c = (2.0 * np.pi) ** (-1.5)
        ghat = lambda r: c * np.exp(-0.5 * (sigma * r) ** 2)
        # one component along e1: |P e|^2 + |(I-P) e|^2 = 1 on the sphere
        val = radial_l2_norm(ghat, ghat, 0)
        assert val == pytest.approx(grid_val, rel=1e-5)

    def test_smoothing_integrand_matches_tight_quad(self):
        # the smoothing suite's ell = 2 L^2 norm at its last time, t = 1e4
        ml, mt = _solution_mults(LAME, LinearSource.gaussian(sigma=0.5), 2)
        parts = []
        for family, (mult, cang) in enumerate(((ml, SPHERE_LONG), (mt, SPHERE_TRANS))):
            coef = lambda r, mult=mult: mult(1e4, r)
            calls = []

            def counted(r, coef=coef):
                calls.append(r.size)
                return coef(r)

            pair = [ZERO, ZERO]
            pair[family] = counted
            parts.append(quad_reference(coef, 0, cang, 0.2))
            assert radial_l2_norm(*pair, 0) == pytest.approx(parts[-1], rel=1e-9)
            assert len(calls) <= 20  # support probe plus a few vectorised levels
        # both families in one call add as hypot
        both = radial_l2_norm(lambda r: ml(1e4, r), lambda r: mt(1e4, r), 0)
        assert both == pytest.approx(np.hypot(*parts), rel=1e-9)

    def test_banded_integrand_matches_tight_quad(self):
        # the audit suite's high-band K1 norm
        cutoff = default_cutoffs(LAME)
        ghat = lambda r: np.exp(-((r - 2.2 * cutoff.c1) ** 2))
        coef = lambda r: kernel_hat(3.0, r, LAME.long_params, "K1") * cutoff.chi("H", r) * ghat(r)
        val = radial_l2_norm(coef, ZERO, 0)
        ref = quad_reference(coef, 0, SPHERE_LONG, 2.2 * cutoff.c1 + 8.0)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_unresolvable_integrand_reports_achieved_error(self):
        square_wave = lambda r: (1.0 + np.sign(np.sin(1e4 * r))) * np.exp(-r * r)
        with pytest.raises(QuadratureAccuracyError) as info:
            radial_l2_norm(square_wave, ZERO, 0)
        assert 1e-8 < info.value.achieved < 1.0

    def test_support_past_the_probe_end_is_rejected(self):
        # The integrand peaks at r = 99 and is still e^-2 of its peak at the
        # probe's end r = 100; clipping there would read 1.2% low.
        with pytest.raises(QuadratureAccuracyError) as info:
            radial_l2_norm(lambda r: np.exp(-((r - 99.0) ** 2)), ZERO, 0)
        assert info.value.achieved == np.inf

    def test_support_wholly_past_the_probe_is_rejected(self):
        # The integrand underflows on every probe point (r <= 100), so it
        # looked like a zero coefficient and read 0.0.
        with pytest.raises(QuadratureAccuracyError) as info:
            radial_l2_norm(lambda r: np.exp(-((r - 200.0) ** 2)), ZERO, 0)
        assert info.value.achieved == np.inf

    @pytest.mark.parametrize("zero", [lambda r: np.zeros_like(r), lambda r: 0.0 * np.exp(-r)])
    def test_zero_coefficient_reads_zero(self, zero):
        assert radial_l2_norm(zero, zero, 0) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_integrand_at_the_probe(self, bad):
        # The support probe itself meets a non-finite value.
        coef = lambda r: np.where(r > 1.0, bad, 1.0) * np.exp(-r)
        with pytest.raises(QuadratureAccuracyError) as info:
            radial_l2_norm(coef, ZERO, 0)
        assert info.value.achieved == np.inf

    def test_non_finite_integrand_at_the_nodes_only(self):
        # Finite on the support probe (the first call), NaN at every quadrature node.
        calls = []

        def coef(r):
            calls.append(r.size)
            return (np.ones_like(r) if len(calls) == 1 else np.full_like(r, np.nan)) * np.exp(-r * r)

        with pytest.raises(QuadratureAccuracyError) as info:
            radial_l2_norm(coef, ZERO, 0)
        assert info.value.achieved == np.inf and len(calls) >= 2


class TestMomentTables:
    def test_against_mu_quadrature(self):
        # J_n = int_0^1 mu^n cos(q mu) dmu (n even), int_0^1 mu^n sin(q mu) dmu (n odd),
        # on both sides of the series / recursion switch at q = 1
        qs = np.array([0.0, 1e-8, 0.5, 0.999, 1.0, 1.001, 5.0, 3e4])
        J = _cs_tables(qs, np.array([1.0]), np.empty((9, qs.size, 1)))[:, :, 0]
        x, w = np.polynomial.legendre.leggauss(64)
        panels = 4096
        mu = ((np.arange(panels) + 0.5)[:, None] + 0.5 * x) / panels
        wt = np.broadcast_to(0.5 * w / panels, mu.shape).ravel()
        mu = mu.ravel()
        for n in range(9):
            f = np.cos if n % 2 == 0 else np.sin
            ref = (wt * mu**n * f(qs[:, None] * mu)).sum(axis=1)
            np.testing.assert_allclose(J[n], ref, rtol=1e-10, atol=1e-15)

    def test_angle_addition_matches_direct_outer_product(self):
        # s (x) r through the sin/cos split equals the same q values fed one by one
        s = np.array([0.0, 0.3, 7.0, 2.0e3])
        r = np.linspace(0.0, 2.0, 201)
        split = _cs_tables(s, r, np.empty((5, s.size, r.size)))
        q = (s[:, None] * r).ravel()
        direct = _cs_tables(q, np.array([1.0]), np.empty((5, q.size, 1)))
        np.testing.assert_allclose(split.reshape(5, -1), direct.reshape(5, -1), rtol=0, atol=1e-12)


class TestAxisymEvaluator:
    def test_gaussian_identity_structure(self):
        r = np.linspace(0, 12, 1601)
        psi = [np.exp(-0.5 * r * r)]
        terms = [AngularTerm(0, 0, lambda wx, wy, wz, gz: np.ones_like(wx))]
        s = np.linspace(0, 6, 61)
        (out,) = axisym_evaluate(r, psi, [angular_fit(terms, 1, np.array([0.0, 0.9]))], s)
        exact = np.exp(-0.5 * s * s)
        assert np.max(np.abs(out[0] - exact[:, None])) < 1e-12

    def test_rank_one_derivative_structure(self):
        # F^{-1}[i xi_3 e^{-r^2/2}] = d_3 e^{-|x|^2/2} = -x_3 e^{-|x|^2/2}
        r = np.linspace(0, 12, 1601)
        psi = [r * np.exp(-0.5 * r * r)]
        terms = [
            AngularTerm(
                0, 0, lambda wx, wy, wz, gz: 1j * (wx * gz[0] + wy * gz[1] + wz * gz[2])
            )
        ]
        s = np.linspace(0, 6, 61)
        thetas = np.array([0.0, 1.1, 2.3])
        (out,) = axisym_evaluate(r, psi, [angular_fit(terms, 1, thetas)], s)
        x3 = s[:, None] * np.cos(thetas)[None, :]
        assert np.max(np.abs(out[0] + x3 * np.exp(-0.5 * s * s)[:, None])) < 1e-12

    def test_rank_two_projector_structure(self):
        # F^{-1}[xi_3^2 e^{-r^2/2}] = (1 - x_3^2) e^{-|x|^2/2}
        r = np.linspace(0, 12, 1601)
        psi = [r * r * np.exp(-0.5 * r * r)]
        terms = [
            AngularTerm(
                0, 0, lambda wx, wy, wz, gz: (wx * gz[0] + wy * gz[1] + wz * gz[2]) ** 2
            )
        ]
        s = np.linspace(0, 6, 61)
        thetas = np.array([0.3, 1.4])
        (out,) = axisym_evaluate(r, psi, [angular_fit(terms, 1, thetas)], s)
        x3 = s[:, None] * np.cos(thetas)[None, :]
        exact = (1.0 - x3**2) * np.exp(-0.5 * s * s)[:, None]
        assert np.max(np.abs(out[0] - exact)) < 1e-12

    def test_blocks_are_independent(self):
        # 1601 radii give 40-row s-blocks; the cut at 37 falls inside one
        r = np.linspace(0, 12, 1601)
        psi = [r * np.exp(-0.5 * r * r), np.exp(-0.5 * r * r)]
        terms = [
            AngularTerm(0, 0, lambda wx, wy, wz, gz: 1j * (wx * gz[0] + wz * gz[2])),
            AngularTerm(1, 1, lambda wx, wy, wz, gz: np.ones_like(wx)),
        ]
        s = np.linspace(0, 6, 101)
        thetas = np.array([0.2, 1.3])
        fit = angular_fit(terms, 2, thetas)
        (whole,) = axisym_evaluate(r, psi, [fit], s)
        parts = [axisym_evaluate(r, psi, [fit], piece)[0] for piece in (s[:37], s[37:])]
        np.testing.assert_allclose(
            np.concatenate(parts, axis=1), whole, rtol=0, atol=1e-14 * np.max(np.abs(whole))
        )

    def test_reduction_takes_the_slots_one_at_a_time(self):
        r = np.linspace(0, 12, 1601)
        psi = [r * np.exp(-0.5 * r * r), np.exp(-0.5 * r * r)]
        terms = [
            AngularTerm(0, 0, lambda wx, wy, wz, gz: 1j * (wx * gz[0] + wz * gz[2])),
            AngularTerm(1, 1, lambda wx, wy, wz, gz: np.ones_like(wx)),
        ]
        fit = angular_fit(terms, 2, np.array([0.2, 1.3]))
        s = np.linspace(0, 6, 101)
        (whole,) = axisym_evaluate(r, psi, [fit], s)
        seen, buffers = [], set()

        def reduce(k, slots):
            for slot in slots:
                seen.append(slot.copy())
                buffers.add(slot.ctypes.data)
            return k

        assert axisym_evaluate(r, psi, [fit], s, reduce=reduce) == [0]
        assert len(seen) == 2 and all(np.array_equal(a, b) for a, b in zip(seen, whole))
        assert len(buffers) == 1  # each slot overwrites the last

    def test_magnitude_of_streamed_slots_is_the_whole_fields(self):
        rng = np.random.default_rng(3)
        fields = rng.standard_normal((3, 40, 9)) + 1j * rng.standard_normal((3, 40, 9))
        weights = np.array([1.0, 2.0, 0.5])
        for part in (fields, fields[:, :, :5]):
            ref = np.sqrt(np.tensordot(weights, np.abs(part) ** 2, axes=(0, 0)))
            assert np.array_equal(axisym_magnitude(part, weights), ref)
            assert np.array_equal(axisym_magnitude(iter(part), weights), ref)

    @pytest.mark.parametrize(
        "s",
        [-np.linspace(0, 6, 61), np.linspace(-0.1, 6, 62), np.array([0.0, np.nan, 1.0])],
        ids=["negated", "one-negative", "nan"],
    )
    def test_negative_s_is_rejected(self, s):
        r = np.linspace(0, 12, 1601)
        with pytest.raises(OutOfDomainError, match="non-negative"):
            axisym_evaluate(r, [np.exp(-0.5 * r * r)], [_SCALAR_FIT], s)

    @pytest.mark.parametrize(
        "r",
        [
            np.linspace(0, 12**0.5, 1601) ** 2,
            np.linspace(0, 12, 1601)[::-1],
            np.linspace(-1, 11, 1601),
            np.linspace(0, 12, 1601) * np.where(np.arange(1601) == 800, 1.0 + 1e-6, 1.0),
        ],
        ids=["non-uniform", "reversed", "negative-start", "one-perturbed-radius"],
    )
    def test_non_uniform_r_is_rejected(self, r):
        with pytest.raises(OutOfDomainError, match="uniform"):
            axisym_evaluate(r, [np.exp(-0.5 * r * r)], [_SCALAR_FIT], np.linspace(0, 6, 61))

    def test_s_past_the_aliasing_bound_is_rejected(self):
        # dr = 12 / 1600, so max(s) may reach pi / (2 dr) = 209.4 and no further
        r = np.linspace(0, 12, 1601)
        psi = [np.exp(-0.5 * r * r)]
        s_top = 0.5 * np.pi / (r[1] - r[0])
        (out,) = axisym_evaluate(r, psi, [_SCALAR_FIT], np.linspace(0, s_top, 11))
        assert np.all(np.isfinite(out))
        with pytest.raises(OutOfDomainError, match="exceeds pi / 2"):
            axisym_evaluate(r, psi, [_SCALAR_FIT], np.linspace(0, s_top * (1.0 + 1e-9), 11))

    @pytest.mark.parametrize("r_max, s_max", [(12.0, 6.0), (10.0, 876.5 * np.pi / 20.0), (3.7, 1e3)])
    def test_radial_grid_meets_the_bound(self, r_max, s_max):
        # the second case needs 876.5 intervals: rounding down to 876 would miss the bound
        r = radial_grid(r_max, s_max)
        assert r.size % 2 == 1 and r.size >= 801 and r[-1] == r_max
        assert s_max * (r[1] - r[0]) <= 0.5 * np.pi * (1.0 + 1e-12)

    def test_degree_overflow_is_rejected(self):
        terms = [AngularTerm(0, 0, lambda wx, wy, wz, gz: (wx * gz[0] + wz * gz[2]) ** 3)]
        with pytest.raises(ValueError, match="polynomial degree"):
            angular_fit(terms, 1, np.array([0.4]), nmax=2)

    @pytest.mark.parametrize("degree", [4, 5, 6])
    def test_higher_degree_overflow_is_rejected(self, degree):
        # Degree 4 and 6 have the parity of nmax = 2: the Gauss-node fit aliases
        # them into lower coefficients, and only the pole residual shows them.
        ang = lambda wx, wy, wz, gz: (wx * gz[0] + wz * gz[2]) ** degree
        with pytest.raises(ValueError, match="polynomial degree"):
            angular_fit([AngularTerm(0, 0, ang)], 1, np.array([0.4]), nmax=2)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_degree_within_the_fit_is_accepted(self, degree):
        r = np.linspace(0, 12, 401)
        ang = lambda wx, wy, wz, gz: (wx * gz[0] + wz * gz[2]) ** degree
        fit = angular_fit([AngularTerm(0, 0, ang)], 1, np.array([0.4, 1.9]), nmax=2)
        (out,) = axisym_evaluate(r, [np.exp(-0.5 * r * r)], [fit], r[:11])
        assert np.all(np.isfinite(out))

    def test_lp_norms_match_analytic_gaussian(self):
        r = np.linspace(0, 12, 2401)
        psi = [np.exp(-0.5 * r * r)]
        terms = [AngularTerm(0, 0, lambda wx, wy, wz, gz: np.ones_like(wx))]
        thetas, tw = gauss_theta_rule(16)
        s = np.linspace(0, 10, 1201)
        (out,) = axisym_evaluate(r, psi, [angular_fit(terms, 1, thetas)], s)
        mag = axisym_magnitude(out, np.ones(1))
        assert axisym_lp_norm(mag, s, tw, 2.0) == pytest.approx(np.pi**0.75, rel=1e-8)
        assert axisym_lp_norm(mag, s, tw, np.inf) == pytest.approx(1.0, rel=1e-10)
        exact4 = (np.pi / 2.0) ** 0.375  # (int e^{-2|x|^2} dx)^{1/4}
        assert axisym_lp_norm(mag, s, tw, 4.0) == pytest.approx(exact4, rel=1e-8)
