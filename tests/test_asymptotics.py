"""Profile and decay-measurement tests."""

import math
from functools import partial

import numpy as np
import pytest

from conftest import REPO_CONFIGS, traced_peak
from viscowave import radial
from viscowave.asymptotics import (
    _THETA_GAUSS,
    _THETA_W,
    LinearSource,
    NormSpec,
    _derivative_fit,
    _derivative_slots,
    _norms,
    _profile_fields,
    _profile_mults,
    _solution_mults,
    _xspace_grids,
    _xspace_norms,
    decay_slope,
    expected_solution_slope,
    line_fit,
    linear_norm,
    profile_error_norms,
    slope_ci95,
)
from viscowave.cli import _PROFILE_SET, _parse_config
from viscowave.elastic import LameParams
from viscowave.exceptions import (
    FitError,
    OutOfDomainError,
    UnsupportedNormError,
    WindowError,
)
from viscowave.kernels import diffusion_hat
from viscowave.radial import radial_l2_norm

LAME = LameParams(0.0, 1.0, 1.0)


class TestProfileHat:
    """Profile coefficients on the continuum path."""

    def test_zero_moments(self):
        r = np.linspace(0.0, 5.0, 11)
        for which in ("G", "H", "Gtilde"):
            pl, pt = _profile_mults(LAME, LinearSource(ghat=np.zeros_like), which)
            assert np.all(pl(3.0, r) == 0.0) and np.all(pt(3.0, r) == 0.0)

    def test_equal_speed_collapse(self):
        # lambda + mu = 0: both families share one speed, so G is scalar
        lame = LameParams(-1.0, 1.0, 1.0)
        src = LinearSource(ghat=lambda r: 0.7 * np.ones_like(r))
        r = np.linspace(0.0, 5.0, 101)
        pl, pt = _profile_mults(lame, src, "G")
        want = diffusion_hat(2.0, r, lame.trans_params, "G1") * 0.7
        assert np.max(np.abs(pl(2.0, r) - want)) < 1e-15
        assert np.max(np.abs(pt(2.0, r) - want)) < 1e-15

    def test_gradient_l2_slope(self):
        # || grad G(t) ||_2 decays like t^{-3/4} for data with mass
        src = LinearSource.gaussian(sigma=0.5)
        pl, pt = _profile_mults(LAME, src, "G")
        times = np.logspace(2, 4, 9)
        vals = [radial_l2_norm(partial(pl, t), partial(pt, t), 1) for t in times]
        rep = decay_slope(times, vals)
        assert rep.slope == pytest.approx(-0.75, abs=0.02)


class TestDecaySlope:
    def test_exact_power_law(self):
        t = np.logspace(0, 2, 12)
        rep = decay_slope(t, t**-2.0)
        assert rep.slope == pytest.approx(-2.0, abs=1e-12)
        assert rep.power_law_ok

    def test_log_correction_flagged(self):
        t = np.logspace(0, 3, 16)
        rep = decay_slope(t, (1.0 + np.log(t)) / t)
        assert not rep.power_law_ok
        assert rep.drift > 0.02

    def test_heat_kernel_slope(self):
        # || e^{t Lap} g ||_2 for a Gaussian: ((sigma^2 + 2t)/sigma^2)^{-3/4}-type scaling
        sigma = 1.0
        t = np.logspace(2, 4, 10)
        vals = (sigma**2 + 2.0 * t) ** -0.75
        rep = decay_slope(t, vals)
        assert rep.slope == pytest.approx(-0.75, abs=0.01)

    def test_window_and_domain_errors(self):
        with pytest.raises(WindowError):
            decay_slope(np.linspace(1, 2, 10), np.ones(10))
        with pytest.raises(WindowError):
            decay_slope(np.logspace(0, 2, 5), np.logspace(0, 2, 5) ** -1.0)
        with pytest.raises(FitError):
            decay_slope(np.logspace(0, 2, 10), np.zeros(10))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_is_fit_error(self, bad):
        t = np.logspace(2, 4, 9)
        vals = t**-0.75
        vals[4] = bad
        with pytest.raises(FitError):
            decay_slope(t, vals)
        with pytest.raises(FitError):
            decay_slope(np.where(t == t[4], bad, t), t**-0.75)


class TestLineFit:
    @pytest.mark.parametrize("n", [3, 5, 9, 25])
    def test_matches_linregress_and_t_quantile(self, n):
        # scipy.stats is the test-only oracle; the library fits with numpy alone
        from scipy import stats

        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(0.0, 10.0, n))
        y = -1.3 * x + 0.4 + 0.05 * rng.standard_normal(n)
        slope, intercept, stderr = line_fit(x, y)
        ref = stats.linregress(x, y)
        assert (slope, intercept, stderr) == (ref.slope, ref.intercept, ref.stderr)
        half_width = stats.t.ppf(0.975, n - 2) * ref.stderr
        assert abs(slope_ci95(stderr, n) - half_width) <= 64 * math.ulp(half_width)

    def test_t_quantile_matches_scipy(self):
        # the library's quantile is its own (Newton on the A&S 26.7.3-4 series);
        # scipy.stats is the test-only oracle, within 64 ulp for every dof to 200
        from scipy import stats

        for dof in range(1, 201):
            ref = stats.t.ppf(0.975, dof)
            assert abs(slope_ci95(1.0, dof + 2) - ref) <= 64 * math.ulp(ref), dof

    @pytest.mark.parametrize(
        "dof, closed_form",
        [
            # tan(0.475 pi), written as 1 / tan(0.025 pi): rounding 0.475 pi
            # first would move the tangent by about 20 ulp per ulp of angle
            (1, 1.0 / math.tan(0.025 * math.pi)),
            (2, 0.95 * math.sqrt(2.0 / 0.0975)),
        ],
        ids=["dof1", "dof2"],
    )
    def test_t_quantile_closed_forms(self, dof, closed_form):
        assert abs(slope_ci95(1.0, dof + 2) - closed_form) <= 4 * math.ulp(closed_form)


def _sup_lp_fields(src):
    """Every sup/L^p field the smoothing and profile-error suites measure."""
    norms = [(which, spec) for which, spec in _PROFILE_SET if spec.p != 2.0]
    return [
        (NormSpec(alpha, 0, math.inf), _solution_mults(LAME, src, 0)) for alpha in (0, 1)
    ] + _profile_fields(src, norms, LAME)


class TestSharedMomentPass:
    @pytest.mark.parametrize("t", [100.0, 1e4])
    def test_each_norm_matches_its_own_pass(self, t):
        src = LinearSource.gaussian(sigma=0.5)
        fields = _sup_lp_fields(src)
        assert {spec.p for spec, _ in fields} == {4.0, math.inf} and len(fields) == 14
        shared = _norms(fields, t, LAME, src)
        alone = [_norms([field], t, LAME, src)[0] for field in fields]
        np.testing.assert_allclose(shared, alone, rtol=1e-13, atol=0.0)


class TestStreamedSlots:
    """The sup/L^p pass reduces each field slot by slot, with the numbers of the whole field."""

    T = 1e4
    SMOOTHING = [NormSpec(0, 0, math.inf), NormSpec(1, 0, math.inf), NormSpec(0, 2, 2.0)]

    @staticmethod
    def _config(name):
        cfg = _parse_config(REPO_CONFIGS / f"{name}.ini")
        return cfg["lame"], LinearSource.gaussian(cfg["sigma"])

    @pytest.mark.parametrize("suite", ["smoothing", "profile-error"])
    def test_streamed_norms_equal_the_whole_field_reference(self, suite):
        lame, src = self._config(suite)
        if suite == "smoothing":
            fields = [(spec, _solution_mults(lame, src, spec.ell)) for spec in self.SMOOTHING]
        else:
            fields = _profile_fields(src, _PROFILE_SET, lame)
        fields = [field for field in fields if field[0].p != 2.0]
        got = _xspace_norms(fields, self.T, lame, src)

        # Reference: each field whole from the evaluator without a reduction.
        r, s = _xspace_grids(lame, src, self.T)
        bank = []
        for spec, (ml, mt) in fields:
            vl, vt = (np.asarray(m(self.T, r), dtype=np.complex128) for m in (ml, mt))
            bank += [r**spec.alpha * (vl - vt), r**spec.alpha * vt]
        fits = [_derivative_fit(spec.alpha) for spec, _ in fields]
        whole = radial.axisym_evaluate(r, bank, fits, s)
        want = []
        for (spec, _), slots in zip(fields, whole):
            weights = np.array([w for (_, _, w) in _derivative_slots(spec.alpha)])
            if not math.isinf(spec.p):
                slots = slots[:, :, : _THETA_GAUSS.size]
            mag = radial.axisym_magnitude(slots, weights)
            want.append(radial.axisym_lp_norm(mag, s, _THETA_W, spec.p))
        assert got == want

    def test_smoothing_norms_peak(self):
        lame, src = self._config("smoothing")
        linear_norm(lame, src, self.SMOOTHING, 100.0)  # the per-process angular fits
        # 10.7 MB measured; stacking every slot's squared magnitude took 21.5 MB.
        assert traced_peak(lambda: linear_norm(lame, src, self.SMOOTHING, self.T)) < 15e6


class TestRadialGridBound:
    """The r grid's 4 points per cycle of r * s, the Simpson aliasing bound, pinned from both sides."""

    SUPS = [NormSpec(0, 0, math.inf), NormSpec(1, 0, math.inf)]

    @staticmethod
    def _smoothing():
        cfg = _parse_config(REPO_CONFIGS / "smoothing.ini")
        return cfg["lame"], LinearSource.gaussian(cfg["sigma"])

    @pytest.mark.parametrize("t", [100.0, 1e4])
    def test_sups_match_sixteen_points_per_cycle(self, t, monkeypatch):
        lame, src = self._smoothing()
        sups = linear_norm(lame, src, self.SUPS, t)
        monkeypatch.setattr(radial, "_PTS_PER_CYCLE", 16.0)
        np.testing.assert_allclose(sups, linear_norm(lame, src, self.SUPS, t), rtol=1e-12, atol=0.0)

    def test_three_points_per_cycle_is_rejected(self, monkeypatch):
        lame, src = self._smoothing()
        monkeypatch.setattr(radial, "_PTS_PER_CYCLE", 3.0)
        with pytest.raises(OutOfDomainError, match="aliases"):
            linear_norm(lame, src, self.SUPS, 1e4)


class TestProfileErrorSeries:
    def test_profile_against_itself_is_zero(self):
        src = LinearSource.gaussian(sigma=0.5)
        pl, pt = _profile_mults(LAME, src, "G")
        zero_l = lambda r: pl(100.0, r) - pl(100.0, r)
        zero_t = lambda r: pt(100.0, r) - pt(100.0, r)
        assert radial_l2_norm(zero_l, zero_t, 1) == 0.0

    def test_unsupported_norm(self):
        src = LinearSource.gaussian()
        with pytest.raises(UnsupportedNormError):
            profile_error_norms(src, [("G", NormSpec(0, 0, 2.0))], 100.0, LAME)

    def test_l2_gain(self):
        src = LinearSource.gaussian(sigma=0.5)
        times = np.logspace(2, 4, 9)
        norms = [("G", NormSpec(2, 0, 2.0))]
        table = np.array([profile_error_norms(src, norms, float(t), LAME) for t in times])
        sol, err = decay_slope(times, table[:, 0]), decay_slope(times, table[:, 1])
        assert sol.slope == pytest.approx(expected_solution_slope(NormSpec(2, 0, 2.0)), abs=0.05)
        assert sol.slope - err.slope >= 0.35


def test_expected_slope_table():
    assert expected_solution_slope(NormSpec(1, 0, 2.0)) == pytest.approx(-0.75)
    assert expected_solution_slope(NormSpec(0, 0, math.inf)) == pytest.approx(-1.5)
    assert expected_solution_slope(NormSpec(2, 1, 4.0)) == pytest.approx(-2.375)
    assert expected_solution_slope(NormSpec(0, 2, 2.0)) == pytest.approx(-1.25)
