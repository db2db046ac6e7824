"""Forcing-moment, profile, and decay-measurement tests."""

import math

import numpy as np
import pytest

from conftest import centered_gaussian
from viscowave.asymptotics import (
    LinearSource,
    NormSpec,
    _l2_norm_from_mults,
    _profile_field,
    _profile_mults,
    decay_slope,
    expected_solution_slope,
    nonlinear_moment,
    profile_error_series,
)
from viscowave.elastic import LameParams
from viscowave.exceptions import UnsupportedNormError, WindowError
from viscowave.kernels import diffusion_hat
from viscowave.grid import VectorField, make_grid, transform, zero_field
from viscowave.solver import ContractionTensor, SolverConfig, Trajectory, evolve

LAME = LameParams(0.0, 1.0, 1.0)


class TestNonlinearMoment:
    @staticmethod
    def synthetic_trajectory(g, times, ghat0=2.0):
        # cached forcing: F(tau) = e^{-tau} * g with hat-g(0) fixed
        states = []
        cache = []
        from viscowave.elastic import ElasticState

        for t in times:
            z = transform(zero_field(g))
            states.append(ElasticState(z, z, float(t)))
            data = np.zeros((3, *g.shape), dtype=np.complex128)
            data[:, 0, 0, 0] = np.exp(-t) * ghat0 / (2.0 * np.pi) ** 1.5
            cache.append(VectorField(g, data, "spectral"))
        return Trajectory(times=np.asarray(times, float), states=states, nonlinearity_cache=cache)

    def test_zero_trajectory(self, grid16):
        times = np.linspace(0.0, 4.0, 9)
        traj = self.synthetic_trajectory(grid16, times, ghat0=0.0)
        m, tail = nonlinear_moment(traj, 4.0)
        assert np.all(m == 0.0) and tail == 0.0

    def test_closed_form_time_integral(self, grid16):
        times = np.linspace(0.0, 6.0, 241)
        traj = self.synthetic_trajectory(grid16, times, ghat0=3.0)
        m, _ = nonlinear_moment(traj, 6.0)
        assert m[0] == pytest.approx(3.0 * (1.0 - np.exp(-6.0)), rel=1e-8)

    def test_truncation_within_tail_bound(self):
        # trajectory with a genuine (1+t)^{-2} forcing integral
        g = make_grid(16, 16.0)
        times = np.linspace(0.0, 40.0, 401)
        states, cache = [], []
        from viscowave.elastic import ElasticState

        for t in times:
            z = transform(zero_field(g))
            states.append(ElasticState(z, z, float(t)))
            data = np.zeros((3, *g.shape), dtype=np.complex128)
            data[:, 0, 0, 0] = (1.0 + t) ** -2 / (2.0 * np.pi) ** 1.5
            cache.append(VectorField(g, data, "spectral"))
        traj = Trajectory(times=times, states=states, nonlinearity_cache=cache)
        m_half, tail_half = nonlinear_moment(traj, 20.0)
        m_full, _ = nonlinear_moment(traj, 40.0)
        assert np.linalg.norm(m_full - m_half) <= tail_half * np.sqrt(3.0)

    def test_range_error(self, grid16):
        traj = self.synthetic_trajectory(grid16, np.linspace(0, 2, 5))
        with pytest.raises(WindowError):
            nonlinear_moment(traj, 10.0)


class TestProfileHat:
    """Spectral profile coefficients on the lattice and the continuum path."""

    def test_zero_moments(self, grid16):
        out = _profile_field(grid16, 3.0, LAME, np.zeros(3), "G")
        assert np.all(out.data == 0.0)

    def test_equal_speed_collapse(self, grid16):
        # lambda + mu = 0: the projector terms cancel and G is scalar
        lame = LameParams(-1.0, 1.0, 1.0)
        m1 = np.array([0.3, -0.7, 1.1])
        out = _profile_field(grid16, 2.0, lame, m1, "G")
        vals, inv = grid16.unique_radii()
        g1 = diffusion_hat(2.0, vals, lame.trans_params, "G1")[inv]
        want = np.stack([g1 * ((2.0 * np.pi) ** -1.5 * m1)[a] for a in range(3)])
        assert np.max(np.abs(out.data - want)) < 1e-15

    @pytest.mark.parametrize("which", ["G", "H", "Gtilde"])
    def test_lattice_and_continuum_paths_agree(self, grid16, which):
        # Along xi parallel (perpendicular) to the moment, the lattice profile is
        # the longitudinal (transverse) radial coefficient of the continuum path.
        out = _profile_field(grid16, 2.0, LAME, [(2.0 * np.pi) ** 1.5, 0.0, 0.0], which)
        pl, pt = _profile_mults(LAME, LinearSource(ghat=np.ones_like), which)
        vals, inv = grid16.unique_radii()
        r = vals[inv[1:4, 0, 0]]  # the lattice radii |xi| of the modes compared
        np.testing.assert_allclose(out.data[0, 1:4, 0, 0], pl(2.0, r), rtol=1e-14)
        np.testing.assert_allclose(out.data[0, 0, 1:4, 0], pt(2.0, r), rtol=1e-14)

    def test_gradient_l2_slope(self):
        # || grad G(t) ||_2 decays like t^{-3/4} for data with mass
        src = LinearSource.gaussian(sigma=0.5)
        pl, pt = _profile_mults(LAME, src, "G")
        times = np.logspace(2, 4, 9)
        vals = [_l2_norm_from_mults(pl, pt, float(t), 1, 1.0) for t in times]
        rep = decay_slope(times, vals)
        assert rep.slope == pytest.approx(-0.75, abs=0.02)


class TestDecaySlope:
    def test_exact_power_law(self):
        t = np.logspace(0, 2, 12)
        rep = decay_slope(t, t**-2.0, expected=-2.0)
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
        with pytest.raises(ValueError):
            decay_slope(np.logspace(0, 2, 10), np.zeros(10))


class TestProfileErrorSeries:
    def test_profile_against_itself_is_zero(self):
        src = LinearSource.gaussian(sigma=0.5)
        pl, pt = _profile_mults(LAME, src, "G")
        zero_l = lambda t, r: pl(t, r) - pl(t, r)
        zero_t = lambda t, r: pt(t, r) - pt(t, r)
        assert _l2_norm_from_mults(zero_l, zero_t, 100.0, 1, 1.0) == 0.0

    def test_unsupported_norm(self):
        src = LinearSource.gaussian()
        with pytest.raises(UnsupportedNormError):
            profile_error_series(src, "G", NormSpec(0, 0, 2.0), np.logspace(2, 4, 9), lame=LAME)

    def test_l2_gain(self):
        src = LinearSource.gaussian(sigma=0.5)
        times = np.logspace(2, 4, 9)
        sol, err = profile_error_series(src, "G", NormSpec(2, 0, 2.0), times, lame=LAME)
        assert sol.slope == pytest.approx(expected_solution_slope(NormSpec(2, 0, 2.0)), abs=0.05)
        assert sol.slope - err.slope >= 0.35

    def test_trajectory_path_window_guard(self):
        g = make_grid(16, 16.0)
        f1 = centered_gaussian(g, sigma=0.8)
        cfg = SolverConfig(dt=0.5, t_end=3.0)
        traj = evolve(zero_field(g), f1, LAME, ContractionTensor.zero(), cfg)
        with pytest.raises(WindowError):
            # box-validity cap t <= L/(4 beta_long) ~ 2.8 leaves too few times
            profile_error_series(traj, "G", NormSpec(1, 0, 2.0),
                                 np.logspace(-1, 1, 9), lame=LAME)


def test_expected_slope_table():
    assert expected_solution_slope(NormSpec(1, 0, 2.0)) == pytest.approx(-0.75)
    assert expected_solution_slope(NormSpec(0, 0, math.inf)) == pytest.approx(-1.5)
    assert expected_solution_slope(NormSpec(2, 1, 4.0)) == pytest.approx(-2.375)
    assert expected_solution_slope(NormSpec(0, 2, 2.0)) == pytest.approx(-1.25)
