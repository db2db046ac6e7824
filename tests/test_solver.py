"""Nonlinearity, time marching, fixed-point iteration, and weighted norms."""

import numpy as np
import pytest

from conftest import band_limited_random, centered_gaussian
from viscowave.elastic import LameParams, Propagator, linear_propagate
from viscowave.exceptions import DivergenceError, NoContractionError
from viscowave.grid import (
    VectorField,
    hermitian_defect,
    make_grid,
    transform,
    zero_field,
)
from viscowave.solver import (
    ContractionTensor,
    SolverConfig,
    _duhamel_stream,
    evolve,
    nonlinearity,
    picard_iterate,
    x1_data_seminorm,
    x1_distance,
    x1_norm,
)

LAME = LameParams(0.0, 1.0, 1.0)


def small_data(grid, target=1e-3, sigma=0.8):
    f0 = centered_gaussian(grid, sigma=sigma)
    f1 = centered_gaussian(grid, sigma=sigma)
    scale = target / x1_data_seminorm(f0, f1)
    return (
        VectorField(grid, scale * f0.data, "physical"),
        VectorField(grid, scale * f1.data, "physical"),
    )


def with_one_nan(fld):
    data = fld.data.copy()
    data[0, 3, 4, 5] = np.nan
    return VectorField(fld.grid, data, fld.space)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.5, "t_end": 0.0},
            {"dt": 0.5, "t_end": -2.0},
            {"dt": 0.7, "t_end": 1.0},
            {"dt": 1.0, "t_end": 0.4},
            {"dt": 0.5, "t_end": 2.0, "picard_max_iter": 0},
            {"dt": 0.0, "t_end": 2.0},
            {"dt": 0.5, "t_end": 2.0, "picard_tol": 0.0},
        ],
    )
    def test_rejects_unusable_settings(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_whole_step_count_up_to_rounding(self):
        assert SolverConfig(dt=0.1, t_end=4.0).n_steps == 40
        assert SolverConfig(dt=0.4, t_end=4.0).n_steps == 10
        assert SolverConfig(dt=1.25, t_end=25.0, picard_max_iter=1).n_steps == 20


class TestNonlinearity:
    def test_zero(self, grid16):
        out = nonlinearity(zero_field(grid16), ContractionTensor.default())
        assert np.all(out.data == 0.0)

    def test_quadratic_homogeneity(self, grid16):
        u = centered_gaussian(grid16, sigma=1.2)
        f1 = nonlinearity(u, ContractionTensor.default())
        u2 = VectorField(grid16, 2.0 * u.data, "physical")
        f2 = nonlinearity(u2, ContractionTensor.default())
        scale = np.max(np.abs(f2.data))
        assert np.max(np.abs(f2.data - 4.0 * f1.data)) <= 1e-13 * scale

    def test_single_mode_trig_expansion(self):
        # u = eps sin(x1) e1: F_k = (d1 u1)(d1 d1 u_k) = -eps^2 sin cos = -eps^2 sin(2 x1)/2
        g = make_grid(16, 2.0 * np.pi)
        eps = 0.3
        x = g.x_component(0)
        data = np.zeros((3, *g.shape))
        data[0] = eps * np.sin(x) * np.ones(g.shape)
        u = VectorField(g, data, "physical")
        out = nonlinearity(u, ContractionTensor.default(), dealias_rule="none")
        expected = -0.5 * eps * eps * np.sin(2.0 * x) * np.ones(g.shape)
        assert np.max(np.abs(out.data[0] - expected)) <= 1e-12
        assert np.max(np.abs(out.data[1])) <= 1e-13
        assert np.max(np.abs(out.data[2])) <= 1e-13

    def test_dealias_matches_truncated_convolution(self):
        # Retained-band input (|k| <= 2 on an 8-point axis) whose quadratic
        # product reaches |k| = 4 and aliases; the masked output must equal
        # the exact convolution on the retained modes.  The oracle is the
        # alias-free product computed by direct coefficient convolution.
        g = make_grid(8, 2.0 * np.pi)
        x = g.x_component(0)
        profile = np.sin(2.0 * x) + 0.5 * np.sin(x) + 0.25 * np.cos(2.0 * x)
        data = np.zeros((3, *g.shape))
        data[0] = profile * np.ones(g.shape)
        u = VectorField(g, data, "physical")
        out = transform(nonlinearity(u, ContractionTensor.default(), dealias_rule="2/3"))

        k1 = np.rint(g.xi1).astype(int)

        def coeff(arr, k):
            return arr[int(np.argwhere(k1 == k)[0][0]), 0, 0]

        uh = transform(u)
        a = {k: 1j * k * coeff(uh.data[0], k) for k in range(-2, 3)}  # d1 u1
        b = {k: -float(k * k) * coeff(uh.data[0], k) for k in range(-2, 3)}  # d1^2 u1
        conv = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                conv[ka + kb] = conv.get(ka + kb, 0.0) + va * vb
        # physical product -> coefficient convolution carries 1/(h^3 (2 pi)^{-3/2} n^3)
        scale = 1.0 / (g.spacing**3 * (2.0 * np.pi) ** (-1.5) * g.n**3)
        kmax = g.n // 3
        for k in range(-kmax, kmax + 1):
            got = coeff(out.data[0], k)
            want = scale * conv.get(k, 0.0)
            assert abs(got - want) <= 1e-12
        # masked modes vanish (up to the round trip through physical space)
        assert abs(coeff(out.data[0], 3)) <= 1e-14

    def test_diagonal_tensor_variant(self, grid16):
        u = centered_gaussian(grid16)
        out = nonlinearity(u, ContractionTensor.diagonal())
        assert np.isfinite(out.data).all()


class TestEvolve:
    def test_zero_data(self, grid16):
        cfg = SolverConfig(dt=0.5, t_end=2.0)
        traj = evolve(zero_field(grid16), zero_field(grid16), LAME, ContractionTensor.default(), cfg)
        assert all(np.all(st.displacement_hat.data == 0.0) for st in traj.states)

    def test_zero_tensor_matches_propagator(self, grid16):
        f0, f1 = small_data(grid16)
        cfg = SolverConfig(dt=0.5, t_end=4.0)
        traj = evolve(f0, f1, LAME, ContractionTensor.zero(), cfg)
        ref = linear_propagate(transform(f0), transform(f1), 4.0, LAME)
        scale = max(np.max(np.abs(ref.displacement_hat.data)), 1e-300)
        diff = np.max(np.abs(traj.states[-1].displacement_hat.data - ref.displacement_hat.data))
        assert diff <= 1e-10 * scale

    def test_step_halving_order(self):
        # effective order >= 3: halving dt shrinks the self-difference by >= 8
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=3e-2)
        tensor = ContractionTensor.default()
        ends = {}
        for dt in (0.4, 0.2, 0.1):
            cfg = SolverConfig(dt=dt, t_end=4.0)
            traj = evolve(f0, f1, LAME, tensor, cfg)
            ends[dt] = traj.states[-1].displacement_hat.data.copy()
        lin = linear_propagate(transform(f0), transform(f1), 4.0, LAME)
        nl_size = np.max(np.abs(ends[0.1] - lin.displacement_hat.data))
        e1 = np.max(np.abs(ends[0.4] - ends[0.2]))
        e2 = np.max(np.abs(ends[0.2] - ends[0.1]))
        assert nl_size > 0  # the nonlinearity actually contributed
        assert e1 / e2 >= 8.0

    def test_reality_preserved(self, grid16):
        f0, f1 = small_data(grid16, target=1e-2)
        cfg = SolverConfig(dt=0.5, t_end=3.0)
        traj = evolve(f0, f1, LAME, ContractionTensor.default(), cfg)
        assert hermitian_defect(traj.states[-1].displacement_hat) < 1e-12

    def test_blowup_guard(self):
        g = make_grid(16, 16.0)
        f0 = centered_gaussian(g, sigma=0.8)
        big = VectorField(g, 5e3 * f0.data, "physical")
        cfg = SolverConfig(dt=0.5, t_end=20.0)
        with pytest.raises(DivergenceError):
            evolve(big, big, LAME, ContractionTensor.default(), cfg)

    def test_nan_data_raises(self, grid16):
        f0, f1 = small_data(grid16)
        cfg = SolverConfig(dt=0.5, t_end=2.0)
        with pytest.raises(DivergenceError):
            evolve(with_one_nan(f0), f1, LAME, ContractionTensor.default(), cfg)

    def test_bounded_small_data_long_run(self):
        # running weighted norm stays below twice its early-segment value
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg = SolverConfig(dt=0.5, t_end=50.0)
        traj = evolve(f0, f1, LAME, ContractionTensor.default(), cfg)
        from viscowave.solver import _x1_integrand

        vals = [
            _x1_integrand(float(t), st.displacement_hat, st.velocity_hat)
            for t, st in zip(traj.times, traj.states)
        ]
        early = max(vals[:11])
        assert max(vals) <= 2.0 * early


class TestX1Norm:
    def test_zero(self, grid16):
        cfg = SolverConfig(dt=1.0, t_end=2.0)
        traj = evolve(zero_field(grid16), zero_field(grid16), LAME, ContractionTensor.zero(), cfg)
        assert x1_norm(traj) == 0.0

    def test_homogeneity(self, grid16):
        f0, f1 = small_data(grid16)
        cfg = SolverConfig(dt=0.5, t_end=3.0)
        traj1 = evolve(f0, f1, LAME, ContractionTensor.zero(), cfg)
        traj3 = evolve(
            VectorField(grid16, 3.0 * f0.data, "physical"),
            VectorField(grid16, 3.0 * f1.data, "physical"),
            LAME,
            ContractionTensor.zero(),
            cfg,
        )
        assert x1_norm(traj3) == pytest.approx(3.0 * x1_norm(traj1), rel=1e-12)

    def test_grid_refinement_stability(self):
        # homogeneous-solution X1 value stable between n=48 and n=64
        vals = {}
        for n in (48, 64):
            g = make_grid(n, 16.0)
            f0 = centered_gaussian(g, sigma=0.8)
            f1 = centered_gaussian(g, sigma=0.8)
            cfg = SolverConfig(dt=1.0, t_end=8.0)
            traj = evolve(f0, f1, LAME, ContractionTensor.zero(), cfg)
            vals[n] = x1_norm(traj)
        assert abs(vals[64] - vals[48]) <= 0.02 * vals[64]


class TestPicard:
    def test_small_data_contracts_and_matches_evolve(self):
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg = SolverConfig(dt=1.0, t_end=8.0, picard_tol=1e-16, picard_max_iter=10)
        traj_p, history = picard_iterate(f0, f1, LAME, ContractionTensor.default(), cfg)
        ratios = [h["ratio"] for h in history if h["ratio"] is not None]
        assert ratios and max(ratios) <= 0.5
        traj_e = evolve(f0, f1, LAME, ContractionTensor.default(), cfg)
        assert x1_distance(traj_e, traj_p) <= 5.0 * 1e-12  # far below even a tight tol

    def test_starting_iterate_is_homogeneous_solution(self):
        # With a vanishing contraction tensor every sweep is a no-op, so the
        # starting iterate (the homogeneous solution) is also the fixed point.
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg = SolverConfig(dt=1.0, t_end=4.0, picard_tol=1e-30, picard_max_iter=2)
        traj_p, history = picard_iterate(f0, f1, LAME, ContractionTensor.zero(), cfg)
        assert history[0]["distance"] == 0.0
        ref = linear_propagate(transform(f0), transform(f1), 4.0, LAME)
        scale = np.max(np.abs(ref.displacement_hat.data))
        diff = np.max(np.abs(traj_p.states[-1].displacement_hat.data - ref.displacement_hat.data))
        assert diff <= 1e-12 * scale

    def test_first_sweep_measures_forcing_increment(self):
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg = SolverConfig(dt=1.0, t_end=4.0, picard_max_iter=1, picard_tol=1e-30)
        _, history = picard_iterate(f0, f1, LAME, ContractionTensor.default(), cfg)
        assert history[0]["iteration"] == 1
        assert history[0]["distance"] > 0

    def test_history_flags_convergence(self):
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg = SolverConfig(dt=1.0, t_end=4.0, picard_tol=1e-30, picard_max_iter=2)
        _, history = picard_iterate(f0, f1, LAME, ContractionTensor.default(), cfg)
        assert [h["converged"] for h in history] == [False, False]
        cfg = SolverConfig(dt=1.0, t_end=4.0, picard_tol=1e-9, picard_max_iter=10)
        _, history = picard_iterate(f0, f1, LAME, ContractionTensor.default(), cfg)
        assert history[-1]["converged"] and not any(h["converged"] for h in history[:-1])

    def test_nan_data_raises(self, grid16):
        f0, f1 = small_data(grid16)
        cfg = SolverConfig(dt=1.0, t_end=2.0, picard_max_iter=5)
        with pytest.raises(DivergenceError):
            picard_iterate(with_one_nan(f0), f1, LAME, ContractionTensor.default(), cfg)

    def test_no_contraction_for_large_data(self):
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=2e3)
        cfg = SolverConfig(dt=0.5, t_end=6.0, picard_tol=1e-14, picard_max_iter=12)
        with pytest.raises(NoContractionError):
            picard_iterate(f0, f1, LAME, ContractionTensor.default(), cfg)

    def test_horizon_doubling_consistency(self):
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg1 = SolverConfig(dt=1.0, t_end=6.0, picard_tol=1e-16)
        cfg2 = SolverConfig(dt=1.0, t_end=12.0, picard_tol=1e-16)
        t1, _ = picard_iterate(f0, f1, LAME, ContractionTensor.default(), cfg1)
        t2, _ = picard_iterate(f0, f1, LAME, ContractionTensor.default(), cfg2)
        # common window states agree: horizon-local fixed point is stable
        k = len(t1.times)
        sub = type(t2)(times=t2.times[:k], states=t2.states[:k],
                       nonlinearity_cache=t2.nonlinearity_cache[:k])
        assert x1_distance(t1, sub) <= 1e-12


def direct_weights(m, h):
    """Weights over nodes 0..m: composite Simpson, plus a quadratic over the
    last three nodes for odd m, and the trapezoid at m = 1."""
    w = np.zeros(m + 1)
    if m == 1:
        w[:] = h / 2.0
        return w
    even = m - m % 2
    w[0] = w[even] = h / 3.0
    w[1:even:2] = 4.0 * h / 3.0
    w[2:even:2] = 2.0 * h / 3.0
    if m % 2:
        w[m - 2 : m + 1] += np.array([-1.0, 8.0, 5.0]) * h / 12.0
    return w


class TestDuhamelStream:
    def test_direct_weights_integrate_quadratics(self):
        h = 0.3
        for m in range(1, 8):
            nodes = h * np.arange(m + 1)
            w = direct_weights(m, h)
            degree = 1 if m == 1 else 2
            for p in range(degree + 1):
                assert w @ nodes**p == pytest.approx((m * h) ** (p + 1) / (p + 1), rel=1e-13)

    def test_recursion_matches_direct_sum(self, grid16):
        # O(M) semigroup recursion against the O(M^2) sum of the same
        # composite-Simpson quadrature, at every node of an odd node count.
        h, m_count = 0.5, 9
        prop = Propagator(grid16, LAME, (h, 2.0 * h))
        samples = [
            VectorField(grid16, transform(band_limited_random(grid16, seed=j)).data, "spectral")
            for j in range(m_count + 1)
        ]
        zero = VectorField(grid16, np.zeros_like(samples[0].data), "spectral")
        streamed = list(_duhamel_stream(prop, h, (prop.split(g.data) for g in samples)))
        assert len(streamed) == m_count
        for m, (du, dv) in enumerate(streamed, start=1):
            ref_u = np.zeros_like(du)
            ref_v = np.zeros_like(dv)
            for j, w in enumerate(direct_weights(m, h)):
                st = linear_propagate(zero, samples[j], (m - j) * h, LAME)
                ref_u += w * st.displacement_hat.data
                ref_v += w * st.velocity_hat.data
            assert np.max(np.abs(du - ref_u)) <= 1e-12 * np.max(np.abs(ref_u))
            assert np.max(np.abs(dv - ref_v)) <= 1e-12 * np.max(np.abs(ref_v))
