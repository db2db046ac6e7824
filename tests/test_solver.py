"""Nonlinearity, time marching, fixed-point iteration, and weighted norms."""

import tracemalloc

import numpy as np
import pytest

from conftest import band_limited_random, centered_gaussian, x1_distance, x1_norm, zero_field
from viscowave import solver
from viscowave.elastic import LameParams, Propagator, linear_propagate
from viscowave.exceptions import DivergenceError, NoContractionError, ShapeMismatchError
from viscowave.grid import (
    VectorField,
    dealias_mask,
    forward_scalar,
    half_seminorm,
    inverse_scalar,
    make_grid,
    sobolev_seminorm,
    transform,
)
from viscowave.solver import (
    SolverConfig,
    Trajectory,
    _march,
    _nonlinearity_hat,
    _x1_integrand,
    evolve,
    evolve_stream,
    picard_iterate,
    x1_data_seminorm,
    x1_norm_and_distance,
)

LAME = LameParams(0.0, 1.0, 1.0)


def gaussian_data(grid, eps=1.0, sigma=0.8):
    """Half-lattice spectra of ``eps`` times a centred Gaussian in f0 and f1."""
    f = centered_gaussian(grid, sigma=sigma).data
    return forward_scalar(grid, eps * f), forward_scalar(grid, eps * f)


def small_data(grid, target=1e-3, sigma=0.8):
    """:func:`gaussian_data` scaled to X1 data seminorm ``target``."""
    scale = target / x1_data_seminorm(grid, *gaussian_data(grid, sigma=sigma))
    return gaussian_data(grid, scale, sigma)


def zero_data(grid):
    return np.zeros((3, *grid.half_shape), dtype=np.complex128)


def with_one_nan(f_hat):
    f_hat = f_hat.copy()
    f_hat[0, 3, 4, 5] = np.nan
    return f_hat


def count_duhamel_calls(monkeypatch):
    """A list that gains one entry per ``Propagator.apply`` call with Duhamel terms from now on.

    A call carries Duhamel terms when it has more than the state's two terms.
    """
    calls = []
    real = Propagator.apply

    def counted(self, terms, velocity=True):
        terms = list(terms)
        if len(terms) > 2:
            calls.append(1)
        return real(self, terms, velocity)

    monkeypatch.setattr(Propagator, "apply", counted)
    return calls


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
            {"dt": float("inf"), "t_end": 2.0},
            {"dt": float("nan"), "t_end": 2.0},
            {"dt": 0.5, "t_end": float("inf")},
            {"dt": float("inf"), "t_end": float("inf")},
            {"dt": 0.5, "t_end": 2.0, "picard_tol": float("inf")},
        ],
    )
    def test_rejects_unusable_settings(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_whole_step_count_up_to_rounding(self):
        assert SolverConfig(dt=0.1, t_end=4.0).n_steps == 40
        assert SolverConfig(dt=0.4, t_end=4.0).n_steps == 10
        assert SolverConfig(dt=1.25, t_end=25.0, picard_max_iter=1).n_steps == 20


def all_at_once_forcing(grid, u_hat, mask):
    """``F_k = sum_ij (d_i u_j)(d_i d_j u_k)``: 27 products, all derivative fields held at once."""
    xi = grid.xi
    d1 = {(i, j): inverse_scalar(grid, 1j * xi[i] * u_hat[j]) for i in range(3) for j in range(3)}
    d2 = {
        (i, j, k): inverse_scalar(grid, -(xi[i] * xi[j]) * u_hat[k])
        for i in range(3)
        for j in range(i, 3)
        for k in range(3)
    }
    f_phys = np.zeros((3, *grid.shape))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                f_phys[k] += d1[i, j] * d2[min(i, j), max(i, j), k]
    f_hat = forward_scalar(grid, f_phys)
    f_hat *= mask
    return f_hat


def forcing(u):
    """Physical-space forcing ``F(u)`` of a physical field, dealiased by the two-thirds mask."""
    g = u.grid
    f_hat = _nonlinearity_hat(g, forward_scalar(g, u.data), dealias_mask(g))
    return VectorField(g, inverse_scalar(g, f_hat), "physical")


class TestNonlinearity:
    def test_zero(self, grid16):
        out = forcing(zero_field(grid16))
        assert np.all(out.data == 0.0)

    def test_quadratic_homogeneity(self, grid16):
        u = centered_gaussian(grid16, sigma=1.2)
        f1 = forcing(u)
        u2 = VectorField(grid16, 2.0 * u.data, "physical")
        f2 = forcing(u2)
        scale = np.max(np.abs(f2.data))
        assert np.max(np.abs(f2.data - 4.0 * f1.data)) <= 1e-13 * scale

    def test_single_mode_trig_expansion(self):
        # u = eps sin(x1) e1: F_k = (d1 u1)(d1 d1 u_k) = -eps^2 sin cos = -eps^2 sin(2 x1)/2;
        # the k = 2 product lies inside the two-thirds band (|k| <= 5) of 16 points
        g = make_grid(16, 2.0 * np.pi)
        eps = 0.3
        x = g.x_component(0)
        data = np.zeros((3, *g.shape))
        data[0] = eps * np.sin(x) * np.ones(g.shape)
        u = VectorField(g, data, "physical")
        out = forcing(u)
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
        out = transform(forcing(u))

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

    def test_streamed_fields_match_all_at_once(self):
        # The divergence form rounds differently from the 27 products, so the
        # two agree to a tolerance, not bit for bit.  They agree only on
        # band-limited input: above the two-thirds band they alias differently.
        for n in (8, 16):
            g = make_grid(n, 16.0)
            mask = dealias_mask(g)
            u_hat = forward_scalar(g, band_limited_random(g, seed=n, keep_fraction=0.9).data)
            u_hat *= mask
            got = _nonlinearity_hat(g, u_hat, mask)
            want = all_at_once_forcing(g, u_hat, mask)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_forcing_peak_working_set(self):
        # At most 17 real n^3 fields held at once (15.1 measured): the four
        # derivative fields of one i, not all twelve, beside M and C.
        g = make_grid(32, 16.0)
        mask = dealias_mask(g)
        u_hat = forward_scalar(g, band_limited_random(g, seed=32, keep_fraction=0.9).data)
        u_hat *= mask
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _nonlinearity_hat(g, u_hat, mask)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 17 * 8 * g.n**3


class TestEvolve:
    def test_zero_data(self, grid16):
        cfg = SolverConfig(dt=0.5, t_end=2.0)
        zero = zero_data(grid16)
        traj = evolve(grid16, zero, zero, LAME, cfg)
        assert all(np.all(u == 0.0) for u in traj.u)

    def test_zero_tensor_matches_propagator(self, grid16):
        f0, f1 = small_data(grid16)
        cfg = SolverConfig(dt=0.5, t_end=4.0)
        traj = evolve(grid16, f0, f1, LAME, cfg, nonlinear=False)
        ref = linear_propagate(grid16, f0, f1, 4.0, LAME)
        scale = max(np.max(np.abs(ref[0])), 1e-300)
        diff = np.max(np.abs(traj.u[-1] - ref[0]))
        assert diff <= 1e-10 * scale
        # The half-lattice X1 integrand is the full lattice's, mirror planes counted twice.
        w = 1.0 + 4.0
        u, v = (transform(VectorField(grid16, inverse_scalar(grid16, a), "physical")) for a in ref)
        full = (
            w**1.75 * sobolev_seminorm(u, 3)
            + w**0.75 * (sobolev_seminorm(u, 1) + sobolev_seminorm(v, 0))
            + w**1.25 * sobolev_seminorm(v, 1)
        )
        got = _x1_integrand(grid16, 4.0, traj.u[-1], traj.v[-1])
        assert abs(got - full) <= 1e-10 * full

    def test_linear_march_skips_the_duhamel_window(self, monkeypatch, grid16):
        calls = count_duhamel_calls(monkeypatch)
        evolve(grid16, *small_data(grid16), LAME, SolverConfig(dt=1.0, t_end=4.0), nonlinear=False)
        assert calls == []

    def test_step_halving_order(self):
        # The linear part is exact, so only the Duhamel quadrature errs in the
        # deviation u(T) - u_lin(T); composite Simpson in the exponential
        # multistep march makes it fourth order in dt.
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-1)
        lin, _ = linear_propagate(g, f0, f1, 4.0, LAME)
        devs = []
        for k in range(5):
            cfg = SolverConfig(dt=0.5**k, t_end=4.0)
            for _, u, _ in evolve_stream(g, f0, f1, LAME, cfg):
                pass
            devs.append(u - lin)
        diffs = [half_seminorm(g, a - b, 0) for a, b in zip(devs, devs[1:])]
        orders = [np.log2(a / b) for a, b in zip(diffs, diffs[1:])]
        assert min(orders[-2:]) >= 3.5, orders

    def test_reality_preserved(self, grid16):
        # A half-lattice spectrum stands for a real field only if its self-mirror
        # planes k_z = 0 and n/2 are Hermitian; then the real round trip keeps it.
        f0, f1 = small_data(grid16, target=1e-2)
        cfg = SolverConfig(dt=0.5, t_end=3.0)
        traj = evolve(grid16, f0, f1, LAME, cfg)
        for uh in (traj.u[-1], traj.v[-1]):
            back = forward_scalar(grid16, inverse_scalar(grid16, uh))
            assert np.max(np.abs(back - uh)) < 1e-12 * np.max(np.abs(uh))

    def test_blowup_guard(self):
        g = make_grid(16, 16.0)
        big = gaussian_data(g, 5e3)[0]
        cfg = SolverConfig(dt=0.5, t_end=20.0)
        with pytest.raises(DivergenceError):
            evolve(g, big, big, LAME, cfg)

    def test_nan_data_raises(self, grid16):
        f0, f1 = small_data(grid16)
        cfg = SolverConfig(dt=0.5, t_end=2.0)
        with pytest.raises(DivergenceError):
            evolve(grid16, with_one_nan(f0), f1, LAME, cfg)

    def test_bounded_small_data_long_run(self):
        # running weighted norm stays below twice its early-segment value
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg = SolverConfig(dt=0.5, t_end=50.0)
        traj = evolve(g, f0, f1, LAME, cfg)
        vals = [_x1_integrand(g, float(t), u, v) for t, u, v in zip(traj.times, traj.u, traj.v)]
        early = max(vals[:11])
        assert max(vals) <= 2.0 * early


class TestX1Norm:
    def test_zero(self, grid16):
        cfg = SolverConfig(dt=1.0, t_end=2.0)
        zero = zero_data(grid16)
        traj = evolve(grid16, zero, zero, LAME, cfg, nonlinear=False)
        assert x1_norm(traj) == 0.0

    def test_integrand_is_four_half_seminorms(self, grid16):
        # One pass over |u|^2 and |v|^2 gives the separate seminorms' bits.
        rng = np.random.default_rng(5)
        u, v = (forward_scalar(grid16, rng.standard_normal((3, *grid16.shape))) for _ in range(2))
        for t in (0.0, 2.5, 40.0):
            w = 1.0 + t
            separate = (
                w**1.75 * half_seminorm(grid16, u, 3)
                + w**0.75 * (half_seminorm(grid16, u, 1) + half_seminorm(grid16, v, 0))
                + w**1.25 * half_seminorm(grid16, v, 1)
            )
            assert _x1_integrand(grid16, t, u, v) == separate

    def test_homogeneity(self, grid16):
        f0, f1 = small_data(grid16)
        cfg = SolverConfig(dt=0.5, t_end=3.0)
        traj1 = evolve(grid16, f0, f1, LAME, cfg, nonlinear=False)
        traj3 = evolve(grid16, 3.0 * f0, 3.0 * f1, LAME, cfg, nonlinear=False)
        assert x1_norm(traj3) == pytest.approx(3.0 * x1_norm(traj1), rel=1e-12)

    @pytest.mark.parametrize("nan_in", ["state", "reference"])
    def test_nan_at_a_later_time_reaches_the_sup(self, grid16, nan_in):
        # Python's max(x, nan) returns x: a running max would drop a NaN after the first time
        cfg = SolverConfig(dt=0.5, t_end=2.0)
        traj = evolve(grid16, *small_data(grid16), LAME, cfg, nonlinear=False)
        k = int(np.argmin(np.abs(traj.times - 1.0)))
        u = [*traj.u[:k], with_one_nan(traj.u[k]), *traj.u[k + 1 :]]
        bad = Trajectory(grid16, traj.times, u, traj.v)
        states, ref = (bad, traj) if nan_in == "state" else (traj, bad)
        norm, dist = x1_norm_and_distance(zip(states.times, states.u, states.v), ref)
        assert np.isnan(dist) and np.isnan(norm) == (nan_in == "state")

    def test_grid_refinement_stability(self):
        # homogeneous-solution X1 value stable between n=48 and n=64
        vals = {}
        for n in (48, 64):
            g = make_grid(n, 16.0)
            cfg = SolverConfig(dt=1.0, t_end=8.0)
            traj = evolve(g, *gaussian_data(g), LAME, cfg, nonlinear=False)
            vals[n] = x1_norm(traj)
        assert abs(vals[64] - vals[48]) <= 0.02 * vals[64]


class TestPicard:
    def test_small_data_contracts_and_matches_evolve(self):
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg = SolverConfig(dt=1.0, t_end=8.0, picard_tol=1e-16, picard_max_iter=10)
        traj_p, history = picard_iterate(g, f0, f1, LAME, cfg)
        ratios = [h["ratio"] for h in history if h["ratio"] is not None]
        assert ratios and max(ratios) <= 0.5
        traj_e = evolve(g, f0, f1, LAME, cfg)
        assert x1_distance(traj_e, traj_p) <= 5.0 * 1e-12  # far below even a tight tol

    def test_evolve_solves_picard_node_equations(self):
        # Both solvers solve the same node equations, evolve explicitly and
        # Picard by iteration, so they agree to rounding once Picard has converged.
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg = SolverConfig(dt=1.0, t_end=8.0, picard_tol=1e-16, picard_max_iter=10)
        traj_p, history = picard_iterate(g, f0, f1, LAME, cfg)
        assert history[-1]["converged"]
        traj_e = evolve(g, f0, f1, LAME, cfg)
        assert x1_distance(traj_e, traj_p) <= 1e-14 * x1_norm(traj_e)

    def test_starting_iterate_is_homogeneous_solution(self, monkeypatch):
        # With vanishing forcing every sweep is a no-op, so the starting
        # iterate (the homogeneous solution) is also the fixed point.
        zero = lambda g, u_hat, mask: np.zeros_like(u_hat)
        monkeypatch.setattr(solver, "_nonlinearity_hat", zero)
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg = SolverConfig(dt=1.0, t_end=4.0, picard_tol=1e-30, picard_max_iter=2)
        traj_p, history = picard_iterate(g, f0, f1, LAME, cfg)
        assert history[0]["distance"] == 0.0
        ref, _ = linear_propagate(g, f0, f1, 4.0, LAME)
        scale = np.max(np.abs(ref))
        diff = np.max(np.abs(traj_p.u[-1] - ref))
        assert diff <= 1e-12 * scale

    def test_zero_forcing_skips_the_duhamel_window(self, monkeypatch):
        # Iterate 0 has no forcing to integrate; the sweep integrates one window per half-step node.
        calls = count_duhamel_calls(monkeypatch)
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg = SolverConfig(dt=1.0, t_end=4.0, picard_tol=1e-30, picard_max_iter=1)
        picard_iterate(g, f0, f1, LAME, cfg)
        assert len(calls) == 2 * cfg.n_steps

    def test_first_sweep_measures_forcing_increment(self):
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg = SolverConfig(dt=1.0, t_end=4.0, picard_max_iter=1, picard_tol=1e-30)
        _, history = picard_iterate(g, f0, f1, LAME, cfg)
        assert history[0]["iteration"] == 1
        assert history[0]["distance"] > 0

    def test_increment_is_x1_distance_of_successive_iterates(self):
        # The sweep measures its increment on the full steps it returns, as x1_distance does.
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        iterates = {}
        for sweeps in (1, 2):
            cfg = SolverConfig(dt=0.5, t_end=4.0, picard_tol=1e-30, picard_max_iter=sweeps)
            iterates[sweeps] = picard_iterate(g, f0, f1, LAME, cfg)
        (it1, hist1), (it2, hist2) = iterates[1], iterates[2]
        assert hist2[0] == hist1[0]
        assert hist2[1]["distance"] == x1_distance(it2, it1)

    def test_history_flags_convergence(self):
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg = SolverConfig(dt=1.0, t_end=4.0, picard_tol=1e-30, picard_max_iter=2)
        _, history = picard_iterate(g, f0, f1, LAME, cfg)
        assert [h["converged"] for h in history] == [False, False]
        cfg = SolverConfig(dt=1.0, t_end=4.0, picard_tol=1e-9, picard_max_iter=10)
        _, history = picard_iterate(g, f0, f1, LAME, cfg)
        assert history[-1]["converged"] and not any(h["converged"] for h in history[:-1])

    def test_nan_data_raises(self, grid16):
        f0, f1 = small_data(grid16)
        cfg = SolverConfig(dt=1.0, t_end=2.0, picard_max_iter=5)
        with pytest.raises(DivergenceError):
            picard_iterate(grid16, with_one_nan(f0), f1, LAME, cfg)

    def test_no_contraction_for_large_data(self):
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=2e3)
        cfg = SolverConfig(dt=0.5, t_end=6.0, picard_tol=1e-14, picard_max_iter=12)
        with pytest.raises(NoContractionError):
            picard_iterate(g, f0, f1, LAME, cfg)

    def test_horizon_doubling_consistency(self):
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g, target=1e-3)
        cfg1 = SolverConfig(dt=1.0, t_end=6.0, picard_tol=1e-16)
        cfg2 = SolverConfig(dt=1.0, t_end=12.0, picard_tol=1e-16)
        t1, _ = picard_iterate(g, f0, f1, LAME, cfg1)
        t2, _ = picard_iterate(g, f0, f1, LAME, cfg2)
        # common window states agree: horizon-local fixed point is stable
        k = len(t1.times)
        sub = type(t2)(grid=g, times=t2.times[:k], u=t2.u[:k], v=t2.v[:k])
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


class TestWorkingSet:
    """Peak traced memory of the two solvers, in states ``(3, n, n, n/2 + 1)`` complex.

    n = 16 with 20 steps (41 half-step nodes), as perfbench's n = 32 configs.
    The bounds sit between the measured peaks and those of a march that holds
    each state as two arrays, (longitudinal, transverse): 28.2 and 86.1.
    """

    def peak_states(self, run):
        g = make_grid(16, 16.0)
        f0, f1 = small_data(g)
        cfg = SolverConfig(dt=1.25, t_end=25.0, picard_tol=1e-10)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(g, f0, f1, LAME, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / (f0.size * f0.itemsize)

    def test_evolve_stream(self):
        def consume(*args):
            for _ in evolve_stream(*args):
                pass

        assert self.peak_states(consume) <= 18  # 14.3 measured

    def test_picard_iterate(self):
        # 41 displacements and 21 velocities are kept.
        assert self.peak_states(picard_iterate) <= 78  # 72.2 measured


@pytest.mark.parametrize("solve", [evolve_stream, evolve, picard_iterate])
def test_wrong_shape_rejected(grid16, solve):
    # One shape check in elastic, as for linear_propagate: physical data, a
    # scalar spectrum or a truncated half lattice is a ShapeMismatchError,
    # raised by the bare call (evolve_stream checks its data before it returns).
    cfg = SolverConfig(dt=1.0, t_end=2.0)
    ok = small_data(grid16)[0]
    for shape in [(3, 16, 16, 16), (16, 16, 9), (3, 16, 16, 8)]:
        bad = np.zeros(shape, dtype=np.complex128)
        for f0, f1 in ((bad, ok), (ok, bad)):
            with pytest.raises(ShapeMismatchError):
                solve(grid16, f0, f1, LAME, cfg)


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
        # O(M) node march from a zero state with fixed samples against the
        # O(M^2) sum of the same composite-Simpson quadrature, at every node
        # of an odd node count; the velocity is built at even nodes only.
        h, m_count = 0.5, 9
        prop = Propagator(grid16, LAME, (h, 2.0 * h))
        samples = [
            forward_scalar(grid16, band_limited_random(grid16, seed=j).data)
            for j in range(m_count + 1)
        ]
        zero = np.zeros_like(samples[0])
        streamed = list(_march(prop, h, m_count, zero, zero, lambda m, u: samples[m]))
        assert [m for m, _, _ in streamed] == list(range(1, m_count + 1))
        assert np.all(zero == 0.0)  # the march leaves node 0 alone
        for m, du, dv in streamed:
            ref_u = np.zeros_like(du)
            ref_v = np.zeros_like(du)
            for j, w in enumerate(direct_weights(m, h)):
                u, v = linear_propagate(grid16, zero, samples[j], (m - j) * h, LAME)
                ref_u += w * u
                ref_v += w * v
            assert np.max(np.abs(du - ref_u)) <= 1e-12 * np.max(np.abs(ref_u))
            if m % 2:
                assert dv is None
            else:
                assert np.max(np.abs(dv - ref_v)) <= 1e-12 * np.max(np.abs(ref_v))
