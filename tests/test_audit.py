"""Inequality ratios, banded decay fits, and symbol bound scans."""

import math

import numpy as np
import pytest

from conftest import traced_peak
from viscowave import audit
from viscowave.audit import (
    SYMBOL_BOUNDS,
    decay_fit,
    dilation_ratios,
    heat_multiplier_l1,
    inequality_check,
    symbol_bound_scan,
    _derivatives,
)
from viscowave.asymptotics import decay_slope
from viscowave.elastic import LameParams, default_cutoffs
from viscowave.exceptions import (
    DegenerateInputError,
    ShapeMismatchError,
    UnsupportedSymbolError,
)
from viscowave.grid import (
    CutoffSpec,
    forward_scalar,
    half_seminorm,
    inverse_scalar,
    lp_norm,
    make_grid,
)
from viscowave.kernels import DampingParams

LAME = LameParams(0.0, 1.0, 1.0)
GAUSS = lambda x, y, z: np.exp(-0.5 * (x * x + y * y + z * z))


def centered(grid, shift=(0.0, 0.0, 0.0)):
    return [grid.x_component(a) - grid.box_length / 2.0 - shift[a] for a in range(3)]


class TestInequalities:
    def test_dilation_invariance_scale_invariant_family(self):
        # resolution matters: high Lebesgue powers narrow the effective
        # Gaussian, so the Riemann sums need h well below the tightest scale
        grid = make_grid(128, 24.0)
        scan = dilation_ratios(("GN_INF", "GN_L1", "GRAD_2P", "SOB_6"), GAUSS, grid)
        assert list(scan) == ["GN_INF", "GN_L1", "GRAD_2P", "SOB_6"]
        for ineq, ratios in scan.items():
            assert len(ratios) == 3
            spread = (max(ratios) - min(ratios)) / max(ratios)
            assert spread <= 1e-6, (ineq, ratios)

    def test_scan_transforms_each_dilate_once(self, monkeypatch):
        # Four inequalities over three dilates share each dilate's norms:
        # one forward transform per dilate, and three slabbed inverse ones
        # for GRAD_2P's gradient (its Hessian norm is a Plancherel sum).
        counts = {"forward": 0, "inverse": 0, "generator": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(audit, "forward_scalar", counted("forward", audit.forward_scalar))
        monkeypatch.setattr(audit, "inverse_slabs", counted("inverse", audit.inverse_slabs))
        scan = dilation_ratios(
            ("GN_INF", "GN_L1", "GRAD_2P", "SOB_6"), counted("generator", GAUSS), make_grid(32, 24.0)
        )
        assert counts == {"forward": 3, "inverse": 9, "generator": 3}
        assert all(len(ratios) == 3 for ratios in scan.values())

    def test_scan_is_the_per_dilate_check(self):
        grid = make_grid(32, 24.0)
        ids, lams = ("GN_INF", "GN_L1", "GRAD_2P", "SOB_6", "RIESZ"), (0.7, 1.3)
        scan = dilation_ratios(ids, GAUSS, grid, lams)
        for lam_index, lam in enumerate(lams):
            f = np.broadcast_to(GAUSS(*(lam * x for x in centered(grid))), grid.shape)
            for ineq in ids:
                assert scan[ineq][lam_index] == inequality_check(ineq, grid, f), (ineq, lam)

    def test_one_hessian_norm_on_white_noise(self):
        # GN_INF and GRAD_2P read one ||D^2 f||_2, the L^2 norm of the nine
        # second derivatives built with the grid's Nyquist-safe xi; white
        # noise has content on every Nyquist plane.
        grid = make_grid(16, 16.0)
        f = np.random.default_rng(7).standard_normal(grid.shape)
        fh = forward_scalar(grid, f)
        xi = grid.xi
        hessian = [inverse_scalar(grid, -(xi[a] * xi[b]) * fh) for a in range(3) for b in range(3)]
        want = lp_norm(grid, hessian, 2)
        assert half_seminorm(grid, fh, 2) == pytest.approx(want, rel=1e-12, abs=0.0)
        ids = ("GN_INF", "GRAD_2P")
        norms, spectrum = audit._norms_of(grid, f, ids)
        audit._ratios(ids, grid, norms, spectrum)
        assert norms["h2"] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_unknown_inequality_rejected(self):
        grid = make_grid(16, 16.0)
        with pytest.raises(UnsupportedSymbolError):
            inequality_check("GN_2", grid, np.ones(grid.shape))
        with pytest.raises(UnsupportedSymbolError):
            dilation_ratios(("SOB_6", "GN_2"), GAUSS, grid)

    def test_riesz_contraction(self):
        grid = make_grid(16, 16.0)
        rng = np.random.default_rng(1)
        for seed in range(5):
            assert inequality_check("RIESZ", grid, rng.standard_normal(grid.shape)) <= 1.0 + 1e-14

    def test_riesz_lp_of_plane_wave(self):
        # R_1 cos(x_1) = sin(x_1), which has the L^2 norm of cos(x_1)
        grid = make_grid(8, 2.0 * np.pi)
        f = np.cos(grid.x_component(0)) * np.ones(grid.shape)
        assert inequality_check("RIESZ", grid, f) == pytest.approx(1.0, rel=1e-12)

    def test_sobolev_refinement_oracle(self):
        vals = []
        for n in (96, 128):
            grid = make_grid(n, 24.0)
            xc = centered(grid)
            f = GAUSS(*xc) + 0.3 * GAUSS(2 * xc[0], xc[1], 2 * xc[2])
            vals.append(inequality_check("SOB_6", grid, f))
        assert abs(vals[0] - vals[1]) <= 1e-4 * vals[1]

    def test_degenerate_input(self):
        grid = make_grid(16, 16.0)
        with pytest.raises(DegenerateInputError):
            inequality_check("SOB_6", grid, np.zeros(grid.shape))

    def test_shape_mismatch(self):
        grid = make_grid(16, 16.0)
        with pytest.raises(ShapeMismatchError):
            inequality_check("SOB_6", grid, np.ones((3, *grid.shape)))


class TestOneFieldAtATime:
    """Norm passes take a field's physical norms, then its spectrum, and hold one at a time."""

    @staticmethod
    def counted(monkeypatch, calls):
        for name in ("lp_norm", "forward_scalar"):
            real = getattr(audit, name)

            def wrapper(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(audit, name, wrapper)

    @pytest.mark.parametrize(
        "ineq_id, physical, spectral",
        [("GN_L1", 3, 0), ("GN_INF", 2, 1), ("GRAD_2P", 1, 1), ("SOB_6", 1, 1), ("RIESZ", 0, 1)],
    )
    def test_check_takes_only_the_norms_it_reads(self, monkeypatch, ineq_id, physical, spectral):
        calls = []
        self.counted(monkeypatch, calls)
        grid = make_grid(16, 16.0)
        inequality_check(ineq_id, grid, np.random.default_rng(0).standard_normal(grid.shape))
        # The physical norms come first; GRAD_2P's gradient norm is the lp_norm after the transform.
        assert calls[: physical + spectral] == ["lp_norm"] * physical + ["forward_scalar"] * spectral
        assert calls[physical + spectral :] == (["lp_norm"] if ineq_id == "GRAD_2P" else [])

    def test_dilation_scan_peak(self):
        # 3.52 fields measured, set by a dilate's L^6 and weighted L^2 norms;
        # 3.58 while the gradient norm inverted whole fields.
        grid = make_grid(64, 24.0)
        ids = ("GN_INF", "GN_L1", "GRAD_2P", "SOB_6")
        assert traced_peak(lambda: dilation_ratios(ids, GAUSS, grid)) <= 3.55 * 8 * grid.n**3

    def test_gradient_norm_peak(self):
        # The spectrum, one derivative's spectrum and a slab: 2.58 fields
        # measured, 3.07 while each derivative was inverted whole.
        grid = make_grid(64, 24.0)
        f = np.random.default_rng(0).standard_normal(grid.shape)
        assert traced_peak(lambda: inequality_check("GRAD_2P", grid, f)) <= 2.7 * 8 * grid.n**3

    @pytest.mark.parametrize("ineq_id, fields", [("RIESZ", 2.3), ("GRAD_2P", 3.0)])
    def test_check_frees_a_field_only_it_holds(self, ineq_id, fields):
        # The field is made inside the traced call, as riesz_check's is, so
        # the check must drop it before the spectral norms: 2.03 (RIESZ) and
        # 2.57 (GRAD_2P) fields measured, 2.61 and 3.57 when it is held.
        grid = make_grid(64, 24.0)
        rng = np.random.default_rng(0)
        peak = traced_peak(lambda: inequality_check(ineq_id, grid, rng.standard_normal(grid.shape)))
        assert peak <= fields * 8 * grid.n**3

    def test_riesz_check_peak(self):
        # The spectrum and one real density (3.13 half-lattice arrays
        # measured); 5.18 while the ratio formed the complex Riesz field.
        grid = make_grid(64, 24.0)
        f = np.random.default_rng(0).standard_normal(grid.shape)
        spectrum, real = 16 * grid.xi2.size, 8 * grid.xi2.size
        assert traced_peak(lambda: inequality_check("RIESZ", grid, f)) <= spectrum + 2 * real


def full_lattice_ratio(ineq_id, grid, f, p):
    """Reference: full complex FFT of the scalar, all nine second derivatives.

    ``p`` is GRAD_2P's Hessian exponent; the library's is 2.  Every ``xi`` is
    the Nyquist-safe one, as in the library's table.  GN_L1 reads no spectrum:
    its weight ``|x - c|^2`` is about the box centre ``c``.
    """
    scale = grid.spacing**3 * (2.0 * np.pi) ** -1.5
    dxi3 = (2.0 * np.pi / grid.box_length) ** 3
    fh = np.fft.fftn(f) * scale
    xi = [grid.xi_component_safe(a) for a in range(3)]

    def inv(gh):
        return np.fft.ifftn(gh).real / scale

    def lp(arrays, q):
        if math.isinf(q):
            return max(np.max(np.abs(a)) for a in arrays)
        return (sum(np.sum(np.abs(a) ** q) for a in arrays) * grid.spacing**3) ** (1.0 / q)

    rs2 = sum(x**2 for x in xi)

    def sem(gh, order):
        return np.sqrt(np.sum(rs2**order * np.abs(gh) ** 2) * dxi3)

    grads = [inv(1j * xi[a] * fh) for a in range(3)]
    if ineq_id == "GN_L1":
        x = centered(grid)
        weighted = (x[0] ** 2 + x[1] ** 2 + x[2] ** 2) * f
        return lp([f], 1) / (lp([f], 2) ** 0.25 * lp([weighted], 2) ** 0.75)
    if ineq_id == "GN_INF":
        return lp([f], math.inf) / (lp([f], 2) ** 0.25 * sem(fh, 2) ** 0.75)
    if ineq_id == "GRAD_2P":
        hess = [inv(-xi[a] * xi[b] * fh) for a in range(3) for b in range(3)]
        return lp(grads, 2.0 * p) / (lp([f], math.inf) ** 0.5 * lp(hess, p) ** 0.5)
    if ineq_id == "SOB_6":
        return lp([f], 6) / sem(fh, 1)
    assert ineq_id == "RIESZ"
    with np.errstate(invalid="ignore", divide="ignore"):
        riesz = -1j * fh * np.where(rs2 > 0, xi[0] / np.sqrt(np.where(rs2 > 0, rs2, 1.0)), 0.0)
    return sem(riesz, 0) / sem(fh, 0)


class TestHalfLatticeMatchesFullLattice:
    @pytest.mark.parametrize(
        "ineq_id, p",
        [
            ("GN_L1", 2.0),
            ("GN_INF", 2.0),
            ("GRAD_2P", 2.0),
            ("SOB_6", 2.0),
            ("RIESZ", 2.0),
        ],
    )
    @pytest.mark.parametrize("field", ["random16", "gaussian32"])
    def test_ratio_matches_reference(self, ineq_id, p, field):
        if field == "random16":  # Nyquist content on every axis
            grid = make_grid(16, 16.0)
            f = np.random.default_rng(4).standard_normal(grid.shape)
        else:
            grid = make_grid(32, 24.0)
            f = GAUSS(*centered(grid, (0.7, -1.1, 0.4)))
        ref = full_lattice_ratio(ineq_id, grid, f, p)
        assert inequality_check(ineq_id, grid, f) == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestDecayFit:
    def test_mid_high_fits(self):
        cut = default_cutoffs(LAME)
        m_lo = max(cut.c0, 2.2 * max(LAME.beta_long, LAME.beta_trans) / LAME.nu)
        gm = lambda r: np.exp(-(((r - 0.5 * (m_lo + cut.c1)) / ((cut.c1 - m_lo) / 6.0)) ** 2))
        gh = lambda r: np.exp(-(((r - 2.2 * cut.c1)) ** 2))
        for part, g in (("M", gm), ("H", gh)):
            for which in ("K0", "K1"):
                fit = decay_fit(part, which, g, LAME, cutoff=cut)
                assert fit.c_fit > 0.0
                assert fit.residual <= 0.05
                assert fit.rate_ci95 / fit.c_fit < 0.25

    def test_low_supported_data_has_no_banded_content(self):
        cut = default_cutoffs(LAME)

        def ghat(r):
            r = np.asarray(r, dtype=float)
            s = r / (0.45 * cut.c0)
            out = np.zeros_like(r)
            inside = s < 1.0
            out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
            return out

        from viscowave.kernels import kernel_hat
        from viscowave.radial import radial_l2_norm

        for part in ("M", "H"):
            coef = lambda r: kernel_hat(1.0, r, LAME.trans_params, "K1") * cut.chi(part, r) * ghat(r)
            assert radial_l2_norm(coef, coef, 0) <= 1e-14


class TestSymbolScans:
    def test_all_bounds_finite_and_stable(self):
        dp = DampingParams(1.0, 1.0)
        for bid in SYMBOL_BOUNDS:
            r1 = symbol_bound_scan(bid, (1.0, 1e3), (1e-3, 1.0), dp, density=48, seed=3)
            r2 = symbol_bound_scan(bid, (1.0, 1e3), (1e-3, 1.0), dp, density=96, seed=3)
            assert np.isfinite(r1) and np.isfinite(r2)
            assert max(r1, r2) / max(min(r1, r2), 1e-300) < 2.0, bid

    def test_region_guard(self):
        dp = DampingParams(1.0, 1.0)
        with pytest.raises(ValueError):
            symbol_bound_scan("B333", (1.0, 10.0), (1e-3, 3.0), dp)

    @staticmethod
    def functions(symbol, dp, t, r):
        # The functions each symbol sums, written directly from a = t beta r phi, b = t beta r.
        phi = np.sqrt(1.0 - (dp.nu * r / (2.0 * dp.beta)) ** 2)
        a, b = t * dp.beta * r * phi, t * dp.beta * r
        return {
            "phase": (np.cos(a), np.sin(a)),
            "cos_gap": (np.cos(a) - np.cos(b),),
            "sin_gap": (np.sin(a) - np.sin(b) - (a - b) * np.cos(b),),
            "envelope": (np.exp(-0.5 * dp.nu * t * r * r) * (phi - 1.0),),
        }[symbol]

    @pytest.mark.parametrize("symbol", ["phase", "cos_gap", "sin_gap", "envelope"])
    @pytest.mark.parametrize(
        "dp", [DampingParams(1.3, 0.9), DampingParams(math.sqrt(2.0), 1.0)], ids=["1.3-0.9", "sqrt2-1"]
    )
    def test_derivatives_cross_checked_against_finite_differences(self, symbol, dp):
        # Each closed-form d1 against a central difference of the function it
        # differentiates, and each d2 against one of the closed-form d1, away
        # from the corner r = 0 and inside the oscillatory region.
        for t, r in ((2.2, 0.31), (0.7, 1.1), (12.0, 0.5), (5.0, 0.2)):
            h = 1e-5 * r
            pairs = _derivatives(symbol, dp, t, r)
            above, below = (self.functions(symbol, dp, t, r + s) for s in (h, -h))
            d1_above, d1_below = (_derivatives(symbol, dp, t, r + s) for s in (h, -h))
            assert len(pairs) == len(above)
            for (d1, d2), fa, fb, (da, _), (db, _) in zip(pairs, above, below, d1_above, d1_below):
                assert (fa - fb) / (2.0 * h) == pytest.approx(d1, rel=1e-5, abs=0.0), (t, r)
                assert (da - db) / (2.0 * h) == pytest.approx(d2, rel=1e-6, abs=0.0), (t, r)

    def test_fd_step_calibration(self):
        # the 1e-5 r central-difference step resolves d/dr e^{-r^2} to 1e-8
        r0 = 0.5
        h = 1e-5 * r0
        fd = (np.exp(-((r0 + h) ** 2)) - np.exp(-((r0 - h) ** 2))) / (2.0 * h)
        exact = -2.0 * r0 * np.exp(-(r0**2))
        assert abs(fd - exact) <= 1e-8


class TestHeatL1:
    def test_decay_slopes(self):
        cut = default_cutoffs(LAME)
        ts = np.geomspace(2.0, 200.0, 9)
        targets = {(1, 0): -0.5, (2, 0): -1.0, (0, 1): -1.0}
        per_t = [heat_multiplier_l1(float(t), LAME.nu, cut, list(targets)) for t in ts]
        for i, target in enumerate(targets.values()):
            rep = decay_slope(ts, [row[i] for row in per_t])
            assert rep.slope <= target + 0.1

    def test_positive_and_finite(self):
        cut = CutoffSpec(1.0, 4.0)
        (v,) = heat_multiplier_l1(5.0, 1.0, cut, [(1, 0)])
        assert np.isfinite(v) and v > 0.0

    def test_shared_sweep_is_each_order_alone(self):
        # One moment sweep for three orders: each value is its own call's,
        # up to the rounding of a wider moment matmul.
        cut, orders = CutoffSpec(1.0, 4.0), [(1, 0), (2, 0), (0, 1)]
        for t in (2.0, 200.0):
            shared = heat_multiplier_l1(t, 1.0, cut, orders)
            alone = [heat_multiplier_l1(t, 1.0, cut, [order])[0] for order in orders]
            assert shared == pytest.approx(alone, rel=1e-14, abs=0.0)

    def test_angular_fit_made_at_most_once_per_alpha(self, monkeypatch):
        calls = []
        real = audit.angular_fit
        monkeypatch.setattr(audit, "angular_fit", lambda *args: calls.append(args) or real(*args))
        for t in (2.0, 20.0, 200.0):
            heat_multiplier_l1(t, 1.0, CutoffSpec(1.0, 4.0), [(2, 0)])
        assert len(calls) <= 1
