"""Scalar mode-kernel tests: closed forms against the independent ODE oracle."""

import json

import numpy as np
import pytest

from conftest import REPO_CONFIGS, forced_kernel_quadrature, forced_mode_oracle
from viscowave import cli, kernels
from viscowave.exceptions import OutOfDomainError, UnsupportedOrderError
from viscowave.kernels import (
    DampingParams,
    diffusion_hat,
    kernel_branch,
    kernel_hat,
    lowfreq_residual,
    mode_oracle,
)


class TestCharRoots:
    """Root branch labels, and the roots of sigma^2 + nu r^2 sigma + beta^2 r^2 as K1 shows them."""

    def test_degenerate_example(self):
        # discriminant nu^2 r^4 - 4 beta^2 r^2 = 4 - 4 = 0 forces the double root -nu r^2 / 2
        dp = DampingParams(1.0, 2.0)
        assert kernel_branch(dp, 1.0) == "degenerate"
        for t in (0.5, 2.0):
            assert kernel_hat(t, 1.0, dp, "K1") == pytest.approx(t * np.exp(-t), rel=1e-13)

    def test_oscillatory_pair(self):
        # roots -1/2 +- i sqrt(3)/2, so K1 = e^{-t/2} sin(sqrt(3) t / 2) / (sqrt(3) / 2)
        dp = DampingParams(1.0, 1.0)
        assert kernel_branch(dp, 1.0) == "complex_roots"
        w = np.sqrt(3) / 2
        for t in (0.5, 2.0, 6.0):
            assert kernel_hat(t, 1.0, dp, "K1") == pytest.approx(
                np.exp(-0.5 * t) * np.sin(w * t) / w, abs=1e-14
            )

    def test_overdamped_limit(self):
        dp = DampingParams(1.0, 1.0)
        assert kernel_branch(dp, 100.0) == "real_roots"
        # once the fast root has died out K1 decays at sigma_plus -> -beta^2/nu
        sigma_plus = np.log(kernel_hat(6.0, 100.0, dp, "K1") / kernel_hat(5.0, 100.0, dp, "K1"))
        assert abs(sigma_plus + 1.0) < 1e-3


class TestKernelHat:
    def test_initial_values(self):
        # K0(0) = 1, K1(0) = 0, dK1(0) = 1 for any mode
        rng = np.random.default_rng(3)
        for _ in range(25):
            dp = DampingParams(*rng.uniform(0.1, 4.0, 2))
            r = rng.uniform(0.0, 8.0)
            assert kernel_hat(0.0, r, dp, "K0") == pytest.approx(1.0, abs=1e-14)
            assert kernel_hat(0.0, r, dp, "K1") == pytest.approx(0.0, abs=1e-14)
            assert kernel_hat(0.0, r, dp, "K1", 1) == pytest.approx(1.0, abs=1e-14)

    def test_zero_frequency(self):
        dp = DampingParams(2.0, 0.5)
        for t in (0.0, 1.0, 7.5):
            assert kernel_hat(t, 0.0, dp, "K1") == pytest.approx(t, abs=1e-14)
            assert kernel_hat(t, 0.0, dp, "K0") == pytest.approx(1.0, abs=1e-14)

    def test_confluent_value(self):
        # double root at r = 2 beta / nu = 1: K1 = t e^{-nu r^2 t / 2}
        assert kernel_hat(3.0, 1.0, DampingParams(1.0, 2.0), "K1") == pytest.approx(
            3.0 * np.exp(-3.0), rel=1e-13
        )

    def test_branch_continuity(self):
        dp = DampingParams(1.0, 1.0)
        thr = dp.root_threshold
        for t in (0.5, 4.0, 12.0):
            eps = 1e-12 * thr
            inner = kernel_hat(t, thr - eps, dp, "K1")
            outer = kernel_hat(t, thr + eps, dp, "K1")
            middle = kernel_hat(t, thr, dp, "K1")
            assert abs(inner - middle) <= 1e-9 * max(1.0, abs(middle))
            assert abs(outer - middle) <= 1e-9 * max(1.0, abs(middle))

    def test_ode_residual_finite_difference(self):
        # 6th-order central stencil of K1'' + nu r^2 K1' + beta^2 r^2 K1 ~ 0
        d1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
        d2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
        rng = np.random.default_rng(11)
        for _ in range(200):
            beta, nu = rng.uniform(0.1, 4.0, 2)
            r = rng.uniform(0.0, 8.0)
            t = rng.uniform(0.05, 20.0)
            dp = DampingParams(beta, nu)
            h = 1e-3 * max(t, 0.5)
            ts = t + h * np.arange(-3, 4)
            vals = kernel_hat(ts, r, dp, "K1")
            scale = max(np.max(np.abs(vals)), 1e-12)
            resid = (
                float(d2 @ vals) / h**2
                + nu * r * r * float(d1 @ vals) / h
                + beta * beta * r * r * vals[3]
            )
            # residual scaled by the kernel magnitude and the ODE coefficients
            assert abs(resid) <= 1e-6 * scale * max(1.0, (beta * r) ** 2, nu * r * r / h)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            beta, nu = rng.uniform(0.1, 4.0, 2)
            r = rng.uniform(0.0, 6.0)
            t = rng.uniform(0.0, 10.0)
            dp = DampingParams(beta, nu)
            w, wdot = mode_oracle(t, r, dp, 1.0, 0.0)
            k0 = kernel_hat(t, r, dp, "K0")
            assert abs(k0 - w) <= 1e-8 * max(abs(w), 1e-2)
            w, _ = mode_oracle(t, r, dp, 0.0, 1.0)
            k1 = kernel_hat(t, r, dp, "K1")
            assert abs(k1 - w) <= 1e-8 * max(abs(w), 1e-2)

    @pytest.mark.parametrize("which", ["K0", "K1"])
    def test_time_derivatives_match_finite_differences(self, which):
        # r = 0.2 and 1.5 lie on the oscillatory branch, r = 4 on the overdamped one
        dp = DampingParams(1.3, 0.7)
        for r in (0.2, 1.5, 4.0):
            for order in (1, 2):
                h = 1e-5
                fd = (
                    kernel_hat(2.0 + h, r, dp, which, order - 1)
                    - kernel_hat(2.0 - h, r, dp, which, order - 1)
                ) / (2 * h)
                assert kernel_hat(2.0, r, dp, which, order) == pytest.approx(fd, abs=1e-9)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            kernel_hat(1.0, 1.0, DampingParams(1.0, 1.0), "K1", 3)


class TestDiffusionHat:
    def test_zero_frequency_limits(self):
        dp = DampingParams(1.0, 1.0)
        for t in (0.0, 2.0, 9.0):
            assert diffusion_hat(t, 0.0, dp, "G0") == pytest.approx(1.0)
            assert diffusion_hat(t, 0.0, dp, "G1") == pytest.approx(t)

    def test_cosine_kernel_close_to_diffusion_wave(self):
        # |K00 - G0| <= C t r^3 near r = 0, with a bounded empirical ratio
        dp = DampingParams(1.0, 1.0)
        rs = np.linspace(1e-3, 0.3, 40)
        worst = 0.0
        for t in (0.5, 2.0, 10.0, 40.0):
            diff = np.abs(
                diffusion_hat(t, rs, dp, "K00") - diffusion_hat(t, rs, dp, "G0")
            )
            worst = max(worst, float(np.max(diff / (t * rs**3))))
        assert worst < 1.0  # the ratio stays bounded (coefficient ~ nu^2/(8 beta))

    def test_diffusion_wave_envelopes(self):
        dp = DampingParams(1.4, 0.6)
        rng = np.random.default_rng(2)
        for _ in range(300):
            t = rng.uniform(0.0, 30.0)
            r = rng.uniform(1e-6, 6.0)
            env = np.exp(-0.5 * dp.nu * r * r * t)
            assert abs(diffusion_hat(t, r, dp, "G0")) <= env * (1.0 + 1e-12)
            bound = env * min(t, 1.0 / (dp.beta * r))
            assert abs(diffusion_hat(t, r, dp, "G1")) <= bound * (1.0 + 1e-12)

    def test_phi_domain(self):
        # phi is defined strictly below the root threshold 2 beta / nu = 2
        dp = DampingParams(1.0, 1.0)
        with pytest.raises(OutOfDomainError):
            lowfreq_residual(0.0, 2.5, dp)


def criterion_1(out) -> dict:
    """Criterion 1's assertion from a kernels run's summary.json."""
    summary = json.loads((out / "summary.json").read_text())
    (check,) = [a for a in summary["assertions"] if a["criterion"] == "1"]
    return check


class TestModeOracle:
    def test_degenerate_point(self):
        w, _ = mode_oracle(3.0, 1.0, DampingParams(1.0, 2.0), 0.0, 1.0)
        assert w == pytest.approx(3.0 * np.exp(-3.0), abs=1e-8)

    @pytest.mark.parametrize(
        "t, r, beta, nu",
        [
            (5.0, 0.7, 1.0, 1.0),  # oscillatory: nu r < 2 beta
            (0.3, 8.0, 4.0, 0.1),
            (20.0, 0.2, 0.1, 4.0),  # overdamped: nu r > 2 beta
            (2.0, 4.0, 1.0, 1.0),
            (10.0, 6.0, 0.5, 3.0),
            (3.0, 1.0, 1.0, 2.0),  # confluent: nu r = 2 beta
            (7.0, 1.0, 1.5, 3.0),
            (1.5, 0.0, 1.0, 1.0),  # r = 0: w0 + t w1
        ],
    )
    def test_matches_runge_kutta_reference(self, t, r, beta, nu):
        # The unforced RK45 reference is the matrix exponential's own check;
        # the tolerance is RK45's error, not the exponential's.
        dp = DampingParams(beta, nu)
        for w0, w1 in ((1.0, 0.0), (0.0, 1.0), (0.3, -1.2)):
            got = mode_oracle(t, r, dp, w0, w1)
            ref = forced_mode_oracle(t, r, dp, w0, w1, lambda tau: 0.0)
            for x, y in zip(got, ref):
                assert abs(x - y) <= 1e-8 * max(abs(y), 1e-2)

    def test_criterion_1_reads_the_closed_forms_error(self, tmp_path):
        # The exact oracle leaves only the kernels' rounding: far below the
        # 1e-8 bound on the checked-in config (RK45 read 4.79e-10 there).
        assert cli.run_scenario(REPO_CONFIGS / "kernels.ini", tmp_path) == 0
        assert criterion_1(tmp_path)["value"] < 1e-11

    def test_perturbed_k1_fails_criterion_1(self, tmp_path, monkeypatch):
        real = cli.kernel_hat

        def perturbed(t, r, params, which="K0", dt_order=0):
            value = real(t, r, params, which, dt_order)
            return value * (1.0 + 1e-7) if which == "K1" else value

        monkeypatch.setattr(cli, "kernel_hat", perturbed)
        assert cli.run_scenario(REPO_CONFIGS / "kernels.ini", tmp_path) == 1
        check = criterion_1(tmp_path)
        assert not check["passed"] and check["value"] > 1e-8

    def test_constant_forcing_matches_quadrature(self):
        dp = DampingParams(1.0, 1.0)
        r, t = 1.3, 4.0
        w, _ = forced_mode_oracle(t, r, dp, 0.0, 0.0, lambda tau: 1.0)
        ref = forced_kernel_quadrature(t, r, dp, lambda tau: 1.0)
        assert w == pytest.approx(ref, abs=1e-7)

    def test_sampled_forcing(self):
        dp = DampingParams(0.8, 1.2)
        r, t = 0.9, 3.0
        taus = np.linspace(0.0, t, 400)
        vals = np.sin(taus)
        w, _ = forced_mode_oracle(t, r, dp, 0.0, 0.0, (taus, vals))
        ref = forced_kernel_quadrature(t, r, dp, np.sin)
        assert w == pytest.approx(ref, abs=1e-7)


class TestLowFreqResidual:
    def test_residuals_small_on_grid(self):
        dp = DampingParams(1.0, 1.0)
        ts = np.linspace(0.0, 20.0, 50)
        rs = np.linspace(1e-3, 0.9, 50)
        for t in ts:
            r24, r25 = lowfreq_residual(t, rs, dp)
            assert np.max(r24) <= 1e-10 * (1.0 + t)
            assert np.max(r25) <= 1e-10 * (1.0 + t)

    def test_small_r_limit(self):
        r24, r25 = lowfreq_residual(10.0, 1e-8, DampingParams(1.0, 1.0))
        assert r25 < 1e-12

    def test_out_of_domain(self):
        dp = DampingParams(1.0, 1.0)
        with pytest.raises(OutOfDomainError):
            lowfreq_residual(1.0, dp.root_threshold + 0.1, dp)

    def test_wrong_cosine_envelope_fails_the_first_identity(self, monkeypatch):
        # K00 is its own closed form, not the EC envelope K0 is built from, so
        # an EC that is off by a relative 1e-6 shows in the first residual.
        envelopes = kernels._envelopes

        def scaled(params, t, r):
            ec, es, m = envelopes(params, t, r)
            return ec * (1.0 + 1e-6), es, m

        monkeypatch.setattr(kernels, "_envelopes", scaled)
        r24, _ = lowfreq_residual(2.0, np.array([0.2, 0.5, 0.9]), DampingParams(1.0, 1.0))
        assert np.max(r24) > 1e-10
