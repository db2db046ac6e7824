"""Acceptance suite: one test per quantitative exit criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them live)
and asserts the stated tolerance.  The default scenario everywhere is
lambda = 0, mu = 1, nu = 1, so both wave families are active and distinct.
"""

import math

import numpy as np
import pytest

from conftest import centered_gaussian
from viscowave.asymptotics import (
    LinearSource,
    NormSpec,
    SUPPORTED_NORMS,
    decay_slope,
    linear_norm,
    profile_error_series,
)
from viscowave.audit import (
    SYMBOL_BOUNDS,
    decay_fit,
    dilation_ratios,
    heat_multiplier_l1,
    inequality_check,
    symbol_bound_scan,
)
from viscowave.elastic import (
    LameParams,
    default_cutoffs,
    diagonalize_check,
    linear_propagate,
)
from viscowave.grid import VectorField, make_grid, transform, zero_field
from viscowave.kernels import DampingParams, kernel_hat, lowfreq_residual, mode_oracle
from viscowave.solver import (
    ContractionTensor,
    SolverConfig,
    evolve,
    picard_iterate,
    x1_data_seminorm,
    x1_distance,
)

LAME = LameParams(0.0, 1.0, 1.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_kernel_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(200):
        beta, nu = rng.uniform(0.1, 4.0, 2)
        r = rng.uniform(0.0, 8.0)
        t = rng.uniform(0.0, 20.0)
        dp = DampingParams(beta, nu)
        for which, w0, w1 in (("K0", 1.0, 0.0), ("K1", 0.0, 1.0)):
            w, _ = mode_oracle(t, r, dp, w0, w1)
            closed = kernel_hat(t, r, dp, which)
            err = abs(closed - w) / max(abs(w), 1e-2)  # 1e-10 absolute floor at 1e-8 rel
            worst = max(worst, err)
    report(1, worst <= 1e-8, f"worst closed-form vs oracle relative error {worst:.3e}")


def test_criterion_02_lowfreq_representation():
    cutoff = default_cutoffs(LAME)
    ts = np.linspace(0.0, 20.0, 50)
    worst = 0.0
    for dp in (LAME.long_params, LAME.trans_params):
        rs = np.linspace(1e-4, 0.99 * min(cutoff.c0, 0.99 * dp.root_threshold), 50)
        for t in ts:
            r24, r25 = lowfreq_residual(t, rs, dp)
            worst = max(worst, float(np.max(np.maximum(r24, r25) / (1.0 + t))))
    report(2, worst <= 1e-10, f"worst representation residual / (1+t) = {worst:.3e}")


def test_criterion_03_linear_decay_rates():
    src = LinearSource.gaussian(sigma=0.5)
    times = np.logspace(2, 4, 9)
    targets = [
        (NormSpec(1, 0, 2.0), -0.75),
        (NormSpec(2, 0, 2.0), -1.25),
        (NormSpec(3, 0, 2.0), -1.75),
        (NormSpec(0, 1, 2.0), -0.75),
        (NormSpec(1, 1, 2.0), -1.25),
    ]
    details = []
    ok = True
    for spec, target in targets:
        vals = [linear_norm(LAME, src, spec, float(t)) for t in times]
        rep = decay_slope(times, vals, expected=target)
        ok &= abs(rep.slope - target) <= 0.05
        details.append(f"{spec.label()}:{rep.slope:+.3f}")
    report(3, ok, "slopes " + " ".join(details) + " all within 0.05 of theory")


def test_criterion_04_smoothing_rates():
    src = LinearSource.gaussian(sigma=0.5)
    times = np.logspace(2, 4, 9)
    targets = [
        (NormSpec(0, 0, math.inf), -1.5),
        (NormSpec(1, 0, math.inf), -2.0),
        (NormSpec(0, 2, 2.0), -1.25),
    ]
    ok = True
    details = []
    for spec, target in targets:
        vals = [linear_norm(LAME, src, spec, float(t)) for t in times]
        rep = decay_slope(times, vals, expected=target)
        ok &= abs(rep.slope - target) <= 0.1
        details.append(f"{spec.label()}:{rep.slope:+.3f}")
    report(4, ok, "smoothing slopes " + " ".join(details) + " within 0.1")


def test_criterion_05_profile_convergence_gain():
    src = LinearSource.gaussian(sigma=0.5)
    times = np.logspace(2, 4, 9)
    ok = True
    details = []
    for (which, ell), table in sorted(SUPPORTED_NORMS.items()):
        for p, alphas in sorted(table.items()):
            for alpha in alphas:
                spec = NormSpec(alpha, ell, p)
                sol, err = profile_error_series(src, which, spec, times, lame=LAME)
                gain = sol.slope - err.slope
                ok &= gain >= 0.35
                details.append(f"{which}/{spec.label()}:gain {gain:+.2f}")
    report(5, ok, "; ".join(details))


def test_criterion_06_mid_high_exponential_decay():
    cutoff = default_cutoffs(LAME)
    c0, c1 = cutoff.c0, cutoff.c1
    m_lo = max(c0, 1.1 * 2.0 * max(LAME.beta_long, LAME.beta_trans) / LAME.nu)
    gm = lambda r: np.exp(-(((r - 0.5 * (m_lo + c1)) / ((c1 - m_lo) / 6.0)) ** 2))
    gh = lambda r: np.exp(-((r - 2.2 * c1) ** 2))
    ok = True
    details = []
    for part, ghat in (("M", gm), ("H", gh)):
        for which in ("K0", "K1"):
            fit = decay_fit(part, which, ghat, LAME, cutoff=cutoff)
            ok &= fit.c_fit > 0.0 and fit.residual <= 0.05
            details.append(f"{part}/{which}: c={fit.c_fit:.2f} res={fit.residual:.3f}")
            if part == "H" and which == "K1":
                log_range = float(np.ptp(np.log(fit.values)))
                pref = fit.prefactor * math.exp(fit.residual * log_range) / fit.grad_norm
                env = pref * np.exp(-fit.c_fit * fit.times) * fit.grad_norm
                ok &= bool(np.all(fit.values <= env * (1.0 + 1e-9)))
                details.append(f"gradient envelope prefactor {pref:.3g}")
    report(6, ok, "; ".join(details))


@pytest.fixture(scope="module")
def nonlinear_grid_data():
    g = make_grid(64, 16.0)
    f0 = centered_gaussian(g, sigma=0.8)
    f1 = centered_gaussian(g, sigma=0.8)
    scale = 1e-3 / x1_data_seminorm(f0, f1)
    return (
        g,
        VectorField(g, scale * f0.data, "physical"),
        VectorField(g, scale * f1.data, "physical"),
    )


def test_criterion_07_fixed_point_construction(nonlinear_grid_data):
    g, f0, f1 = nonlinear_grid_data
    cfg = SolverConfig(dt=1.25, t_end=25.0, picard_tol=1e-10)
    traj_p, history = picard_iterate(f0, f1, LAME, ContractionTensor.default(), cfg)
    ratios = [h["ratio"] for h in history if h["ratio"] is not None]
    traj_e = evolve(f0, f1, LAME, ContractionTensor.default(), cfg)
    dist = x1_distance(traj_e, traj_p)
    ok = (
        len(ratios) >= 1
        and max(ratios) <= 0.5
        and dist <= 5.0 * cfg.picard_tol
    )
    report(
        7,
        ok,
        f"ratios {['%.2e' % r for r in ratios]} (<= 1/2), "
        f"fixed point vs marching X1 distance {dist:.3e} <= {5 * cfg.picard_tol:.1e}",
    )


def test_criterion_08_nonlinear_consistency(nonlinear_grid_data):
    g, f0, f1 = nonlinear_grid_data
    cfg = SolverConfig(dt=0.25, t_end=5.0)

    traj0 = evolve(f0, f1, LAME, ContractionTensor.zero(), cfg)
    f0h, f1h = transform(f0), transform(f1)
    lin = linear_propagate(f0h, f1h, cfg.t_end, LAME)
    scale = np.max(np.abs(lin.displacement_hat.data))
    lin_err = np.max(np.abs(traj0.states[-1].displacement_hat.data - lin.displacement_hat.data))
    lin_err /= scale
    del traj0

    devs = []
    for eps_fac in (1.0, 0.5):
        fe0 = VectorField(g, eps_fac * f0.data, "physical")
        fe1 = VectorField(g, eps_fac * f1.data, "physical")
        traj = evolve(fe0, fe1, LAME, ContractionTensor.default(), cfg)
        worst = 0.0
        fe0h, fe1h = transform(fe0), transform(fe1)
        for t, st in zip(traj.times[1:], traj.states[1:]):
            ref = linear_propagate(fe0h, fe1h, float(t), LAME)
            num = np.linalg.norm(st.displacement_hat.data - ref.displacement_hat.data)
            den = np.linalg.norm(ref.displacement_hat.data)
            worst = max(worst, num / den)
        devs.append(worst)
        del traj
    ratio = devs[1] / devs[0]
    ok = lin_err <= 1e-10 and abs(ratio - 0.5) <= 0.1
    report(
        8,
        ok,
        f"zero-tensor deviation {lin_err:.2e} (<= 1e-10); "
        f"halved-amplitude deviation ratio {ratio:.3f} (0.5 +- 0.1)",
    )


def test_criterion_09_inequality_audit():
    gauss = lambda x, y, z: np.exp(-0.5 * (x * x + y * y + z * z))
    grid = make_grid(128, 24.0)
    ok = True
    details = []
    for ineq in ("GN_INF", "GN_L1", "GRAD_2P", "SOB_6"):
        ratios = dilation_ratios(ineq, gauss, grid, (0.5, 1.0, 2.0))
        spread = (max(ratios) - min(ratios)) / max(ratios)
        ok &= spread <= 1e-6
        details.append(f"{ineq} spread {spread:.1e}")
    del grid

    g2 = make_grid(32, 16.0)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        worst = max(worst, inequality_check("RIESZ", g2, rng.standard_normal(g2.shape)))
    ok &= worst <= 1.0 + 1e-14
    details.append(f"Riesz ratio {worst:.12f}")

    cutoff = default_cutoffs(LAME)
    ts = np.geomspace(2.0, 200.0, 9)
    for alpha, ell, target in ((1, 0, -0.5), (2, 0, -1.0), (0, 1, -1.0)):
        vals = [heat_multiplier_l1(float(t), LAME.nu, cutoff, alpha, ell) for t in ts]
        rep = decay_slope(ts, vals)
        ok &= rep.slope <= target + 0.1
        details.append(f"heat({alpha},{ell}) slope {rep.slope:+.2f}")
    report(9, ok, "; ".join(details))


def test_criterion_10_symbol_bound_scans():
    ok = True
    details = []
    cutoff = default_cutoffs(LAME)
    for dp, fam in ((LAME.long_params, "long"), (LAME.trans_params, "trans")):
        r_hi = min(cutoff.c0, 0.9 * dp.root_threshold)
        for bid in SYMBOL_BOUNDS:
            r1 = symbol_bound_scan(bid, (1.0, 1e3), (1e-3, r_hi), dp, 64, seed=5)
            r2 = symbol_bound_scan(bid, (1.0, 1e3), (1e-3, r_hi), dp, 128, seed=5)
            hi = max(r1.max_ratio, r2.max_ratio)
            lo = max(min(r1.max_ratio, r2.max_ratio), 1e-300)
            ok &= np.isfinite(hi) and hi / lo < 2.0
            details.append(f"{fam}/{bid}:{hi:.3g}(x{hi / lo:.2f})")
    report(10, ok, "sup ratios stable under density doubling: " + "; ".join(details))


def test_criterion_11_structural_identities(tmp_path):
    rng = np.random.default_rng(6)
    worst_diag = max(
        diagonalize_check(1.1, rng.standard_normal(3), LAME, which=w, dt_order=l)
        for w in ("K0", "K1")
        for l in (0, 1)
        for _ in range(25)
    )

    g = make_grid(32, 16.0)
    f0h = transform(centered_gaussian(g, sigma=0.8))
    f1h = transform(centered_gaussian(g, sigma=0.6))
    first = linear_propagate(f0h, f1h, 1.7, LAME)
    two_step = linear_propagate(first.displacement_hat, first.velocity_hat, 2.9, LAME)
    direct = linear_propagate(f0h, f1h, 4.6, LAME)
    scale = np.max(np.abs(direct.displacement_hat.data))
    semi = max(
        np.max(np.abs(two_step.displacement_hat.data - direct.displacement_hat.data)),
        np.max(np.abs(two_step.velocity_hat.data - direct.velocity_hat.data)),
    ) / scale

    lame_eq = LameParams(-1.0, 1.0, 1.0)
    f = centered_gaussian(g, components=(1.0, 0.0, 0.0))
    st = linear_propagate(transform(zero_field(g)), transform(f), 3.0, lame_eq)
    u = transform(st.displacement_hat)
    decouple = max(np.max(np.abs(u.data[1])), np.max(np.abs(u.data[2])))
    decouple /= np.max(np.abs(u.data[0]))

    from viscowave.cli import run_scenario

    cfg = tmp_path / "det.ini"
    cfg.write_text(
        "[scenario]\nname = det\nsuite = kernels\nseed = 5\n"
        "[kernels]\noracle_samples = 5\n"
    )
    assert run_scenario(cfg, tmp_path / "d1") == 0
    assert run_scenario(cfg, tmp_path / "d2") == 0
    bytes1 = {p.name: p.read_bytes() for p in sorted((tmp_path / "d1").iterdir())}
    bytes2 = {p.name: p.read_bytes() for p in sorted((tmp_path / "d2").iterdir())}
    deterministic = bytes1 == bytes2

    ok = worst_diag <= 1e-12 and semi <= 1e-10 and decouple <= 1e-14 and deterministic
    report(
        11,
        ok,
        f"diagonalization {worst_diag:.1e} (<=1e-12); semigroup {semi:.1e} (<=1e-10); "
        f"decoupling {decouple:.1e}; deterministic reports {deterministic}",
    )
