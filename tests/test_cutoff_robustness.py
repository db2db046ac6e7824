"""Cutoff-dependent checks rerun with an alternative partition (c0/2, 2 c1).

The cutoff radii are a modelling choice; everything that references them must
keep passing for at least one admissible alternative.
"""

import numpy as np

from viscowave.audit import SYMBOL_BOUNDS, decay_fit, heat_multiplier_l1, symbol_bound_scan
from viscowave.asymptotics import decay_slope
from viscowave.elastic import LameParams, default_cutoffs
from viscowave.grid import CutoffSpec
from viscowave.kernels import lowfreq_residual

LAME = LameParams(0.0, 1.0, 1.0)


def variant_cutoffs() -> CutoffSpec:
    base = default_cutoffs(LAME)
    return CutoffSpec(c0=0.5 * base.c0, c1=2.0 * base.c1)


def test_partition_still_exact():
    spec = variant_cutoffs()
    r = np.linspace(0.0, 40.0, 2001)
    assert np.array_equal(spec.chi_l(r) + spec.chi_m(r) + spec.chi_h(r), np.ones_like(r))


def test_lowfreq_residuals_inside_smaller_support():
    spec = variant_cutoffs()
    ts = np.linspace(0.0, 20.0, 25)
    for dp in (LAME.long_params, LAME.trans_params):
        rs = np.linspace(1e-4, 0.99 * min(spec.c0, 0.99 * dp.root_threshold), 25)
        for t in ts:
            r24, r25 = lowfreq_residual(t, rs, dp)
            assert np.max(np.maximum(r24, r25) / (1.0 + t)) <= 1e-10


def test_banded_decay_fits_with_variant_cutoffs():
    spec = variant_cutoffs()
    m_lo = max(spec.c0, 1.1 * 2.0 * max(LAME.beta_long, LAME.beta_trans) / LAME.nu)
    gm = lambda r: np.exp(-(((r - 0.5 * (m_lo + spec.c1)) / ((spec.c1 - m_lo) / 6.0)) ** 2))
    gh = lambda r: np.exp(-(((r - 2.2 * spec.c1) / 2.0) ** 2))
    for part, g in (("M", gm), ("H", gh)):
        for which in ("K0", "K1"):
            fit = decay_fit(part, which, g, LAME, cutoff=spec, window=(0.1, 12.0))
            assert fit.c_fit > 0.0
            assert fit.residual <= 0.05


def test_symbol_scans_with_smaller_low_support():
    spec = variant_cutoffs()
    for dp in (LAME.long_params, LAME.trans_params):
        r_hi = min(spec.c0, 0.9 * dp.root_threshold)
        for bid in SYMBOL_BOUNDS:
            r1 = symbol_bound_scan(bid, (1.0, 1e3), (1e-3, r_hi), dp, 48, seed=9)
            r2 = symbol_bound_scan(bid, (1.0, 1e3), (1e-3, r_hi), dp, 96, seed=9)
            hi, lo = max(r1, r2), max(min(r1, r2), 1e-300)
            assert np.isfinite(hi) and hi / lo < 2.0


def test_heat_l1_slopes_with_variant_cutoffs():
    # halving c0 pushes the asymptotic onset out by 4x; scale the window along
    spec = variant_cutoffs()
    ts = np.geomspace(8.0, 800.0, 9)
    for alpha, ell, target in ((1, 0, -0.5), (0, 1, -1.0)):
        vals = [heat_multiplier_l1(float(t), LAME.nu, spec, alpha, ell) for t in ts]
        rep = decay_slope(ts, vals)
        assert rep.slope <= target + 0.1
