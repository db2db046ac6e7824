"""Grid, transform, cutoff, and norm tests."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    band_limited_random,
    centered_gaussian,
    hermitian_defect,
    inverse_scalar,
    lattice_radius,
    zero_field,
)
from viscowave import grid
from viscowave.exceptions import InvalidExponentError, InvalidGridError, ShapeMismatchError
from viscowave.grid import (
    CutoffSpec,
    VectorField,
    dealias_mask,
    forward_scalar,
    half_seminorm,
    inverse_slabs,
    lp_norm,
    make_grid,
    sobolev_seminorm,
    transform,
)


class TestMakeGrid:
    def test_unit_lattice(self):
        g = make_grid(8, 2.0 * np.pi)
        ks = np.sort(g.xi1)
        assert np.allclose(ks, np.arange(-4, 4), atol=1e-14)

    def test_smallest_nonzero_frequency(self):
        g = make_grid(16, 1.0)
        nz = np.abs(g.xi1[np.abs(g.xi1) > 0])
        assert np.min(nz) == pytest.approx(2.0 * np.pi, rel=1e-15)

    def test_zero_vector_once(self):
        g = make_grid(8, 2.0 * np.pi)
        radius = lattice_radius(g)
        assert int(np.count_nonzero(radius == 0.0)) == 1
        assert radius.size == 8**3

    def test_xi2_is_the_safe_components_squared(self):
        # |xi|^2 sums the table's squared components, so each entry falls
        # short of the exact lattice |xi|^2 by xi(-n/2)^2 per Nyquist index.
        g = make_grid(16, 7.0)
        assert g.xi2.shape == g.half_shape
        assert np.array_equal(g.xi2, g.xi[0] ** 2 + g.xi[1] ** 2 + g.xi[2] ** 2)
        nyq = np.arange(g.n) == g.n // 2
        count = nyq[:, None, None] * 1 + nyq[None, :, None] + g.half_lattice(nyq)[None, None, :]
        k2 = g.xi1**2
        exact = k2[:, None, None] + k2[None, :, None] + g.half_lattice(k2)[None, None, :]
        assert np.array_equal(g.xi2[count == 0], exact[count == 0])
        assert np.allclose(g.xi2 + count * k2[g.n // 2], exact, rtol=1e-15, atol=0.0)

    def test_spacing_identity(self):
        g = make_grid(12, 7.5)
        assert g.spacing * g.n == pytest.approx(g.box_length, rel=1e-15)

    def test_unique_radii_are_exact(self):
        g = make_grid(16, 16.0)
        ks = range(-8, 8)
        k2 = sorted({a * a + b * b + c * c for a in ks for b in ks for c in ks})
        vals, inv = g.unique_radii()
        assert np.array_equal(vals, 2.0 * np.pi / g.box_length * np.sqrt(k2))
        assert inv.shape == g.half_shape
        assert np.allclose(vals[inv], g.half_lattice(lattice_radius(g)), rtol=1e-15, atol=0.0)
        # Rounding |xi| to 12 decimals split equal radii here (8,050 keys).
        assert make_grid(128, 24.0).unique_radii()[0].size == 8041

    def test_invalid(self):
        with pytest.raises(InvalidGridError):
            make_grid(7, 1.0)
        with pytest.raises(InvalidGridError):
            make_grid(4, 1.0)
        with pytest.raises(InvalidGridError):
            make_grid(8, -1.0)
        with pytest.raises(InvalidGridError):
            make_grid(8, math.inf)


class TestTransform:
    def test_zero_field(self, grid16):
        out = transform(zero_field(grid16))
        assert np.all(out.data == 0.0)

    def test_plane_wave_two_coefficients(self, grid8):
        x = grid8.x_component(0)
        data = np.zeros((3, *grid8.shape))
        data[0] = np.cos(x) * np.ones(grid8.shape)
        fh = transform(VectorField(grid8, data, "physical"))
        nonzero = np.abs(fh.data[0]) > 1e-12
        assert int(np.count_nonzero(nonzero)) == 2
        idx = np.argwhere(nonzero)
        assert sorted(grid8.xi1[i[0]] for i in idx) == [-1.0, 1.0]

    def test_round_trip(self, grid16):
        fld = band_limited_random(grid16, seed=1)
        back = transform(transform(fld))
        scale = np.max(np.abs(fld.data))
        assert np.max(np.abs(back.data - fld.data)) < 1e-12 * scale

    def test_plancherel(self, grid16):
        fld = band_limited_random(grid16, seed=2)
        fh = transform(fld)
        a = lp_norm(grid16, fld.data, 2)
        b = sobolev_seminorm(fh, 0)
        assert abs(a - b) <= 1e-12 * a

    def test_hermitian_symmetry(self, grid16):
        fh = transform(band_limited_random(grid16, seed=3))
        assert hermitian_defect(fh) < 1e-12


def random_scalar(grid, seed):
    """Real white noise: content up to the Nyquist planes on every axis."""
    return np.random.default_rng(seed).standard_normal(grid.shape)


def full_spectrum(grid, f):
    """``transform`` of the vector field ``f``, or of one carrying the scalar ``f`` in component 0."""
    if f.ndim == 3:
        f = np.stack([f, np.zeros_like(f), np.zeros_like(f)])
    return transform(VectorField(grid, f, "physical"))


class TestScalarTransform:
    def test_half_lattice_of_transform(self, grid16):
        f = random_scalar(grid16, 4)
        full = full_spectrum(grid16, f).data[0]
        half = forward_scalar(grid16, f)
        assert half.shape == (16, 16, 9)
        assert np.max(np.abs(half - full[..., :9])) < 1e-12 * np.max(np.abs(full))

    def test_round_trip(self, grid16):
        f = random_scalar(grid16, 5)
        back = inverse_scalar(grid16, forward_scalar(grid16, f))
        assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))

    # n = 32 is one slab; n = 112 is 23, 22 of five x-rows and one of two.
    @pytest.mark.parametrize("n, slabs", [(32, 1), (112, 23)])
    @pytest.mark.parametrize("workers", ["one", "all"])
    def test_slabs_concatenate_to_the_whole_inverse(self, monkeypatch, n, slabs, workers):
        g = make_grid(n, 24.0)
        fh = forward_scalar(g, random_scalar(g, n))
        whole = inverse_scalar(g, fh)
        monkeypatch.setattr(grid, "_WORKERS", 1 if workers == "one" else grid._WORKERS)
        got = list(inverse_slabs(g, fh))
        assert len(got) == slabs
        assert np.array_equal(np.concatenate(got), whole)
        with pytest.raises(ShapeMismatchError):
            next(inverse_slabs(g, np.zeros(g.shape, dtype=complex)))

    @pytest.mark.parametrize(
        "order, shape",
        [pytest.param(order, (), id=str(order)) for order in range(4)]
        + [pytest.param(order, (3,), id=f"vector-{order}") for order in range(4)],
    )
    def test_half_seminorm_matches_full_lattice(self, grid16, order, shape):
        # A scalar, or a (3, n, n, n/2 + 1) vector field in one call.
        f = np.random.default_rng(6).standard_normal((*shape, *grid16.shape))
        full = sobolev_seminorm(full_spectrum(grid16, f), order)
        fh = forward_scalar(grid16, f)
        assert fh.shape == (*shape, *grid16.half_shape)
        half = half_seminorm(grid16, fh, order)
        assert abs(half - full) <= 1e-12 * full

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_fft_workers_follow_cpu_affinity(self):
        # A process pinned to one CPU runs each transform on one worker.
        probe = "\n".join([
            "import os",
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
            "from viscowave import grid",
            "print(grid._WORKERS)",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True
        )
        assert done.stdout.strip() == "1"

    def test_first_transform_loads_scipy_fft(self):
        # scipy.fft is imported at the first transform, not with the module,
        # and the spectrum is the one scipy.fft.rfftn gives scaled by h^3 (2 pi)^(-3/2).
        probe = "\n".join([
            "import sys",
            "import numpy as np",
            "from viscowave.grid import forward_scalar, make_grid",
            "before = 'scipy.fft' in sys.modules",
            "g = make_grid(8, 8.0)",
            "f = np.random.default_rng(8).standard_normal(g.shape)",
            "fh = forward_scalar(g, f)",
            "after = 'scipy.fft' in sys.modules",
            "from scipy import fft",
            "ref = fft.rfftn(f, axes=(-3, -2, -1)) * (g.spacing**3 * (2.0 * np.pi) ** -1.5)",
            "print(before, after, np.array_equal(fh, ref))",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True
        )
        assert done.stdout.split() == ["False", "True", "True"]

    def test_half_wave_vectors_keep_nyquist_zeroing(self, grid16):
        xx, _, xz = grid16.xi
        assert xz.shape == (1, 1, 9) and xz[0, 0, -1] == 0.0
        assert xx.shape == (16, 1, 1) and xx[8, 0, 0] == 0.0
        assert np.array_equal(xx, grid16.xi_component_safe(0))
        # Only the zero mode and the Nyquist entry are 0.
        assert [np.count_nonzero(x) for x in grid16.xi] == [14, 14, 7]


class TestCutoffs:
    def test_partition_and_range(self):
        spec = CutoffSpec(c0=1.0, c1=4.0)
        r = np.linspace(0.0, 12.0, 4001)
        cl, cm, ch = spec.chi_l(r), spec.chi_m(r), spec.chi_h(r)
        assert np.array_equal(cl + cm + ch, np.ones_like(r))
        for arr in (cl, cm, ch):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)

    def test_support_conditions(self):
        spec = CutoffSpec(c0=1.0, c1=4.0)
        assert np.all(spec.chi_l(np.linspace(0, 0.5, 50)) == 1.0)
        assert np.all(spec.chi_l(np.linspace(1.0, 3.0, 50)) == 0.0)
        assert np.all(spec.chi_h(np.linspace(0, 4.0, 50)) == 0.0)
        assert np.all(spec.chi_h(np.linspace(8.0, 20.0, 50)) == 1.0)

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            CutoffSpec(c0=2.0, c1=1.0)


class TestLpNorm:
    def test_constant(self):
        g = make_grid(8, 3.0)
        data = np.zeros((3, *g.shape))
        data[1] = 2.5
        v = lp_norm(g, data, 2)
        assert v == pytest.approx(2.5 * 3.0**1.5, rel=1e-14)

    def test_sup(self, grid16):
        fld = band_limited_random(grid16, seed=8)
        assert lp_norm(grid16, fld.data, np.inf) == pytest.approx(np.max(np.abs(fld.data)))

    def test_gaussian_l2_analytic(self):
        g = make_grid(64, 16.0)
        sigma = 0.5
        fld = centered_gaussian(g, sigma=sigma, components=(1.0, 0.0, 0.0))
        # || (2 pi s^2)^{-3/2} e^{-|x|^2/(2 s^2)} ||_2 = (4 pi s^2)^{-3/4}
        exact = (4.0 * np.pi * sigma**2) ** -0.75
        assert lp_norm(g, fld.data, 2) == pytest.approx(exact, rel=1e-6)

    def test_iterable_sums_like_components(self, grid16):
        data = band_limited_random(grid16, seed=10).data
        for p in (1.0, 3.0, np.inf):
            assert lp_norm(grid16, iter(data), p) == pytest.approx(lp_norm(grid16, data, p), rel=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 2.5])
    def test_matches_an_exact_sum(self, grid16, p):
        # p = 1, 4 and 6 multiply instead of calling pow; every p must keep the value
        data = band_limited_random(grid16, seed=12).data
        kept = data.copy()
        exact = (math.fsum(abs(x) ** p for x in data.flat) * grid16.spacing**3) ** (1.0 / p)
        assert lp_norm(grid16, data, p) == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert np.array_equal(data, kept)

    def test_spectral_data_rejected(self, grid16):
        fh = transform(band_limited_random(grid16, seed=11))
        with pytest.raises(ValueError):
            lp_norm(grid16, fh.data, 2)
        with pytest.raises(ValueError):
            lp_norm(grid16, iter(fh.data), np.inf)

    def test_invalid_exponent(self, grid16):
        with pytest.raises(InvalidExponentError):
            lp_norm(grid16, zero_field(grid16).data, 0.5)

    def test_riesz_l2_contraction(self, grid16):
        fh = transform(band_limited_random(grid16, seed=9))
        xi = [grid16.xi_component_safe(a) for a in range(3)]
        r = np.sqrt(xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2)
        with np.errstate(invalid="ignore", divide="ignore"):
            riesz = np.where(r > 0, xi[0] / np.where(r > 0, r, 1.0), 0.0)
        out = VectorField(grid16, fh.data * riesz, "spectral")
        assert sobolev_seminorm(out, 0) <= sobolev_seminorm(fh, 0) * (1 + 1e-15)


def test_dealias_mask_counts(grid16):
    # On the half lattice the retained k_z run over 0 .. kmax only.
    mask = dealias_mask(grid16)
    kmax = grid16.n // 3
    assert mask.shape == grid16.half_shape
    assert mask.sum() == (2 * kmax + 1) ** 2 * (kmax + 1)
