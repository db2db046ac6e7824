"""Elastic propagator tests: split, kernels, kernel sums, Duhamel, invariants."""

import numpy as np
import pytest

from conftest import (
    band_limited_random,
    centered_gaussian,
    forced_kernel_quadrature,
    lattice_radius,
    zero_field,
)
from viscowave.elastic import (
    LameParams,
    Propagator,
    energy,
    linear_propagate,
    split_longitudinal,
)
from viscowave.exceptions import OutOfDomainError, ShapeMismatchError
from viscowave.grid import (
    VectorField,
    forward_scalar,
    half_seminorm,
    inverse_scalar,
    sobolev_seminorm,
    transform,
)
from viscowave.kernels import kernel_hat, mode_oracle
from viscowave.radial import simpson_weights

LAME = LameParams(0.0, 1.0, 1.0)


class TestLameParams:
    @pytest.mark.parametrize(
        "args", [(np.inf, 1.0, 1.0), (np.nan, 1.0, 1.0), (0.0, np.inf, 1.0), (0.0, 1.0, np.inf)]
    )
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            LameParams(*args)


def half_spectrum(fld):
    """The half-lattice spectrum of a physical field."""
    return forward_scalar(fld.grid, fld.data)


class TestLinearPropagate:
    def test_t0_identity(self, grid16):
        f0 = half_spectrum(centered_gaussian(grid16))
        f1 = half_spectrum(centered_gaussian(grid16, sigma=0.6))
        u, v = linear_propagate(grid16, f0, f1, 0.0, LAME)
        assert np.max(np.abs(u - f0)) < 1e-14
        assert np.max(np.abs(v - f1)) < 1e-14

    def test_longitudinal_plane_wave(self, grid8):
        # data on a single mode, aligned with xi: evolves by the long-speed kernel
        i1 = int(np.argwhere(grid8.xi1 == 1.0)[0][0])
        data = np.zeros((3, *grid8.half_shape), dtype=np.complex128)
        data[0, i1, 0, 0] = 1.0
        data[0, (-i1) % grid8.n, 0, 0] = 1.0  # Hermitian partner, also on the k_z = 0 plane
        u, _ = linear_propagate(grid8, np.zeros_like(data), data, 2.5, LAME)
        expected = kernel_hat(2.5, 1.0, LAME.long_params, "K1")
        assert u[0, i1, 0, 0] == pytest.approx(expected, rel=1e-13)

    def test_per_mode_oracle(self, grid8):
        f0 = half_spectrum(band_limited_random(grid8, seed=10))
        f1 = half_spectrum(band_limited_random(grid8, seed=11))
        t = 1.7
        u, _ = linear_propagate(grid8, f0, f1, t, LAME)
        # check a sample of modes against the scalar ODE oracle per branch
        rng = np.random.default_rng(12)
        idxs = rng.integers(0, grid8.half_shape, size=(12, 3))
        for i, j, k in idxs:
            xi = np.array([grid8.xi1[i], grid8.xi1[j], grid8.xi1[k]])
            r = float(np.linalg.norm(xi))
            if r == 0.0:
                continue
            q = xi / r
            p = np.outer(q, q)
            for dp, proj in ((LAME.long_params, p), (LAME.trans_params, np.eye(3) - p)):
                a0 = proj @ f0[:, i, j, k]
                a1 = proj @ f1[:, i, j, k]
                got = proj @ u[:, i, j, k]
                for comp in range(3):
                    wr, _ = mode_oracle(t, r, dp, a0[comp].real, a1[comp].real)
                    wi, _ = mode_oracle(t, r, dp, a0[comp].imag, a1[comp].imag)
                    want = wr + 1j * wi
                    assert abs(got[comp] - want) <= 1e-8 * max(abs(want), 1e-6)

    def test_per_time_propagator_displacement_is_bit_identical(self, grid16):
        # a Propagator per time, displacement only, as the nonlinear suite's
        # reference builds it, equals linear_propagate's displacement bit for bit
        f0 = half_spectrum(centered_gaussian(grid16))
        f1 = half_spectrum(band_limited_random(grid16, seed=3))
        for t in (0.5, 1.25, 3.0):
            prop = Propagator(grid16, LAME, (t,))
            u, v = prop.propagate(t, f0, f1, velocity=False)
            assert v is None
            assert np.array_equal(u, linear_propagate(grid16, f0, f1, t, LAME)[0])

    def test_semigroup(self, grid16):
        f0 = half_spectrum(centered_gaussian(grid16))
        f1 = half_spectrum(centered_gaussian(grid16, sigma=0.5))
        first = linear_propagate(grid16, f0, f1, 1.1, LAME)
        one = linear_propagate(grid16, *first, 2.3, LAME)
        direct = linear_propagate(grid16, f0, f1, 3.4, LAME)
        scale = np.max(np.abs(direct[0]))
        assert np.max(np.abs(one[0] - direct[0])) <= 1e-10 * scale
        assert np.max(np.abs(one[1] - direct[1])) <= 1e-10 * scale

    def test_energy_dissipation(self, grid16):
        lame = LameParams(-1.5, 1.0, 0.8)  # lambda + mu < 0 allowed; energy still decays
        f0 = half_spectrum(centered_gaussian(grid16))
        f1 = half_spectrum(centered_gaussian(grid16, sigma=0.5))
        es = [
            energy(grid16, *linear_propagate(grid16, f0, f1, t, lame), lame)
            for t in np.linspace(0.0, 12.0, 20)
        ]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(es, es[1:]))

    def test_rotation_equivariance(self, grid16):
        # Quarter turn about z: R(x,y,z) = (-y, x, z), exact on the lattice.
        f0 = band_limited_random(grid16, seed=13).data
        f1 = band_limited_random(grid16, seed=14).data
        n = grid16.n
        inv = (-np.arange(n)) % n

        def rot(d):
            # (R u)(x) = R u(R^{-1} x) with R^{-1}(x,y,z) = (y, -x, z)
            moved = d[:, :, inv, :].transpose(0, 2, 1, 3)
            return np.ascontiguousarray(np.stack([-moved[1], moved[0], moved[2]]))

        def evolved(a0, a1):
            fwd = [forward_scalar(grid16, a) for a in (a0, a1)]
            return inverse_scalar(grid16, linear_propagate(grid16, *fwd, 2.0, LAME)[0])

        evolved_then_rot = rot(evolved(f0, f1))
        rot_then_evolved = evolved(rot(f0), rot(f1))
        scale = np.max(np.abs(evolved_then_rot))
        diff = np.max(np.abs(evolved_then_rot - rot_then_evolved))
        assert diff <= 1e-12 * scale

    def test_component_decoupling(self, grid16):
        # lambda + mu = 0 with data in component 0 only stays in component 0
        lame = LameParams(-1.0, 1.0, 1.0)
        f = half_spectrum(centered_gaussian(grid16, components=(1.0, 0.0, 0.0)))
        u, _ = linear_propagate(grid16, np.zeros_like(f), f, 3.0, lame)
        u = inverse_scalar(grid16, u)
        assert np.max(np.abs(u[1])) <= 1e-15 * np.max(np.abs(u[0]))
        assert np.max(np.abs(u[2])) <= 1e-15 * np.max(np.abs(u[0]))

    @pytest.mark.parametrize("shape", [(3, 16, 16, 16), (16, 16, 9), (3, 16, 16, 8)])
    def test_wrong_shape_rejected(self, grid16, shape):
        ok = np.zeros((3, *grid16.half_shape), dtype=np.complex128)
        with pytest.raises(ShapeMismatchError):
            linear_propagate(grid16, np.zeros(shape, dtype=np.complex128), ok, 1.0, LAME)
        with pytest.raises(ShapeMismatchError):
            linear_propagate(grid16, ok, np.zeros(shape, dtype=np.complex128), 1.0, LAME)


class TestPropagator:
    def terms(self, grid):
        """Weighted K0 and K1 terms at both steps 0.5 and 1.25, on white-noise spectra."""
        rng = np.random.default_rng(24)
        xs = [forward_scalar(grid, rng.standard_normal((3, *grid.shape))) for _ in range(4)]
        return [
            (0.7, 0.5, "K0", xs[0]),
            (-1.3, 1.25, "K1", xs[1]),
            (2.1, 1.25, "K0", xs[2]),
            (0.4, 0.5, "K1", xs[3]),
        ]

    def test_apply_is_the_weighted_projector_sum(self, grid16):
        # Independent reference: w (k_long P x + k_trans (I - P) x), with the
        # scalar kernels at the exact radii and P from split_longitudinal.
        terms = self.terms(grid16)
        u, v = Propagator(grid16, LAME, (0.5, 1.25)).apply(terms)
        r = grid16.half_lattice(lattice_radius(grid16))
        for order, got in ((0, u), (1, v)):
            want = np.zeros_like(got)
            for w, tau, which, x in terms:
                par, perp = split_longitudinal(grid16, x)
                k_long = kernel_hat(tau, r, LAME.long_params, which, order)
                k_trans = kernel_hat(tau, r, LAME.trans_params, which, order)
                want += w * (k_long * par + k_trans * perp)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_displacement_only(self, grid16):
        terms = self.terms(grid16)
        prop = Propagator(grid16, LAME, (0.5, 1.25))
        u, v = prop.apply(terms, velocity=False)
        assert v is None
        assert np.array_equal(u, prop.apply(terms)[0])

    def test_successive_calls_return_fresh_arrays(self, grid16):
        # Picard stores the returned states, so a later call must not write into them.
        terms = self.terms(grid16)
        prop = Propagator(grid16, LAME, (0.5, 1.25))
        first = prop.apply(terms)
        kept = [a.copy() for a in first]
        second = prop.apply(terms[::-1])
        for a in first:
            assert not any(np.shares_memory(a, b) for b in second)
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))

    def test_no_terms_rejected(self, grid16):
        with pytest.raises(ValueError, match="at least one term"):
            Propagator(grid16, LAME, (0.5,)).apply([])

    def test_wrong_shape_term_rejected(self, grid16):
        ok = np.zeros((3, *grid16.half_shape), dtype=np.complex128)
        bad = np.zeros((3, 16, 16, 8), dtype=np.complex128)
        with pytest.raises(ShapeMismatchError):
            Propagator(grid16, LAME, (0.5,)).apply([(1.0, 0.5, "K0", ok), (0.5, 0.5, "K1", bad)])

    @pytest.mark.parametrize("t", [-5.0, -1e-3, np.nan, np.inf, -np.inf])
    def test_negative_or_non_finite_step_rejected(self, grid16, t):
        f = np.zeros((3, *grid16.half_shape), dtype=np.complex128)
        with pytest.raises(OutOfDomainError):
            Propagator(grid16, LAME, (0.5, t))
        with pytest.raises(OutOfDomainError):
            linear_propagate(grid16, f, f, t, LAME)


class TestEnergy:
    def test_half_lattice_energy_is_the_full_lattice_formula(self, grid16):
        # White noise: content on every k_z plane, the self-mirror ones included.
        # Every |xi| is the Nyquist-safe one.
        rng = np.random.default_rng(16)
        u, v = (rng.standard_normal((3, *grid16.shape)) for _ in range(2))
        lame = LameParams(0.5, 1.0, 1.0)
        uh = transform(VectorField(grid16, u, "physical")).data
        vh = transform(VectorField(grid16, v, "physical")).data
        xi = [grid16.xi_component_safe(a) for a in range(3)]
        div = sum(xi[a] * uh[a] for a in range(3))
        dxi3 = (2.0 * np.pi / grid16.box_length) ** 3
        want = dxi3 * (
            np.sum(np.abs(vh) ** 2)
            + lame.mu * np.sum(sum(x**2 for x in xi) * np.abs(uh) ** 2)
            + (lame.lam + lame.mu) * np.sum(np.abs(div) ** 2)
        )
        got = energy(grid16, forward_scalar(grid16, u), forward_scalar(grid16, v), lame)
        assert got == pytest.approx(want, rel=1e-12)


def full_lattice_split(fld):
    """Reference split on the full lattice, with the same Nyquist-safe wave vectors."""
    grid = fld.grid
    xi = [grid.xi_component_safe(a) for a in range(3)]
    dot = sum(xi[a] * fld.data[a] for a in range(3))
    r2 = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(r2 > 0, dot / np.where(r2 > 0, r2, 1.0), 0.0)
    par = np.stack([scale * xi[a] for a in range(3)])
    return par, fld.data - par


class TestSplitLongitudinal:
    def test_half_lattice_split_is_the_full_split_cropped(self, grid16):
        # White noise: content on every Nyquist plane.
        data = np.random.default_rng(15).standard_normal((3, *grid16.shape))
        fh = transform(VectorField(grid16, data, "physical"))
        full = full_lattice_split(fh)
        par, perp = split_longitudinal(grid16, grid16.half_lattice(fh.data))
        assert par.shape == perp.shape == (3, 16, 16, 9)
        assert np.array_equal(par, grid16.half_lattice(full[0]))
        assert np.array_equal(perp, grid16.half_lattice(full[1]))
        # The unpaired k_z = n/2 component goes transverse.
        assert np.all(par[2, ..., -1] == 0.0)
        assert np.array_equal(perp[2, ..., -1], fh.data[2, ..., 8])
        # The parts are orthogonal, and their mirror-weighted norms are the full lattice's.
        for part, ref in ((par, full[0]), (perp, full[1])):
            want = sobolev_seminorm(VectorField(grid16, ref, "spectral"), 0)
            assert abs(half_seminorm(grid16, part, 0) - want) <= 1e-12 * want
        total = half_seminorm(grid16, par, 0) ** 2 + half_seminorm(grid16, perp, 0) ** 2
        assert total == pytest.approx(sobolev_seminorm(fh, 0) ** 2, rel=1e-12)


def simpson_duhamel(samples, delta):
    """Composite-Simpson forcing integral over one step through ``Propagator.apply``.

    ``samples`` are spectral forcing fields at uniformly spaced times across the
    step (odd count); returns the half-lattice (displacement, velocity) increments.
    """
    n = len(samples)
    w = simpson_weights(n, delta / (n - 1))
    lags = [delta - delta * i / (n - 1) for i in range(n)]
    grid = samples[0].grid
    prop = Propagator(grid, LAME, lags)
    gs = [grid.half_lattice(fs.data) for fs in samples]
    return prop.apply([(wj, lag, "K1", g) for wj, lag, g in zip(w, lags, gs)])


class TestDuhamel:
    def test_zero_forcing(self, grid16):
        samples = [transform(zero_field(grid16))] * 3
        du, dv = simpson_duhamel(samples, 0.5)
        assert np.all(du == 0.0) and np.all(dv == 0.0)

    def test_insufficient_samples(self, grid16):
        samples = [transform(zero_field(grid16))] * 2
        with pytest.raises(ValueError, match="odd number"):
            simpson_duhamel(samples, 0.5)

    def test_constant_single_mode_forcing(self, grid8):
        # constant-in-time forcing on one longitudinal mode vs the scalar oracle
        i1 = int(np.argwhere(grid8.xi1 == 1.0)[0][0])
        data = np.zeros((3, *grid8.shape), dtype=np.complex128)
        data[0, i1, 0, 0] = 1.0
        fs = VectorField(grid8, data, "spectral")
        delta = 0.4
        # finer Simpson grid for accuracy of the step rule itself
        du, _ = simpson_duhamel([fs] * 9, delta)
        ref = forced_kernel_quadrature(delta, 1.0, LAME.long_params, lambda tau: 1.0)
        assert du[0, i1, 0, 0] == pytest.approx(ref, abs=1e-7)

    def test_small_step_scaling(self, grid16):
        # K1(0) = 0 and dK1(0) = 1 make the increment O(delta^2)
        fs = transform(centered_gaussian(grid16))
        ratios = []
        for delta in (0.2, 0.1, 0.05):
            du, _ = simpson_duhamel([fs] * 3, delta)
            ratios.append(np.max(np.abs(du)) / delta**2)
        assert max(ratios) / min(ratios) < 1.5
