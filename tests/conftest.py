"""Shared builders and test-only oracles for the test suite."""

import tracemalloc
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from viscowave.elastic import LameParams
from viscowave.grid import Grid3, VectorField, _forward_scale, _irfftn, half_seminorm, make_grid
from viscowave.kernels import DampingParams, kernel_hat
from viscowave.solver import SolverConfig, Trajectory, _x1_integrand, evolve

REPO_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def checked_in(name: str, **overrides) -> str:
    """A checked-in config's text with its ``key = value`` lines replaced."""
    text = (REPO_CONFIGS / f"{name}.ini").read_text()
    for key, value in overrides.items():
        lines = text.splitlines()
        (i,) = [j for j, line in enumerate(lines) if line.split("=")[0].strip() == key]
        lines[i] = f"{key} = {value}"
        text = "\n".join(lines) + "\n"
    return text


def traced_peak(fn: Callable) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``fn()`` runs, above those held when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def lattice_radius(grid: Grid3) -> np.ndarray:
    """The exact lattice ``|xi|`` on the full lattice, Nyquist entries included.

    Not the library's Nyquist-safe table, whose radius is 0 at ``k = (-n/2, 0, 0)``:
    the exact one is what band-limits a field and keys the radial kernels.
    """
    xi1 = grid.xi1
    return np.sqrt(xi1[:, None, None] ** 2 + xi1[None, :, None] ** 2 + xi1[None, None, :] ** 2)


def inverse_scalar(grid: Grid3, fh: np.ndarray) -> np.ndarray:
    """Physical values of a half-lattice spectrum: the inverse of ``forward_scalar``.

    Transforms the last three axes, like ``forward_scalar``; ``inverse_slabs``
    matches it bit for bit.
    """
    # One expression, so numpy divides the irfftn temporary in place.
    return _irfftn(grid, fh) / _forward_scale(grid)


def energy(grid: Grid3, u: np.ndarray, v: np.ndarray, lame: LameParams) -> float:
    """Dissipated energy ``||v||^2 + mu || |xi| u ||^2 + (lam+mu) ||xi.u||^2`` of a state.

    ``u`` and ``v`` are half-lattice spectra; each norm is a mirror-weighted
    ``half_seminorm``, and ``xi`` the grid's Nyquist-safe table.
    """
    div = sum(grid.xi[a] * u[a] for a in range(3))
    return (
        half_seminorm(grid, v, 0) ** 2
        + lame.mu * half_seminorm(grid, u, 1) ** 2
        + (lame.lam + lame.mu) * half_seminorm(grid, div, 0) ** 2
    )


def centered_gaussian(grid, sigma=0.8, mass=1.0, components=(1.0, 1.0, 1.0)):
    """Unit-mass-normalized Gaussian bump at the box center in each component."""
    L = grid.box_length
    x = [grid.x_component(a) - L / 2.0 for a in range(3)]
    r2 = x[0] ** 2 + x[1] ** 2 + x[2] ** 2
    prof = mass * np.exp(-r2 / (2.0 * sigma**2)) / (sigma**3 * (2.0 * np.pi) ** 1.5)
    data = np.stack([c * prof for c in components])
    return VectorField(grid, data, "physical")


def zero_field(grid: Grid3) -> VectorField:
    return VectorField(grid=grid, data=np.zeros((3, *grid.shape)), space="physical")


def band_limited_random(grid, seed=0, keep_fraction=0.4, components=3):
    """Real random field with spectrum confined to a centered ball."""
    from viscowave.grid import transform

    rng = np.random.default_rng(seed)
    data = np.zeros((3, *grid.shape))
    for c in range(components):
        data[c] = rng.standard_normal(grid.shape)
    fld = transform(VectorField(grid, data, "physical"))
    mask = lattice_radius(grid) <= keep_fraction * np.max(np.abs(grid.xi1))
    return transform(VectorField(grid, fld.data * mask, "spectral"))


def hermitian_defect(fld: VectorField) -> float:
    """Relative deviation of spectral coefficients from gh(-xi) = conj(gh(xi))."""
    if fld.space != "spectral":
        raise ValueError("hermitian_defect expects a spectral field")
    flipped = fld.data[:, :, :, :]
    for ax in (1, 2, 3):
        flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
    num = np.max(np.abs(fld.data - np.conj(flipped)))
    den = max(np.max(np.abs(fld.data)), 1e-300)
    return float(num / den)


def spectrum(grid: Grid3, packed: np.ndarray) -> np.ndarray:
    """The half-lattice spectrum of a snapshot that keeps every mode, as ``evolve``'s do."""
    return packed.reshape(3, *grid.half_shape)


def picard_states(
    traj: Trajectory, f0: np.ndarray, f1: np.ndarray, lame: LameParams, config: SolverConfig
) -> Trajectory:
    """A band-packed Picard trajectory of data ``(f0, f1)`` with every mode restored.

    Outside its band every Picard iterate is the homogeneous march, so each
    snapshot is scattered into a copy of the homogeneous ``evolve``'s.
    """
    hom = evolve(traj.grid, f0, f1, lame, config, nonlinear=False)

    def scatter(base, packed):
        full = base.copy()
        full[:, traj.band] = packed
        return full

    u = [scatter(b, p) for b, p in zip(hom.u, traj.u, strict=True)]
    v = [scatter(b, p) for b, p in zip(hom.v, traj.v, strict=True)]
    return Trajectory(traj.grid, traj.times, u, v, hom.band)


def x1_norm(traj) -> float:
    """Sup over a trajectory's stored times of the X1 integrand; it keeps every mode."""
    g = traj.grid
    return max(
        _x1_integrand(g, float(t), spectrum(g, u), spectrum(g, v))
        for t, u, v in zip(traj.times, traj.u, traj.v)
    )


def x1_distance(a, b) -> float:
    """X1 norm of the difference of two trajectories on their common times, each with every mode."""
    if len(a.times) != len(b.times) or np.max(np.abs(a.times - b.times)) > 1e-12:
        raise ValueError("trajectories must share the same time grid")
    g = a.grid
    return max(
        _x1_integrand(g, float(t), spectrum(g, ua - ub), spectrum(g, va - vb))
        for t, ua, ub, va, vb in zip(a.times, a.u, b.u, a.v, b.v)
    )


def forced_kernel_quadrature(
    t: float, r: float, params: DampingParams, forcing: Callable[[float], float]
) -> float:
    """High-resolution quadrature of ``int_0^t K1(t - tau, r) f(tau) dtau``.

    Oracle companion for Duhamel checks; independent of the stepping code.
    """
    from scipy.integrate import quad

    val, _ = quad(
        lambda tau: kernel_hat(t - tau, r, params, "K1") * forcing(tau),
        0.0,
        t,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=400,
    )
    return val


def forced_mode_oracle(t: float, r: float, params: DampingParams, w0: float, w1: float, forcing):
    """Integrate the forced mode ODE ``w'' + nu r^2 w' + beta^2 r^2 w = f`` to time ``t > 0``.

    ``forcing`` is a callable ``f(t)`` or a pair of arrays ``(times, values)``
    interpolated with a cubic spline.  An adaptive Runge-Kutta pair (RK45,
    ``rtol = 1e-10``), independent of the library's matrix-exponential
    ``kernels.mode_oracle``; with zero forcing it is that oracle's reference,
    good to about 1e-9.  Returns ``(w(t), w'(t))``.
    """
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicSpline

    if callable(forcing):
        f = forcing
    else:
        times, values = forcing
        spline = CubicSpline(np.asarray(times, float), np.asarray(values, float))
        f = lambda tau: float(spline(tau))

    nr2 = params.nu * r * r
    b2r2 = (params.beta * r) ** 2
    scale = max(abs(w0), abs(w1), 1e-30)
    sol = solve_ivp(
        lambda tau, y: [y[1], f(tau) - nr2 * y[1] - b2r2 * y[0]],
        (0.0, t),
        [float(w0), float(w1)],
        method="RK45",
        rtol=1e-10,
        atol=1e-14 * scale,
        t_eval=[t],
    )
    assert sol.success, sol.message
    return float(sol.y[0, -1]), float(sol.y[1, -1])


@pytest.fixture
def grid16():
    return make_grid(16, 16.0)


@pytest.fixture
def grid8():
    return make_grid(8, 2.0 * np.pi)
