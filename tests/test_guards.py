"""Domain guards of the public entry points: one row per input a guard rejects.

Each row names the call, the bad input and the typed error expected.  Every
check runs once per call, at the entry, never per element.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from viscowave.asymptotics import (
    LinearSource,
    NormSpec,
    linear_norm,
    profile_error_norms,
    slope_ci95,
)
from viscowave.audit import decay_fit, heat_multiplier_l1, symbol_bound_scan
from viscowave.cli import emit_report
from viscowave.elastic import LameParams, Propagator, linear_propagate
from viscowave.exceptions import (
    DegenerateInputError,
    InvalidExponentError,
    OutOfDomainError,
    ShapeMismatchError,
    UnsupportedOrderError,
    UnsupportedSymbolError,
)
from viscowave.grid import CutoffSpec, half_seminorm, lp_norm, make_grid
from viscowave.kernels import DampingParams, diffusion_hat, kernel_hat, mode_oracle
from viscowave.radial import (
    AngularTerm,
    angular_fit,
    axisym_evaluate,
    gauss_theta_rule,
    simpson_weights,
)
from viscowave.solver import SolverConfig, Trajectory, x1_norm_and_distance

GRID = make_grid(8, 8.0)
CUTOFF = CutoffSpec(0.5, 2.0)
LAME, SOURCE = LameParams(0.0, 1.0, 1.0), LinearSource.gaussian(0.5)

FIELD, SPECTRUM = np.ones(GRID.shape), np.ones(GRID.half_shape)
STATE = np.zeros((3, *GRID.half_shape), dtype=np.complex128)


def heat(t):
    return heat_multiplier_l1(t, 1.0, CUTOFF, [(0, 0)])


def linear(p=math.inf, t=10.0):
    return linear_norm(LAME, SOURCE, [NormSpec(0, 0, p)], t)


def profile(p=math.inf, t=10.0):
    return profile_error_norms(SOURCE, [("G", NormSpec(0, 0, p))], t, LAME)


def oracle(t=1.0, r=1.0):
    return mode_oracle(t, r, LAME.long_params, 1.0, 0.0)


def kernel(t=1.0, r=0.5, which="K1"):
    return kernel_hat(t, np.array([0.0, r]), LAME.long_params, which)


def diffusion(t=1.0, r=0.5, which="G0"):
    return diffusion_hat(np.array([0.0, t]), r, LAME.long_params, which)


def propagate(bad):
    data = STATE.copy()
    data[1, 2, 3, 1] = bad
    return linear_propagate(GRID, STATE, data, 1.0, LAME)


def scan(t_range=(1.0, 10.0), r_range=(1e-3, 0.5), density=8, bound_id="B331"):
    return symbol_bound_scan(bound_id, t_range, r_range, DampingParams(1.0, 1.0), density)


THETAS = gauss_theta_rule(4)[0]
R = np.linspace(0.0, 1.0, 11)


def w3_power(k):
    """The angular factor ``omega_3^k`` of an :class:`AngularTerm`."""
    return AngularTerm(0, 0, lambda wx, wy, wz, gz: (wx * gz[0] + wy * gz[1] + wz * gz[2]) ** k)


def x1_misaligned():
    ref = Trajectory(GRID, np.array([0.0]), [STATE], [STATE])
    return x1_norm_and_distance([(0.5, STATE, STATE)], ref)


GUARDS = [
    ("lp_norm p=nan", lambda: lp_norm(GRID, FIELD, math.nan), InvalidExponentError),
    ("lp_norm complex data", lambda: lp_norm(GRID, FIELD + 0j, 2), OutOfDomainError),
    ("half_seminorm order=-1", lambda: half_seminorm(GRID, SPECTRUM, -1), UnsupportedOrderError),
    ("half_seminorm order=1.5", lambda: half_seminorm(GRID, SPECTRUM, 1.5), UnsupportedOrderError),
    ("heat_multiplier_l1 t=nan", lambda: heat(math.nan), OutOfDomainError),
    ("heat_multiplier_l1 t=inf", lambda: heat(math.inf), OutOfDomainError),
    ("heat_multiplier_l1 t=-1", lambda: heat(-1.0), OutOfDomainError),
    ("linear_norm p=0.5", lambda: linear(p=0.5), InvalidExponentError),
    ("linear_norm p=nan", lambda: linear(p=math.nan), InvalidExponentError),
    ("linear_norm t=-1", lambda: linear(t=-1.0), OutOfDomainError),
    ("linear_norm t=inf", lambda: linear(t=math.inf), OutOfDomainError),
    ("linear_norm t=nan", lambda: linear(t=math.nan), OutOfDomainError),
    ("profile_error_norms p=0.5", lambda: profile(p=0.5), InvalidExponentError),
    ("profile_error_norms p=nan", lambda: profile(p=math.nan), InvalidExponentError),
    ("profile_error_norms t=-1", lambda: profile(t=-1.0), OutOfDomainError),
    ("profile_error_norms t=inf", lambda: profile(t=math.inf), OutOfDomainError),
    ("profile_error_norms t=nan", lambda: profile(t=math.nan), OutOfDomainError),
    ("LinearSource.gaussian sigma=nan", lambda: LinearSource.gaussian(math.nan), OutOfDomainError),
    ("LinearSource.gaussian sigma=-1", lambda: LinearSource.gaussian(-1.0), OutOfDomainError),
    ("LinearSource.gaussian sigma=0", lambda: LinearSource.gaussian(0.0), OutOfDomainError),
    ("symbol_bound_scan density=1", lambda: scan(density=1), OutOfDomainError),
    # The unknown id is rejected first, before the other guards and the mesh.
    (
        "symbol_bound_scan bound_id=B338",
        lambda: scan(bound_id="B338", density=1),
        UnsupportedSymbolError,
    ),
    ("symbol_bound_scan t_range from 0", lambda: scan(t_range=(0.0, 10.0)), OutOfDomainError),
    ("symbol_bound_scan r_range from 0", lambda: scan(r_range=(0.0, 0.5)), OutOfDomainError),
    ("symbol_bound_scan r_range to 2", lambda: scan(r_range=(1e-3, 2.0)), OutOfDomainError),
    ("mode_oracle t=nan", lambda: oracle(t=math.nan), OutOfDomainError),
    ("mode_oracle r=nan", lambda: oracle(r=math.nan), OutOfDomainError),
    ("kernel_hat t=nan", lambda: kernel(t=math.nan), OutOfDomainError),
    ("kernel_hat t=-1", lambda: kernel(t=-1.0), OutOfDomainError),
    ("kernel_hat t=inf", lambda: kernel(t=math.inf), OutOfDomainError),
    ("kernel_hat r=nan", lambda: kernel(r=math.nan), OutOfDomainError),
    ("kernel_hat r=-1", lambda: kernel(r=-1.0), OutOfDomainError),
    ("kernel_hat r=inf", lambda: kernel(r=math.inf), OutOfDomainError),
    ("diffusion_hat t=nan", lambda: diffusion(t=math.nan), OutOfDomainError),
    ("diffusion_hat t=-1", lambda: diffusion(t=-1.0), OutOfDomainError),
    ("diffusion_hat t=inf", lambda: diffusion(t=math.inf), OutOfDomainError),
    ("diffusion_hat r=nan", lambda: diffusion(r=math.nan), OutOfDomainError),
    ("diffusion_hat r=-1", lambda: diffusion(r=-1.0), OutOfDomainError),
    ("diffusion_hat r=inf", lambda: diffusion(r=math.inf), OutOfDomainError),
    ("diffusion_hat K00 r=3", lambda: diffusion(r=3.0, which="K00"), OutOfDomainError),
    ("linear_propagate data=nan", lambda: propagate(math.nan), OutOfDomainError),
    ("linear_propagate data=inf", lambda: propagate(complex(math.inf, 0.0)), OutOfDomainError),
    (
        "Propagator.kernel undeclared step",
        lambda: Propagator(GRID, LAME, (0.5,)).kernel(1.0, "K0", 0),
        OutOfDomainError,
    ),
    (
        "Propagator.apply no terms",
        lambda: Propagator(GRID, LAME, (1.0,)).apply([]),
        OutOfDomainError,
    ),
    ("kernel_hat which=K2", lambda: kernel(which="K2"), UnsupportedSymbolError),
    ("diffusion_hat which=K2", lambda: diffusion(which="K2"), UnsupportedSymbolError),
    (
        "decay_fit part=L",
        lambda: decay_fit("L", "K0", np.exp, LAME, CUTOFF),
        UnsupportedSymbolError,
    ),
    ("DampingParams beta=0", lambda: DampingParams(0.0, 1.0), OutOfDomainError),
    ("DampingParams beta=inf", lambda: DampingParams(math.inf, 1.0), OutOfDomainError),
    ("DampingParams nu=-1", lambda: DampingParams(1.0, -1.0), OutOfDomainError),
    ("DampingParams nu=inf", lambda: DampingParams(1.0, math.inf), OutOfDomainError),
    ("DampingParams nu=nan", lambda: DampingParams(1.0, math.nan), OutOfDomainError),
    ("LameParams mu=0", lambda: LameParams(0.0, 0.0, 1.0), OutOfDomainError),
    ("LameParams lambda+2mu=0", lambda: LameParams(-2.0, 1.0, 1.0), OutOfDomainError),
    ("LameParams nu=0", lambda: LameParams(0.0, 1.0, 0.0), OutOfDomainError),
    ("LameParams lambda=nan", lambda: LameParams(math.nan, 1.0, 1.0), OutOfDomainError),
    ("CutoffSpec c0=0", lambda: CutoffSpec(0.0, 1.0), OutOfDomainError),
    ("CutoffSpec c0>c1", lambda: CutoffSpec(2.0, 1.0), OutOfDomainError),
    ("CutoffSpec c1=inf", lambda: CutoffSpec(0.5, math.inf), OutOfDomainError),
    ("slope_ci95 n=2", lambda: slope_ci95(1.0, 2), OutOfDomainError),
    ("simpson_weights n=4", lambda: simpson_weights(4, 1.0), OutOfDomainError),
    ("simpson_weights n=1", lambda: simpson_weights(1, 1.0), OutOfDomainError),
    ("angular_fit degree 7", lambda: angular_fit([w3_power(7)], 1, THETAS), OutOfDomainError),
    (
        "axisym_evaluate bank of 2, fit of 1",
        lambda: axisym_evaluate(R, [R, R], [angular_fit([w3_power(2)], 1, THETAS)], R),
        ShapeMismatchError,
    ),
    ("SolverConfig dt=0", lambda: SolverConfig(0.0, 1.0), OutOfDomainError),
    ("SolverConfig t_end=nan", lambda: SolverConfig(0.5, math.nan), OutOfDomainError),
    ("SolverConfig t_end=1.2 dt=0.5", lambda: SolverConfig(0.5, 1.2), OutOfDomainError),
    ("SolverConfig picard_tol=0", lambda: SolverConfig(0.5, 1.0, 0.0), OutOfDomainError),
    ("SolverConfig picard_max_iter=0", lambda: SolverConfig(0.5, 1.0, 1e-9, 0), OutOfDomainError),
    ("x1_norm_and_distance misaligned times", x1_misaligned, ShapeMismatchError),
    ("emit_report no results", lambda: emit_report({}, Path("unwritten")), DegenerateInputError),
]


@pytest.mark.parametrize("call, error", [row[1:] for row in GUARDS], ids=[row[0] for row in GUARDS])
def test_bad_input_raises_typed_error(call, error):
    with pytest.raises(error):
        call()
