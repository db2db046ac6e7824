"""Spectral simulation and verification toolkit for damped elastic waves."""

__version__ = "0.1.0"

from .asymptotics import (
    DecayReport,
    LinearSource,
    NormSpec,
    decay_slope,
    linear_norm,
    profile_error_norms,
)
from .audit import (
    decay_fit,
    dilation_ratios,
    heat_multiplier_l1,
    inequality_check,
    symbol_bound_scan,
)
from .elastic import (
    LameParams,
    Propagator,
    default_cutoffs,
    linear_propagate,
)
from .grid import (
    CutoffSpec,
    Grid3,
    VectorField,
    lp_norm,
    make_grid,
    transform,
)
from .kernels import (
    DampingParams,
    diffusion_hat,
    kernel_hat,
    lowfreq_residual,
    mode_oracle,
)
from .radial import radial_l2_norm
from .solver import (
    SolverConfig,
    Trajectory,
    evolve,
    evolve_stream,
    picard_iterate,
    x1_norm_and_distance,
)

__all__ = [
    "DampingParams",
    "kernel_hat",
    "diffusion_hat",
    "mode_oracle",
    "lowfreq_residual",
    "Grid3",
    "VectorField",
    "CutoffSpec",
    "make_grid",
    "transform",
    "lp_norm",
    "radial_l2_norm",
    "LameParams",
    "Propagator",
    "linear_propagate",
    "default_cutoffs",
    "SolverConfig",
    "Trajectory",
    "evolve",
    "evolve_stream",
    "picard_iterate",
    "x1_norm_and_distance",
    "DecayReport",
    "NormSpec",
    "LinearSource",
    "decay_slope",
    "linear_norm",
    "profile_error_norms",
    "inequality_check",
    "dilation_ratios",
    "decay_fit",
    "symbol_bound_scan",
    "heat_multiplier_l1",
]
