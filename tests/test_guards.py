"""Domain guards of the public entry points: one row per input a guard rejects.

Each row names the call, the bad input and the typed error expected.  Every
check runs once per call, at the entry, never per element.
"""

import math

import numpy as np
import pytest

from viscowave.audit import heat_multiplier_l1
from viscowave.exceptions import InvalidExponentError, OutOfDomainError, UnsupportedOrderError
from viscowave.grid import CutoffSpec, half_seminorm, lp_norm, make_grid

GRID = make_grid(8, 8.0)
CUTOFF = CutoffSpec(0.5, 2.0)

FIELD, SPECTRUM = np.ones(GRID.shape), np.ones(GRID.half_shape)

GUARDS = [
    ("lp_norm p=nan", lambda: lp_norm(GRID, FIELD, math.nan), InvalidExponentError),
    ("half_seminorm order=-1", lambda: half_seminorm(GRID, SPECTRUM, -1), UnsupportedOrderError),
    ("half_seminorm order=1.5", lambda: half_seminorm(GRID, SPECTRUM, 1.5), UnsupportedOrderError),
    ("heat_multiplier_l1 t=nan", lambda: heat_multiplier_l1(math.nan, 1.0, CUTOFF), OutOfDomainError),
    ("heat_multiplier_l1 t=inf", lambda: heat_multiplier_l1(math.inf, 1.0, CUTOFF), OutOfDomainError),
    ("heat_multiplier_l1 t=-1", lambda: heat_multiplier_l1(-1.0, 1.0, CUTOFF), OutOfDomainError),
]


@pytest.mark.parametrize("call, error", [row[1:] for row in GUARDS], ids=[row[0] for row in GUARDS])
def test_bad_input_raises_typed_error(call, error):
    with pytest.raises(error):
        call()
