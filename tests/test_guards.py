"""Domain guards of the public entry points: one row per input a guard rejects.

Each row names the call, the bad input and the typed error expected.  Every
check runs once per call, at the entry, never per element.
"""

import math

import numpy as np
import pytest

from viscowave.asymptotics import LinearSource, NormSpec, linear_norm, profile_error_norms
from viscowave.audit import heat_multiplier_l1
from viscowave.elastic import LameParams
from viscowave.exceptions import InvalidExponentError, OutOfDomainError, UnsupportedOrderError
from viscowave.grid import CutoffSpec, half_seminorm, lp_norm, make_grid

GRID = make_grid(8, 8.0)
CUTOFF = CutoffSpec(0.5, 2.0)
LAME, SOURCE = LameParams(0.0, 1.0, 1.0), LinearSource.gaussian(0.5)

FIELD, SPECTRUM = np.ones(GRID.shape), np.ones(GRID.half_shape)


def heat(t):
    return heat_multiplier_l1(t, 1.0, CUTOFF, [(0, 0)])


def linear(p=math.inf, t=10.0):
    return linear_norm(LAME, SOURCE, [NormSpec(0, 0, p)], t)


def profile(p=math.inf, t=10.0):
    return profile_error_norms(SOURCE, [("G", NormSpec(0, 0, p))], t, LAME)


GUARDS = [
    ("lp_norm p=nan", lambda: lp_norm(GRID, FIELD, math.nan), InvalidExponentError),
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
]


@pytest.mark.parametrize("call, error", [row[1:] for row in GUARDS], ids=[row[0] for row in GUARDS])
def test_bad_input_raises_typed_error(call, error):
    with pytest.raises(error):
        call()
