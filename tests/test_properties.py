"""Property tests of the paper's guarantees under certified parameters."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pacok.grid import GridField, PeriodicGrid
from pacok.physics import ModelParams, Problem
from pacok.spectral import LongRangeOp
from pacok.stepping import ENERGY_TOL, MPP_TOL, SchemeState, check_conditions, step

from oracles import field_energy

GRIDS = (PeriodicGrid((16,), (1.0,)), PeriodicGrid((8, 8), (1.0, 1.0)))
OPS = (LongRangeOp.inverse_laplacian(), LongRangeOp.helmholtz(0.3), LongRangeOp.none())


@st.composite
def certified_cases(draw):
    """A grid, an operator, parameters that certify energy decay (and so the
    bounds), and a field with values in [0, 1]."""
    grid = draw(st.sampled_from(GRIDS))
    op = draw(st.sampled_from(OPS))
    physics = dict(
        epsilon=draw(st.floats(0.05, 0.5)),
        gamma=draw(st.floats(0.0, 200.0)),
        M=draw(st.floats(0.0, 200.0)),
        omega=draw(st.floats(0.1, 0.9)),
        tau=draw(st.floats(1e-4, 1e-2)),
    )
    bare = ModelParams(kappa=0.0, **physics)
    kappa_min = check_conditions(Problem(grid, bare, op)).kappa_min_es
    params = ModelParams(kappa=kappa_min * draw(st.floats(1.0, 2.0)) + 1e-6, **physics)
    values = draw(arrays(np.float64, grid.shape, elements=st.floats(0.0, 1.0)))
    return grid, op, params, GridField(grid, values)


@settings(max_examples=60, deadline=None)
@given(certified_cases())
def test_certified_step_keeps_bounds_and_decays_energy(case):
    grid, op, params, phi = case
    problem = Problem(grid, params, op)
    report = check_conditions(problem)
    assert report.mpp_ok and report.es_ok
    new = step(SchemeState(phi), problem)
    assert float(np.min(new.phi.values)) >= -MPP_TOL
    assert float(np.max(new.phi.values)) <= 1.0 + MPP_TOL
    before = field_energy(phi, params, op).total
    after = field_energy(new.phi, params, op).total
    assert after <= before + ENERGY_TOL * (1.0 + abs(before))
