"""A field constant along one axis of a 2D grid evolves as the 1D run of its profile.

On N = (256, 4) and X = (1, 0.5) the y-length is 1, so the box keeps the 1D
measure 2, M and the volume keep their meaning, and hx != hy.  Stripes, the
1D start repeated along y, have spectra only at the modes the 1D run has,
so every 2D code path (the stencil symbol and the multiplier on a 2D grid,
the leading-axis transforms of the solve, the mirror weights, the volume and
the energy) must give the 1D run at round-off.  Both orientations are run:
stripes constant along y and constant along x.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from pacok.config import RunConfig
from pacok.experiments import count_bumps
from pacok.grid import GridField
from pacok.stepping import SchemeState, run

# 2000 steps from the default random start, with no increment stop.
LINE = RunConfig(gamma=500.0, M=100.0, omega=0.3, kappa=2000.0, tau=1e-3, T=2.0, tol=0.0,
                 N=(256,), X=(1.0,))


def symbol_file(tmp_path, sizes):
    """A tabulated symbol 1 / (1 + |m|^2) at every mode m of a grid of ``sizes``."""
    path = tmp_path / f"symbol-{'x'.join(map(str, sizes))}.csv"
    modes = itertools.product(*(range(-n // 2, n // 2) for n in sizes))
    path.write_text("".join(f"{','.join(map(str, m))},{1.0 / (1 + sum(k * k for k in m))!r}\n"
                            for m in modes))
    return str(path)


def run_from(cfg, values):
    """The final field and every step's energy of a run of ``values`` under ``cfg``."""
    grid = cfg.build_grid()
    state, records = run(SchemeState(GridField(grid, values)), cfg.build_problem(grid),
                         cfg.T, cfg.tol)
    return state.phi, np.array([r.energy for r in records])


@pytest.mark.parametrize("axis", [1, 0], ids=["constant-along-y", "constant-along-x"])
@pytest.mark.parametrize("operator", ["inverse_laplacian", "helmholtz", "garnet_film", "custom"])
def test_stripes_evolve_as_the_1d_run_of_their_profile(tmp_path, operator, axis):
    # The stripes' grid: the line's along one axis, the y-length 1 on 4 points along the other.
    # Their start is the line's, repeated; a symbol file is read only by the custom operator.
    N, X = ((256, 4), (1.0, 0.5)) if axis == 1 else ((4, 256), (0.5, 1.0))
    line = replace(LINE, operator=operator, op_symbol_file=symbol_file(tmp_path, LINE.N))
    stripes = replace(line, N=N, X=X, initial="constant", op_symbol_file=symbol_file(tmp_path, N))
    profile = line.build_initial().values
    phi_line, energies_line = run_from(line, profile)
    phi_stripes, energies_stripes = run_from(stripes, np.repeat(np.expand_dims(profile, axis), 4,
                                                                axis))
    assert len(energies_stripes) == len(energies_line) == 2001
    assert np.max(np.abs(phi_stripes.values - np.expand_dims(phi_line.values, axis))) <= 1e-12
    assert np.max(np.abs(energies_stripes / energies_line - 1.0)) <= 1e-12
    assert count_bumps(phi_stripes) == count_bumps(phi_line) > 1
