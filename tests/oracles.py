"""Reference operations the tests check the program against.

They were public helpers of the package that only the tests used: the
stencil Laplacian, spectral operator application, the max norm and mean of
a field, the volume mismatch and its spectrum as new arrays, and the
right-hand side of one step as a function of a field.
"""

import numpy as np

from pacok.grid import GridField, inner_product_h
from pacok.physics import Problem, f_eval
from pacok.spectral import LongRangeOp, multiplier_array


def apply_laplacian(a: GridField) -> GridField:
    """Standard 3-point (1D) / 5-point (2D) periodic Laplacian stencil."""
    v = a.values
    h = a.grid.spacings
    out = (np.roll(v, 1, axis=0) + np.roll(v, -1, axis=0) - 2.0 * v) / h[0] ** 2
    if a.grid.dim == 2:
        out = out + (np.roll(v, 1, axis=1) + np.roll(v, -1, axis=1) - 2.0 * v) / h[1] ** 2
    return GridField(a.grid, out)


def apply_long_range(op: LongRangeOp, a: GridField) -> GridField:
    """Apply the bare spectral multiplier of ``op`` to a field."""
    axes = tuple(range(a.grid.dim))
    spectrum = np.fft.rfftn(a.values, axes=axes)
    spectrum *= multiplier_array(op, a.grid)
    return GridField(a.grid, np.fft.irfftn(spectrum, s=a.grid.shape, axes=axes))


def apply_inv_neg_laplacian(a: GridField) -> GridField:
    """Zero-mean solution u of -Lap_h u = a - mean(a)."""
    return apply_long_range(LongRangeOp.inverse_laplacian(), a)


def norm_linf_h(a: GridField) -> float:
    """Discrete max norm max_k |a_k|."""
    return float(np.max(np.abs(a.values)))


def mean_h(a: GridField) -> float:
    """Mean value <a, 1>_h / |T^d|."""
    return inner_product_h(a, GridField.constant(a.grid, 1.0)) / a.grid.measure


def volume_term(phi_values, grid, spec, omega) -> float:
    """Riemann sum <f(phi) - omega, 1>_h of the volume mismatch."""
    return grid.cell_measure * float(np.sum(f_eval(spec, phi_values) - omega))


def mismatch_spectrum(phi_values, spec, omega) -> np.ndarray:
    """Half spectrum ``rfftn(f(phi) - omega)``; its zero mode is the volume sum."""
    return np.fft.rfftn(f_eval(spec, phi_values) - omega)


def assemble_rhs_array(phi_values, grid, params, spec, op, potential_values=None, *, problem=None):
    """A new array holding the kernel's right-hand side of one step from ``phi_values``."""
    if problem is None:
        problem = Problem(grid, params, spec, op, potential_values)
    problem.load(phi_values)
    return problem.rhs(phi_values, problem.force(), np.empty(grid.shape))


def assemble_rhs(phi, params, spec, op, potential=None) -> GridField:
    """The right-hand side F(phi) of one step, as a field."""
    pot = potential.values if potential is not None else None
    return GridField(phi.grid, assemble_rhs_array(phi.values, phi.grid, params, spec, op, pot))
