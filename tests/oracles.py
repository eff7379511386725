"""Reference operations the tests check the program against.

They were public helpers of the package that only the tests used: the
pointwise double well W, the indicator f and their derivatives, the
stencil Laplacian, spectral operator application, the max norm and mean of
a field, the volume mismatch and its spectrum as new arrays, and the
right-hand side of one step as a function of a field.  :func:`field_energy`
is the energy of a field as ``pacok energy`` computes it.
"""

import numpy as np

from pacok.energy import problem_energy
from pacok.grid import GridField, inner_product_h
from pacok.physics import FKind, ModelParams, Problem
from pacok.spectral import LongRangeOp, multiplier_array


def W_eval(s):
    """Double-well potential 18 (s^2 - s)^2."""
    s = np.asarray(s, dtype=np.float64)
    q = s * s - s
    out = 18.0 * q * q
    return float(out) if out.ndim == 0 else out


def W_prime(s):
    """W'(s) = 36 (s^2 - s)(2s - 1)."""
    s = np.asarray(s, dtype=np.float64)
    out = 36.0 * (s * s - s) * (2.0 * s - 1.0)
    return float(out) if out.ndim == 0 else out


def W_pprime(s):
    """W''(s) = 36 (6 s^2 - 6 s + 1)."""
    s = np.asarray(s, dtype=np.float64)
    out = 36.0 * (6.0 * s * s - 6.0 * s + 1.0)
    return float(out) if out.ndim == 0 else out


def f_eval(params: ModelParams, s):
    """The indicator that ``params`` names, at ``s``."""
    s = np.asarray(s, dtype=np.float64)
    if params.f is FKind.CUBIC_HERMITE:
        out = (3.0 - 2.0 * s) * s * s
    else:
        out = np.array(s, dtype=np.float64)
    return float(out) if out.ndim == 0 else out


def f_prime(params: ModelParams, s):
    s = np.asarray(s, dtype=np.float64)
    if params.f is FKind.CUBIC_HERMITE:
        out = 6.0 * s * (1.0 - s)
    else:
        out = np.ones_like(s)
    return float(out) if out.ndim == 0 else out


def f_pprime(params: ModelParams, s):
    s = np.asarray(s, dtype=np.float64)
    if params.f is FKind.CUBIC_HERMITE:
        out = 6.0 - 12.0 * s
    else:
        out = np.zeros_like(s)
    return float(out) if out.ndim == 0 else out


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
    return inner_product_h(a, GridField(a.grid, np.full(a.grid.shape, 1.0))) / a.grid.measure


def volume_term(phi_values, grid, params) -> float:
    """Riemann sum <f(phi) - omega, 1>_h of the volume mismatch."""
    return grid.cell_measure * float(np.sum(f_eval(params, phi_values) - params.omega))


def mismatch_spectrum(phi_values, params) -> np.ndarray:
    """Half spectrum ``rfftn(f(phi) - omega)``; its zero mode is the volume sum."""
    return np.fft.rfftn(f_eval(params, phi_values) - params.omega)


def assemble_rhs_array(phi_values, grid, params, op, potential_values=None, *, problem=None):
    """A new array holding the kernel's right-hand side of one step from ``phi_values``."""
    if problem is None:
        problem = Problem(grid, params, op, potential_values)
    problem.load(phi_values)
    return problem.rhs(phi_values, problem.force(), np.empty(grid.shape))


def assemble_rhs(phi, params, op, potential=None) -> GridField:
    """The right-hand side F(phi) of one step, as a field."""
    pot = potential.values if potential is not None else None
    return GridField(phi.grid, assemble_rhs_array(phi.values, phi.grid, params, op, pot))


def field_energy(phi, params, op, potential=None):
    """The energy of ``phi`` as a run computes it at its start: a new
    problem on the field's grid, the field loaded with its solve spectrum."""
    pot = potential.values if potential is not None else None
    problem = Problem(phi.grid, params, op, pot)
    problem.start(phi.values)
    return problem_energy(problem, phi.values)
