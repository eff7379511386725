"""Discrete free energy of a grid field, split into its four parts.

    E_h[P] = -eps/2 <Lap_h P, P>_h + 1/eps <W(P), 1>_h
             + gamma/2 <L(f(P) - omega), f(P) - omega>_h
             + M/2 ( <f(P) - omega, 1>_h )^2.

The interfacial part uses the quadratic form of the stencil Laplacian (not
a forward-difference gradient norm); the two differ by a summation-by-parts
identity and the stencil form is the one whose decay the scheme certifies.
In solvation mode the interaction part is <f(P) U, 1>_h and the volume
penalty is absent.

Both quadratic forms are diagonal in the DFT, so they are taken by
Parseval's identity from two half spectra: the field's, rfftn(P), and the
mismatch's, rfftn(f(P) - omega).  A run's :class:`pacok.physics.Problem`
holds both for its current field, with q = P^2 - P, which gives the well
part, and the volume <f(P) - omega, 1>_h, which gives the penalty: a time
step leaves them there and :meth:`pacok.physics.Problem.start` computes
them for a given field.  :func:`problem_energy`, the one energy formula,
takes the energy from these with no grid-sized temporary.  Without a
long-range operator there is no mismatch spectrum, and in solvation mode
the interaction part is a real-space sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .physics import Problem


@dataclass(frozen=True)
class EnergyBreakdown:
    interfacial: float
    well: float
    longrange: float
    penalty: float
    total: float


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) in one pass.

    Not np.dot or np.vdot: those call BLAS, whose worker threads made these
    small products stall now and then inside the step loop.
    """
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _mode_sum(weights: np.ndarray, half: np.ndarray) -> float:
    """Sum of symbol * |s|^2 over all DFT modes, from the rfftn half spectrum and
    the symbol's interleaved mirror weights, in one contiguous pass with no copy."""
    pairs = half.view(np.float64).ravel()
    return float(np.einsum("i,i,i->", weights.ravel(), pairs, pairs))


def problem_energy(problem: Problem, s: np.ndarray) -> EnergyBreakdown:
    """The energy of a problem's current field ``s``, from the spectra and q the problem holds."""
    params, grid = problem.params, problem.grid
    dx = grid.cell_measure
    parseval = dx / grid.num_cells
    interfacial = 0.5 * params.epsilon * parseval * _mode_sum(problem.symbol_weights, problem.phi_hat)
    well = 18.0 * dx * _dot(problem.q, problem.q) / params.epsilon   # W = 18 q^2
    longrange = 0.0
    if problem.potential_values is not None:
        f_values = problem.mismatch(s, 0.0)
        longrange = dx * _dot(f_values, problem.potential_values)
    elif problem.mismatch_hat is not None:
        longrange = 0.5 * params.gamma * parseval * _mode_sum(problem.op_weights, problem.mismatch_hat)
    penalty = 0.5 * params.M * problem.volume * problem.volume   # float ** 2 raises on overflow
    total = interfacial + well + longrange + penalty
    return EnergyBreakdown(interfacial, well, longrange, penalty, total)
