"""Discrete free energy of a grid field, split into its four parts.

    E_h[P] = -eps/2 <Lap_h P, P>_h + 1/eps <W(P), 1>_h
             + gamma/2 <L(f(P) - omega), f(P) - omega>_h
             + M/2 ( <f(P) - omega, 1>_h )^2.

The interfacial part uses the quadratic form of the stencil Laplacian (not
a forward-difference gradient norm); the two differ by a summation-by-parts
identity and the stencil form is the one whose decay the scheme certifies.
In solvation mode the interaction part is <f(P) U, 1>_h and the volume
penalty is absent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridField
from .physics import ModelParams, NonlinearSpec, W_eval, f_eval
from .spectral import (
    LongRangeOp,
    OpKind,
    _apply_multiplier,
    laplacian_array,
    multiplier_array,
)


@dataclass(frozen=True)
class EnergyBreakdown:
    interfacial: float
    well: float
    longrange: float
    penalty: float
    total: float


def discrete_energy(
    phi: GridField,
    params: ModelParams,
    spec: NonlinearSpec,
    op: LongRangeOp,
    potential: GridField | None = None,
) -> EnergyBreakdown:
    """Evaluate the discrete energy of ``phi`` term by term."""
    grid = phi.grid
    v = phi.values
    dx = grid.cell_measure
    interfacial = -0.5 * params.epsilon * dx * float(np.sum(laplacian_array(v, grid) * v))
    well = dx * float(np.sum(W_eval(v))) / params.epsilon
    if potential is not None:
        longrange = dx * float(np.sum(f_eval(spec, v) * potential.values))
        penalty = 0.0
    else:
        mismatch = f_eval(spec, v) - params.omega
        if op.kind is OpKind.NONE:
            longrange = 0.0
        else:
            lr = _apply_multiplier(mismatch, multiplier_array(op, grid), grid.shape)
            longrange = 0.5 * params.gamma * dx * float(np.sum(lr * mismatch))
        volume = dx * float(np.sum(mismatch))
        penalty = 0.5 * params.M * volume * volume   # float ** 2 raises on overflow
    total = interfacial + well + longrange + penalty
    return EnergyBreakdown(interfacial, well, longrange, penalty, total)
