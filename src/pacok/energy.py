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
mismatch's, rfftn(f(P) - omega), whose zero mode also gives the volume
term.  A time step computes both, and q = P^2 - P, which gives the well
part.  :func:`spectral_energy` takes the energy from these with no
grid-sized temporary.  :func:`problem_energy` calls it on the arrays a run's
:class:`pacok.physics.Problem` holds, and :func:`discrete_energy`, the
reference energy of a field, on spectra it computes, so there is one energy
formula.  Without a long-range operator there is no mismatch spectrum, and
the interaction and volume parts are real-space sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridField, PeriodicGrid
from .physics import ModelParams, NonlinearSpec, Problem, mismatch_values
from .spectral import LongRangeOp, OpKind, mirror_weights, multiplier_array, stencil_symbol


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
    """Sum of symbol * |s|^2 over all DFT modes, from the rfftn half spectrum
    and the symbol's :func:`pacok.spectral.mirror_weights`, with no copy."""
    axes = "ijklmn"[: weights.ndim]
    squares = f"{axes},{axes},{axes}->"   # sum(w * a * a)
    return float(np.einsum(squares, half.real, half.real, weights)) + float(
        np.einsum(squares, half.imag, half.imag, weights)
    )


def spectral_energy(
    params: ModelParams,
    grid: PeriodicGrid,
    q_squares: float,
    phi_hat: np.ndarray,
    weights: np.ndarray,
    mismatch_hat: np.ndarray | None = None,
    op_weights: np.ndarray | None = None,
    volume: float = 0.0,
    interaction: float | None = None,
) -> EnergyBreakdown:
    """The energy from sum(q^2), q = P^2 - P, and the field's half spectrum.

    ``weights`` and ``op_weights`` are the mirror weights of the stencil and
    operator symbols.  Without an operator, ``volume`` is the volume term;
    in solvation mode ``interaction`` is <f(P) U, 1>_h.
    """
    dx = grid.cell_measure
    parseval = dx / grid.num_cells
    interfacial = 0.5 * params.epsilon * parseval * _mode_sum(weights, phi_hat)
    well = 18.0 * dx * q_squares / params.epsilon   # W = 18 q^2
    if interaction is not None:
        longrange, penalty = interaction, 0.0
    else:
        longrange = 0.0
        if mismatch_hat is not None:
            longrange = 0.5 * params.gamma * parseval * _mode_sum(op_weights, mismatch_hat)
            volume = dx * float(mismatch_hat[(0,) * grid.dim].real)
        penalty = 0.5 * params.M * volume * volume   # float ** 2 raises on overflow
    total = interfacial + well + longrange + penalty
    return EnergyBreakdown(interfacial, well, longrange, penalty, total)


def discrete_energy(
    phi: GridField,
    params: ModelParams,
    spec: NonlinearSpec,
    op: LongRangeOp,
    potential: GridField | None = None,
) -> EnergyBreakdown:
    """Evaluate the discrete energy of ``phi`` term by term.

    It computes rfftn(phi) and, with a long-range operator,
    rfftn(f(phi) - omega); q = phi^2 - phi takes a grid field, whose array
    then takes f(phi) or f(phi) - omega, and goes before the symbols'
    mirror weights are built.
    """
    grid = phi.grid
    v = phi.values
    phi_hat = np.fft.rfftn(v)
    work = v * v
    work -= v
    q_squares = _dot(work, work)
    volume, interaction, mismatch_hat, op_weights = 0.0, None, None, None
    if potential is not None:
        mismatch_values(spec, v, 0.0, work)   # f(phi)
        interaction = grid.cell_measure * _dot(work, potential.values)
    elif op.kind is OpKind.NONE:
        volume = grid.cell_measure * float(np.sum(mismatch_values(spec, v, params.omega, work)))
    else:
        mismatch_hat = np.fft.rfftn(mismatch_values(spec, v, params.omega, work))
    del work   # the weights below take its place
    if op.kind is not OpKind.NONE:
        op_weights = mirror_weights(multiplier_array(op, grid))
    return spectral_energy(
        params, grid, q_squares, phi_hat, mirror_weights(stencil_symbol(grid)), mismatch_hat,
        op_weights, volume, interaction,
    )


def problem_energy(problem: Problem, s: np.ndarray) -> EnergyBreakdown:
    """The energy of a problem's current field ``s`` from the spectra the
    problem holds: :func:`discrete_energy`'s sums, bit for bit."""
    pot, interaction = problem.potential_values, None
    if pot is not None:
        f_values = mismatch_values(problem.spec, s, 0.0, problem.work, problem.clamped)
        interaction = problem.grid.cell_measure * _dot(f_values, pot)
    return spectral_energy(
        problem.params, problem.grid, _dot(problem.q, problem.q), problem.phi_hat,
        problem.symbol_weights, problem.mismatch_hat, problem.op_weights, problem.volume,
        interaction,
    )
