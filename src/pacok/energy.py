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
term.  A time step computes both anyway (the solve spectrum, and the
forward half of the next step's long-range round trip), and a state
returned by :func:`pacok.stepping.step` carries them, so a recorded step
costs no FFT beyond the step's own two round trips.  A bare field has its
spectra computed here.  Without a long-range operator there is no mismatch
spectrum, and the interaction and volume parts are real-space sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridField
from .physics import ModelParams, NonlinearSpec, f_eval, mismatch_spectrum, volume_term
from .spectral import LongRangeOp, OpKind, multiplier_array, stencil_symbol


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


def _full_spectrum_sum(symbol: np.ndarray, half: np.ndarray) -> float:
    """Sum of symbol * |s|^2 over all DFT modes, from the rfftn half spectrum.

    Along the last axis the half spectrum keeps modes 0..n/2.  Every column
    but the first and the last (the zero and Nyquist modes, n being even)
    also stands for its mirror, so it counts twice.
    """
    power = np.square(half.real)
    power += np.square(half.imag)
    edges = (..., slice(None, None, power.shape[-1] - 1))   # the first and last columns
    return 2.0 * _dot(power, symbol) - _dot(power[edges], symbol[edges])


def discrete_energy(
    phi: GridField,
    params: ModelParams,
    spec: NonlinearSpec,
    op: LongRangeOp,
    potential: GridField | None = None,
    *,
    phi_hat: np.ndarray | None = None,
    mismatch_hat: np.ndarray | None = None,
) -> EnergyBreakdown:
    """Evaluate the discrete energy of ``phi`` term by term.

    ``phi_hat`` = rfftn(phi) and ``mismatch_hat`` = rfftn(f(phi) - omega)
    are the half spectra a state returned by :func:`pacok.stepping.step`
    carries; each one not given is computed from ``phi``.
    """
    grid = phi.grid
    v = phi.values
    dx = grid.cell_measure
    parseval = dx / v.size
    if phi_hat is None:
        phi_hat = np.fft.rfftn(v)
    interfacial = 0.5 * params.epsilon * parseval * _full_spectrum_sum(stencil_symbol(grid), phi_hat)
    q = v * v
    q -= v
    well = 18.0 * dx * _dot(q, q) / params.epsilon   # W = 18 (v^2 - v)^2
    if potential is not None:
        longrange = dx * float(np.sum(f_eval(spec, v) * potential.values))
        penalty = 0.0
    else:
        if op.kind is OpKind.NONE:
            longrange = 0.0
            volume = volume_term(v, grid, spec, params.omega)
        else:
            if mismatch_hat is None:
                mismatch_hat = mismatch_spectrum(v, spec, params.omega)
            longrange = 0.5 * params.gamma * parseval * _full_spectrum_sum(
                multiplier_array(op, grid), mismatch_hat
            )
            volume = dx * float(mismatch_hat[(0,) * grid.dim].real)
        penalty = 0.5 * params.M * volume * volume   # float ** 2 raises on overflow
    total = interfacial + well + longrange + penalty
    return EnergyBreakdown(interfacial, well, longrange, penalty, total)
