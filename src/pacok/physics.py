"""Model nonlinearities, scalar parameters, and explicit force assembly.

The double-well potential and the indicator nonlinearity are

    W(s) = 18 (s^2 - s)^2,          W'(s) = 36 (s^2 - s)(2s - 1),
    f(s) = 3 s^2 - 2 s^3,           f'(s) = 6 s - 6 s^2,   f''(s) = 6 - 12 s.

f is the smallest-degree polynomial with f(0) = 0, f(1) = 1 and
f'(0) = f'(1) = 0; the vanishing endpoint slopes switch the long-range and
volume-penalty forces off in the pure phases, which is what makes the
stabilized explicit treatment preserve the [0, 1] bounds.  The traditional
linear choice f(s) = s is provided for comparison runs; it loses the
bound-preservation guarantee.

Bound constants L_W'' = max |W''|, L_f' = max |f'|, L_f'' = max |f''| over
[0, 1] enter every stability condition.  They are the closed forms 36,
3/2 and 6 for the cubic and 36, 1 and 0 for the linear choice.  The model
is one value, :class:`ModelParams`: its scalars, the choice of f, and the
constants and endpoint property that choice has.

The explicit right-hand side of one stabilized semi-implicit step is

    F(p) = (1 + tau*kappa/eps) p - (tau/eps) W'(p)
           - tau*gamma * L(f(p) - omega) . f'(p)
           - tau*M * <f(p) - omega, 1>_h * f'(p),

with . the pointwise product.  In solvation mode (no long-range operator,
an external potential U attached) the interaction terms are replaced by
-tau * U . f'(p) and the volume penalty is dropped.

W' and f' share q = p^2 - p: W'(p) = 36 q (2p - 1), and for the cubic
f'(p) = -6 q.  A :class:`Problem`, built once per run, is the run's model:
its parameters with their indicator, the bounds of its force, the operator
arrays, each built once from its symbol with no second copy kept, and the
scratch buffers and spectra of a time step.  Its methods are the array
kernel of the step; the kernel writes into the problem's buffers and into
the field its caller passes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import GridField, PeriodicGrid
from .spectral import (
    LongRangeOp, OpKind, impulse_response_norm, mirror_weights, multiplier_array, stencil_symbol,
)


class FKind(enum.Enum):
    CUBIC_HERMITE = "cubic"
    LINEAR = "linear"


# (L_W'', L_f', L_f'') of each indicator, in closed form.
_BOUND_CONSTANTS = {
    FKind.CUBIC_HERMITE: (36.0, 1.5, 6.0),
    FKind.LINEAR: (36.0, 1.0, 0.0),
}


@dataclass(frozen=True)
class ModelParams:
    """The model: scalar physics and scheme parameters and the indicator f.

    epsilon   : interface width (> 0)
    gamma     : long-range coupling strength (finite, >= 0)
    M         : volume penalty constant (finite, >= 0)
    omega     : relative volume in (0, 1)
    kappa     : stabilizing splitting constant (finite, >= 0)
    tau       : time step (> 0)
    f         : the indicator, an :class:`FKind`
    """

    epsilon: float
    gamma: float
    M: float
    omega: float
    kappa: float
    tau: float
    f: FKind = FKind.CUBIC_HERMITE

    def __post_init__(self):
        # A string would otherwise step with the linear f and miss the constants' table.
        if not isinstance(self.f, FKind):
            raise ConfigError(f"f must be an FKind, got {self.f!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        for name in ("gamma", "M", "kappa"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if not (0.0 < self.omega < 1.0):
            raise ConfigError(f"omega must lie in (0, 1), got {self.omega}")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ConfigError(f"tau must be positive, got {self.tau}")
        # The scheme's terms in epsilon, kappa and tau, as Problem and the conditions form them.
        eps, kappa, tau = float(self.epsilon), float(self.kappa), float(self.tau)
        for term, value in (("36/epsilon", 36.0 / eps), ("kappa/epsilon", kappa / eps),
                            ("1 + tau*kappa/epsilon", 1.0 + tau * kappa / eps),
                            ("36*tau/epsilon", 36.0 * tau / eps), ("1/tau", 1.0 / tau),
                            ("1/tau + kappa/epsilon", 1.0 / tau + kappa / eps)):
            _finite(term, value, f"epsilon={eps!r}, kappa={kappa!r}, tau={tau!r}")

    @property
    def omega_tilde(self) -> float:
        """max(omega, 1 - omega), the worst-case magnitude of f - omega."""
        return max(self.omega, 1.0 - self.omega)

    @property
    def endpoint_compatible(self) -> bool:
        """True when f(0)=0, f(1)=1, f'(0)=f'(1)=0 hold.

        The discrete bound-preservation and energy-decay guarantees are
        proved only for such f; the linear choice is not covered.
        """
        return self.f is FKind.CUBIC_HERMITE

    @property
    def bound_constants(self) -> tuple[float, float, float]:
        """(L_W'', L_f', L_f''), the max-norms of W'', f', f'' over [0, 1]."""
        return _BOUND_CONSTANTS[self.f]


def _finite(term: str, value: float, given: str) -> float:
    """``value``, the largest magnitude of the scheme term ``term``, when it is finite."""
    if not math.isfinite(value):
        raise ConfigError(f"{term} is not finite for {given}")
    return value


def _interleaved(a: np.ndarray) -> np.ndarray:
    """``a`` with every entry twice along the last axis, read-only.

    The one layout of every real per-mode array a :class:`Problem` holds:
    entry for entry, it matches a complex half spectrum viewed as float64
    pairs.  Multiplying that view by it gives the same bits as multiplying
    the spectrum by ``a``, and a weighted sum reads both in one contiguous pass.
    """
    out = np.repeat(a, 2, axis=-1)
    out.setflags(write=False)
    return out


class Problem:
    """The model of one run: its operator arrays and buffers, and the array kernel of its steps.

    With s = phi^n, q = s^2 - s, A = 1 + tau*kappa/eps and c = 36*tau/eps, a
    step is

        rhs = A s + q (c - 2c s) - g f'(s),
        phi^{n+1} = irfftn(rfftn(rhs) / ((1 + tau*kappa/eps) + tau*eps*lambda)),

    with the force g = tau*gamma L(f(s) - omega) + tau*M <f(s) - omega, 1>_h
    (g = tau*U in solvation mode).  Every denominator entry is >= 1.  The
    problem stores the force's coefficients already scaled by k: for the
    cubic f, f' = -6 q, so k = 6 and rhs = A s + q (k g + c - 2c s); for the
    linear f, f' = 1, so k = -1 and rhs = A s + q (c - 2c s) + k g.

    f is the one ``params`` names; :meth:`mismatch` evaluates f(s) - omega.
    Every real per-mode array is interleaved (see :func:`_interleaved`): the
    multiplier, the reciprocal denominator, and the symbols' mirror weights
    for the energy, ``symbol_weights`` and ``op_weights``.  Each scaled term, and
    each sum the mirror weights and the max-norm form, is checked finite at
    its largest magnitude before it is formed: an overflow on the run's grid
    is a ConfigError naming the term.

    ``op_norm`` is ||L||, the operator's max-norm
    (:func:`pacok.spectral.impulse_response_norm` of its multiplier), max|U|
    in solvation mode and 0 with neither.  The stability conditions read two
    numbers the constructor sets for the interaction mode.  ``force_bound``
    B = omega_t (gamma ||L|| + M |T|), omega_t = max(omega, 1 - omega), or
    max|U| in solvation mode, bounds max|g|/tau a priori over all fields in
    [0, 1]; each step's actual max|g| can replace it.  ``interaction_norm``
    is gamma ||L|| + M |T|, or 0 in solvation mode.

    ``q``, the mismatch spectrum ``mismatch_hat`` (None without a long-range
    operator) and ``volume``, <f(s) - omega, 1>_h (0 in solvation mode),
    belong to the field last passed to :meth:`load` or produced by
    :meth:`advance`; ``phi_hat`` is the solve spectrum of the field
    :meth:`advance` produced, or rfftn of the one passed to :meth:`start`.
    ``work`` and ``product`` are scratch.  The transforms act on the
    trailing ``grid.dim`` axes.
    """

    def __init__(
        self,
        grid: PeriodicGrid,
        params: ModelParams,
        op: LongRangeOp,
        potential_values: np.ndarray | None = None,
    ):
        if potential_values is not None and op.kind is not OpKind.NONE:
            raise ConfigError("an external potential requires operator kind 'none'")
        self.grid, self.params = grid, params
        self.potential_values = potential_values
        self.axes = tuple(range(-grid.dim, 0))
        self.half_shape = grid.shape[:-1] + (grid.shape[-1] // 2 + 1,)
        tau, eps = float(params.tau), float(params.epsilon)
        self.fused = params.f is FKind.CUBIC_HERMITE
        k = 6.0 if self.fused else -1.0
        self.A = 1.0 + tau * params.kappa / eps
        self.c = 36.0 * tau / eps
        # Added to the scaled force: in the fused form it takes c along.
        self.offset = self.c if self.fused else 0.0
        # The stencil's largest eigenvalue, at the Nyquist mode, bounds the denominator.
        lambda_max = sum(4.0 / h ** 2 for h in grid.spacings)
        _finite("1 + tau*kappa/epsilon + tau*epsilon*lambda_max", self.A + tau * eps * lambda_max,
                f"tau={tau!r}, epsilon={eps!r}, kappa={params.kappa!r}, lambda_max={lambda_max!r}")
        # mirror_weights doubles a symbol.
        _finite("2*lambda_max", 2.0 * lambda_max, f"lambda_max={lambda_max!r}")
        self.volume_force = _finite(f"{k:g}*tau*M", k * tau * float(params.M),
                                    f"tau={tau!r}, M={params.M!r}")
        self.volume = 0.0
        # Each symbol is built once; its mirror weights overwrite it last.
        symbol = stencil_symbol(grid)
        denom = self.A + tau * eps * symbol
        self.inverse_denominator = _interleaved(np.divide(1.0, denom, out=denom))
        self.symbol_weights = _interleaved(mirror_weights(symbol))
        self.op_weights = self.multiplier = self.potential_force = None
        self.op_norm = 0.0
        if op.kind is not OpKind.NONE:
            op_symbol = multiplier_array(op, grid)
            largest = float(np.max(np.abs(op_symbol)))
            # The inverse transform and the max-norm sum up to one max|L| a cell,
            # which also bounds the doubled mirror weights.
            _finite("cells*max|L|", grid.num_cells * largest,
                    f"cells={grid.num_cells}, max|L|={largest!r}")
            self.op_norm = impulse_response_norm(op_symbol, grid)
            _finite(f"{k:g}*tau*gamma*max|L|", k * tau * float(params.gamma) * largest,
                    f"tau={tau!r}, gamma={params.gamma!r}, max|L|={largest!r}")
            self.multiplier = _interleaved(k * tau * params.gamma * op_symbol)
            self.op_weights = _interleaved(mirror_weights(op_symbol))
        if potential_values is None:
            self.interaction_norm = params.gamma * self.op_norm + params.M * grid.measure
            self.force_bound = params.omega_tilde * self.interaction_norm
        else:
            self.op_norm = self.force_bound = float(np.max(np.abs(potential_values)))
            self.interaction_norm = 0.0
            _finite(f"{k:g}*tau*U", abs(k) * tau * self.force_bound + self.offset,
                    f"tau={tau!r}, max|U|={self.force_bound!r}")
            self.potential_force = k * tau * potential_values + self.offset
            self.potential_force.setflags(write=False)
        self.q = np.empty(grid.shape)
        self.work = np.empty(grid.shape)
        self.phi_hat = np.empty(self.half_shape, complex)
        self.mismatch_hat = None if self.multiplier is None else np.empty(self.half_shape, complex)
        # The inverse transforms' scratch spectrum is the mismatch spectrum, if there is one.
        needs_scratch = grid.dim > 1 and self.mismatch_hat is None
        self.product = np.empty(self.half_shape, complex) if needs_scratch else self.mismatch_hat

    def forward(self, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """rfftn(x) into ``out``, or into a new array when it is None."""
        # Given the shape, numpy need not derive it from the axes, which costs
        # as much as a small 1D transform.
        return np.fft.rfftn(x, self.grid.shape, self.axes, out=out)

    def inverse(self, spectrum: np.ndarray, out: np.ndarray, scratch) -> np.ndarray:
        """irfftn(spectrum) into ``out``; the passes over the leading axes go into ``scratch``."""
        for axis in self.axes[:-1]:
            spectrum = np.fft.ifft(spectrum, axis=axis, out=scratch)
        return np.fft.irfft(spectrum, self.grid.shape[-1], axis=-1, out=out)

    def load(self, s: np.ndarray) -> None:
        """Make ``s`` the current field: set q and, outside solvation mode, its
        volume and mismatch spectrum."""
        if self.potential_values is None:
            f = self.mismatch(s, self.params.omega)
            if self.multiplier is None:
                self.volume = self.grid.cell_measure * float(np.sum(f))
            else:
                spectrum = self.forward(f, self.mismatch_hat)
                self.volume = self.grid.cell_measure * float(spectrum[(0,) * self.grid.dim].real)
        np.multiply(s, s, out=self.q)
        self.q -= s

    def mismatch(self, s: np.ndarray, omega: float) -> np.ndarray:
        """f(s) - omega into ``work``, f(s) = (3 - 2s) s s for the cubic; 0 gives f(s)."""
        out = self.work
        if self.fused:
            np.multiply(2.0, s, out=out)
            np.subtract(3.0, out, out=out)
            out *= s
            out *= s
            out -= omega
        else:
            np.subtract(s, omega, out=out)
        return out

    def start(self, s: np.ndarray) -> None:
        """:meth:`load` ``s`` and put rfftn(s) in ``phi_hat``: the state a run starts from."""
        self.load(s)
        self.forward(s, self.phi_hat)

    def force(self):
        """k g plus ``offset`` for the current field: an array, or a scalar without one.

        The multiplied spectrum overwrites ``mismatch_hat``.
        """
        if self.potential_force is not None:
            return self.potential_force
        g = self.volume_force * self.volume + self.offset
        if self.multiplier is not None:
            spectrum = self.mismatch_hat
            np.multiply(spectrum.view(np.float64), self.multiplier, out=spectrum.view(np.float64))
            g = np.add(self.inverse(spectrum, self.work, spectrum), g, out=self.work)
        return g

    def rhs(self, s: np.ndarray, g, out: np.ndarray) -> np.ndarray:
        """The right-hand side for the current field ``s`` and its :meth:`force`, into ``out``."""
        np.multiply(s, -2.0 * self.c, out=out)
        if self.fused:
            out += g
            out *= self.q
        else:
            out += self.c
            out *= self.q
            out += g   # linear f' = 1
        out += np.multiply(s, self.A, out=self.work)
        return out

    def advance(self, s: np.ndarray, out: np.ndarray) -> float:
        """One step from the current field ``s``; returns ||P_new - s||_inf.

        The new field, which becomes the current one, goes into ``out``, its
        solve spectrum into ``phi_hat`` and its mismatch spectrum into
        ``mismatch_hat``.  A non-finite value anywhere makes the increment
        non-finite.
        """
        self.rhs(s, self.force(), out)
        self.forward(out, self.phi_hat)
        solve = self.phi_hat.view(np.float64)
        solve *= self.inverse_denominator   # the division by the denominator
        self.inverse(self.phi_hat, out, self.product)
        change = np.subtract(out, s, out=self.work)
        increment = float(np.abs(change, out=change).max())
        self.load(out)
        return increment


# Solvation potential constants: water density, Lennard-Jones well depth and
# zero-crossing distance, solute partial charge, vacuum permittivity, solute
# and solvent relative permittivities, plateau cutoff distance.
SOLVENT_DENSITY = 0.0333
LJ_WELL_DEPTH = 0.3
LJ_SIGMA = 3.5
SOLUTE_CHARGE = 1.0
VACUUM_PERMITTIVITY = 1.4321e-4
SOLUTE_PERMITTIVITY = 1.0
SOLVENT_PERMITTIVITY = 80.0
POTENTIAL_CUTOFF = 2.5


def check_solutes(grid: PeriodicGrid, solute_positions) -> list[float]:
    """The solute positions as floats: at least one, each finite, on a 1D grid."""
    positions = [float(p) for p in np.atleast_1d(solute_positions)]
    if not positions:
        raise ConfigError("at least one solute position is required")
    if grid.dim != 1:
        raise ConfigError("solute distances are defined for 1D grids")
    if not np.all(np.isfinite(positions)):
        raise ConfigError(f"solute positions must be finite, got {positions}")
    return positions


def solute_distance(grid: PeriodicGrid, solute_positions) -> np.ndarray:
    """The distance on the torus from each point of a 1D grid to its nearest solute:
    min(r, 2X - r) with r = |x - p| mod 2X, which is |x - p| itself where that is <= X."""
    positions = check_solutes(grid, solute_positions)
    (x,) = grid.coordinates()
    period = 2.0 * grid.half_extents[0]
    r = np.abs(x[:, None] - np.array(positions)[None, :]) % period
    return np.min(np.minimum(r, period - r), axis=1)


def pvism_potential(grid: PeriodicGrid, solute_positions) -> GridField:
    """Solute-solvent potential U(x) for the 1D implicit-solvation model.

    U combines a Lennard-Jones-type repulsion and a Born electrostatic
    attraction, both evaluated at the cutoff distance x_cut = max(d, 2.5),
    with d the periodic :func:`solute_distance`, so the potential plateaus
    near each solute.  The electrostatic part uses the Coulomb-field-
    approximation energy density Q^2/(32 pi^2 eps0) (1/eps_w - 1/eps_m) / x^4,
    the pointwise form whose exterior integral gives the familiar Born energy
    Q^2/(8 pi eps0) (1/eps_w - 1/eps_m) / r; a density is what the energy
    functional integrates against f(phi).  The resulting potential is
    repulsive inside x ~ 2.75 and attractive beyond, which is what pins
    the solvation interface just outside the cutoff radius.
    """
    x_cut = np.maximum(solute_distance(grid, solute_positions), POTENTIAL_CUTOFF)
    ratio6 = (LJ_SIGMA / x_cut) ** 6
    lj = SOLVENT_DENSITY / (4.0 * LJ_WELL_DEPTH) * (ratio6 * ratio6 - ratio6)
    born = (
        SOLUTE_CHARGE**2
        / (32.0 * np.pi**2 * VACUUM_PERMITTIVITY)
        * (1.0 / SOLVENT_PERMITTIVITY - 1.0 / SOLUTE_PERMITTIVITY)
        / x_cut**4
    )
    return GridField(grid, lj + born)
