"""Stabilized first-order semi-implicit time stepping with certified bounds.

One step solves

    ((1 + tau*kappa/eps) I - tau*eps*Lap_h) P_new = F(P_old)

with the explicit right-hand side F from :mod:`pacok.physics`.  The DFT
diagonalizes the left-hand side exactly, so the solve is a forward
transform, a division by

    (1 + tau*kappa/eps) + tau*eps*lambda(j, k),

and an inverse transform.  Every denominator entry is >= 1, which makes the
step unconditionally uniquely solvable.

A step costs two FFT round trips.  The long-range one starts from the
mismatch spectrum rfftn(f(P_old) - omega), which the previous step computed
and left on its state; the step multiplies it by the operator's symbol and
transforms back.  The solve is the second.  The returned state carries the
solve spectrum and the new mismatch spectrum, and :mod:`pacok.energy` takes
the discrete energy from these two by Parseval's identity, so evaluating
the energy after a step needs no further transform.

:func:`run` builds one :class:`pacok.physics.Problem` for its steps: the
multiplier, the reciprocal of the denominator and the buffers every step
writes into.  Of grid size, a step then allocates only the field and the
two half spectra of the state it returns, plus the half spectrum that
numpy's irfftn holds while it transforms the leading axis of a 2D field.
It never writes into an array a returned state holds.

Two parameter conditions certify qualitative guarantees, both checked with
the max-norm estimate of the long-range operator:

  bounds:  1/tau + kappa/eps >= L_W''/eps
             + omega_t * L_f'' * (gamma*||L|| + M*|T|),
  energy:  kappa/eps >= L_W''/eps
             + (L_f'^2 + omega_t * L_f'') * (gamma*||L|| + M*|T|),

with omega_t = max(omega, 1-omega).  The energy condition implies the
bounds condition.  Both proofs also require f'(0) = f'(1) = 0, so with the
linear indicator the guarantees are reported as unsatisfied no matter the
arithmetic.  When a guarantee is certified, :func:`run` enforces it at run
time and raises on violation; outside the conditions violations are
possible and are only reported, not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import discrete_energy
from .errors import BlowupError, ConfigError, EnergyIncreaseError, MppViolationError
from .grid import GridField, PeriodicGrid
from .physics import (
    ModelParams,
    NonlinearSpec,
    Problem,
    assemble_rhs_array,
    lipschitz_constants,
)
from .spectral import LongRangeOp, OpKind, estimate_linf_norm

MPP_TOL = 1e-10
ENERGY_TOL = 1e-9


@dataclass(frozen=True)
class SchemeState:
    """Current iterate, its step index, physical time, and last increment.

    A state returned by :func:`step` also carries two read-only half
    spectra the step computed: ``phi_hat`` = rfftn(phi), the solve
    spectrum, and ``mismatch_hat`` = rfftn(f(phi) - omega) under the spec
    and omega of that step (None without a long-range operator).  The next
    step and the energy reuse them, so a state is advanced with the spec
    and parameters that made it.  A bare state carries neither and has them
    computed when first needed.  They take no part in ``==`` or ``repr``.
    """

    phi: GridField
    step_index: int = 0
    time: float = 0.0
    last_increment_linf: float = math.inf
    phi_hat: np.ndarray | None = field(default=None, compare=False, repr=False)
    mismatch_hat: np.ndarray | None = field(default=None, compare=False, repr=False)

    @classmethod
    def initial(cls, phi: GridField) -> "SchemeState":
        return cls(phi=phi, step_index=0, time=0.0)


@dataclass(frozen=True)
class ConditionReport:
    """Evaluated stability conditions and the minimal stabilizers."""

    op_norm: float
    mpp_lhs: float
    mpp_rhs: float
    mpp_ok: bool
    es_lhs: float
    es_rhs: float
    es_ok: bool
    kappa_min_mpp: float
    kappa_min_es: float
    continuous_mpp_lhs: float
    continuous_mpp_ok: bool

    def pretty(self) -> str:
        rows = [
            ("operator max-norm", f"{self.op_norm:.6e}"),
            ("bounds lhs (1/tau + kappa/eps)", f"{self.mpp_lhs:.6e}"),
            ("bounds rhs", f"{self.mpp_rhs:.6e}"),
            ("bounds certified", "yes" if self.mpp_ok else "no"),
            ("kappa min (bounds)", f"{self.kappa_min_mpp:.6e}"),
            ("energy lhs (kappa/eps)", f"{self.es_lhs:.6e}"),
            ("energy rhs", f"{self.es_rhs:.6e}"),
            ("energy certified", "yes" if self.es_ok else "no"),
            ("kappa min (energy)", f"{self.kappa_min_es:.6e}"),
            ("continuous bounds lhs (<= 1)", f"{self.continuous_mpp_lhs:.6e}"),
            ("continuous bounds certified", "yes" if self.continuous_mpp_ok else "no"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def check_conditions(
    params: ModelParams,
    spec: NonlinearSpec,
    op: LongRangeOp,
    grid: PeriodicGrid,
    potential: GridField | None = None,
) -> ConditionReport:
    """Evaluate the bounds and energy-decay conditions for these parameters.

    With an external potential (solvation mode) the interaction load
    gamma*||L|| + M*|T| is replaced by ||U||_inf, and the energy condition
    loses its L_f'^2 part because that energy term is linear in f.
    """
    lc = lipschitz_constants(spec)
    eps = params.epsilon
    if potential is not None:
        if op.kind is not OpKind.NONE:
            raise ConfigError("an external potential requires operator kind 'none'")
        op_norm = float(np.max(np.abs(potential.values)))
        mpp_rhs = lc.L_Wpp / eps + lc.L_fpp * op_norm
        es_rhs = mpp_rhs
        continuous_lhs = eps / 6.0 * op_norm
    else:
        op_norm = 0.0 if op.kind is OpKind.NONE else estimate_linf_norm(op, grid)
        load = params.gamma * op_norm + params.M * grid.measure
        mpp_rhs = lc.L_Wpp / eps + params.omega_tilde * lc.L_fpp * load
        es_rhs = lc.L_Wpp / eps + (lc.L_fp**2 + params.omega_tilde * lc.L_fpp) * load
        continuous_lhs = eps * params.omega_tilde / 6.0 * load
    mpp_lhs = 1.0 / params.tau + params.kappa / eps
    es_lhs = params.kappa / eps
    compatible = spec.endpoint_compatible
    return ConditionReport(
        op_norm=op_norm,
        mpp_lhs=mpp_lhs,
        mpp_rhs=mpp_rhs,
        mpp_ok=compatible and mpp_lhs >= mpp_rhs,
        es_lhs=es_lhs,
        es_rhs=es_rhs,
        es_ok=compatible and es_lhs >= es_rhs,
        kappa_min_mpp=max(0.0, eps * (mpp_rhs - 1.0 / params.tau)),
        kappa_min_es=eps * es_rhs,
        continuous_mpp_lhs=continuous_lhs,
        continuous_mpp_ok=compatible and continuous_lhs <= 1.0,
    )


def _carried_mismatch(phi_values: np.ndarray, problem: Problem) -> np.ndarray | None:
    """Read-only mismatch spectrum for a state; None without a long-range operator."""
    if problem.multiplier is None:
        return None
    # A non-finite spectrum is reported as BlowupError by the next step or energy.
    with np.errstate(over="ignore", invalid="ignore"):
        mismatch_hat = problem.mismatch_spectrum(phi_values)
    mismatch_hat.setflags(write=False)
    return mismatch_hat


def step(
    state: SchemeState,
    params: ModelParams,
    spec: NonlinearSpec,
    op: LongRangeOp,
    potential: GridField | None = None,
    *,
    problem: Problem | None = None,
) -> SchemeState:
    """Advance one step; deterministic for identical inputs on a fixed platform.

    The result is the same, bit for bit, whether or not ``state`` carries
    its mismatch spectrum.  ``problem`` holds the operator arrays and work
    buffers (:func:`run` builds one per run and passes it); it must have
    been built from the same arguments, and without it one is built here.
    """
    grid = state.phi.grid
    pot = potential.values if potential is not None else None
    if problem is None:
        problem = Problem(grid, params, spec, op, pot)
    elif not problem.built_from(grid, params, spec, op, pot):
        raise ValueError("problem was built for other arguments than this step's")
    n_new = state.step_index + 1
    # A non-finite value anywhere makes the increment non-finite, which is
    # reported as BlowupError, so the overflow warnings on the way are
    # suppressed.
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = assemble_rhs_array(
            state.phi.values, grid, params, spec, op, pot,
            mismatch_hat=state.mismatch_hat, problem=problem,
        )
        phi_hat = np.fft.rfftn(
            rhs, axes=problem.axes, out=np.empty(problem.half_shape, complex)
        )
        solve = phi_hat.view(np.float64)
        solve *= problem.inverse_denominator   # the division by the denominator
        phi_new = np.fft.irfftn(
            phi_hat, s=grid.shape, axes=problem.axes, out=np.empty(grid.shape)
        )
        change = np.subtract(phi_new, state.phi.values, out=problem.rhs)
        increment = float(np.max(np.abs(change, out=change)))
    if not math.isfinite(increment):
        raise BlowupError(n_new)
    phi_hat.setflags(write=False)
    return SchemeState(
        phi=GridField._checked(grid, phi_new),
        step_index=n_new,
        time=n_new * params.tau,
        last_increment_linf=increment,
        phi_hat=phi_hat,
        mismatch_hat=_carried_mismatch(phi_new, problem),
    )


def _with_spectra(state: SchemeState, problem: Problem) -> SchemeState:
    """``state`` carrying the spectra a step would have left on it."""
    phi_hat, mismatch_hat = state.phi_hat, state.mismatch_hat
    if phi_hat is None:
        phi_hat = np.fft.rfftn(state.phi.values)
        phi_hat.setflags(write=False)
    if mismatch_hat is None:
        mismatch_hat = _carried_mismatch(state.phi.values, problem)
    return replace(state, phi_hat=phi_hat, mismatch_hat=mismatch_hat)


@dataclass(frozen=True)
class StepRecord:
    """Per-step diagnostics row: index, time, field bounds, energy, increment."""

    n: int
    t: float
    phi_min: float
    phi_max: float
    energy: float
    increment: float


def _energy(state: SchemeState, params, spec, op, potential) -> float:
    """Total discrete energy of ``state``; a non-finite one is a blowup."""
    # The overflow warnings on the way to a non-finite energy are suppressed
    # because the result is checked and reported as BlowupError.
    with np.errstate(over="ignore", invalid="ignore"):
        total = discrete_energy(
            state.phi, params, spec, op, potential,
            phi_hat=state.phi_hat, mismatch_hat=state.mismatch_hat,
        ).total
    if not math.isfinite(total):
        raise BlowupError(
            state.step_index, f"non-finite energy at step {state.step_index}"
        )
    return total


def _make_record(
    state: SchemeState, params, spec, op, potential, energy: float | None = None
) -> StepRecord:
    """Diagnostics row of ``state``; ``energy`` is its energy if already known."""
    return StepRecord(
        n=state.step_index,
        t=state.time,
        phi_min=float(np.min(state.phi.values)),
        phi_max=float(np.max(state.phi.values)),
        energy=_energy(state, params, spec, op, potential) if energy is None else energy,
        increment=state.last_increment_linf if state.step_index > 0 else 0.0,
    )


def run(
    state0: SchemeState,
    params: ModelParams,
    spec: NonlinearSpec,
    op: LongRangeOp,
    t_max: float,
    tol: float = 1e-3,
    *,
    potential: GridField | None = None,
    record_every: int = 1,
    report: ConditionReport | None = None,
    mpp_tol: float = MPP_TOL,
) -> tuple[SchemeState, list[StepRecord]]:
    """Iterate :func:`step` until ``t >= t_max`` or the increment criterion.

    The iteration stops early once ||P_new - P_old||_inf / tau <= tol
    (pass ``tol <= 0`` to always integrate to ``t_max``).  Records are
    taken every ``record_every`` steps plus at the initial state and the
    final step.  When the report certifies a guarantee, it is enforced on
    every step: bounds, and energy decay (for a resumed state, starting
    from that state's energy); a violation raises instead of returning.
    The energy comes from the spectra each step carries, so checking it
    costs no FFT.  A non-finite energy raises :class:`BlowupError`.
    """
    if t_max <= 0.0:
        raise ConfigError(f"t_max must be positive, got {t_max}")
    if record_every < 1:
        raise ConfigError(f"record_every must be >= 1, got {record_every}")
    if report is None:
        report = check_conditions(params, spec, op, state0.phi.grid, potential)
    problem = Problem(
        state0.phi.grid, params, spec, op, potential.values if potential is not None else None
    )
    state = _with_spectra(state0, problem)
    records: list[StepRecord] = []
    last_energy = None
    if state.step_index == 0:
        first = _make_record(state, params, spec, op, potential)
        records.append(first)
        last_energy = first.energy
    elif report.es_ok:
        # A resumed run (the next segment of run_with_snapshots) checks its
        # first step against the state it starts from, which the previous
        # segment recorded last.
        last_energy = _energy(state, params, spec, op, potential)
    n_steps = max(0, math.ceil((t_max - state.time) / params.tau - 1e-12))
    for k in range(1, n_steps + 1):
        state = step(state, params, spec, op, potential, problem=problem)
        if report.mpp_ok:
            lo = float(np.min(state.phi.values))
            hi = float(np.max(state.phi.values))
            if lo < -mpp_tol or hi > 1.0 + mpp_tol:
                raise MppViolationError(
                    f"certified bounds violated at step {state.step_index}: "
                    f"min={lo:.3e}, max={hi:.3e}"
                )
        energy = None
        if report.es_ok:
            energy = _energy(state, params, spec, op, potential)
            if energy > last_energy + ENERGY_TOL * (1.0 + abs(last_energy)):
                raise EnergyIncreaseError(
                    f"certified energy decay violated at step {state.step_index}: "
                    f"{last_energy!r} -> {energy!r}"
                )
            last_energy = energy
        stopping = tol > 0.0 and state.last_increment_linf / params.tau <= tol
        if k % record_every == 0 or k == n_steps or stopping:
            records.append(_make_record(state, params, spec, op, potential, energy))
        if stopping:
            break
    return state, records
