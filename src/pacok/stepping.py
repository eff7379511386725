"""Stabilized first-order semi-implicit time stepping with certified bounds.

One step solves

    ((1 + tau*kappa/eps) I - tau*eps*Lap_h) P_new = F(P_old)

with the explicit right-hand side F from :mod:`pacok.physics`.  The DFT
diagonalizes the left-hand side exactly, so the solve is a forward
transform, a division by

    (1 + tau*kappa/eps) + tau*eps*lambda(j, k),

and an inverse transform.  Every denominator entry is >= 1, which makes the
step unconditionally uniquely solvable.

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
import threading
from dataclasses import dataclass

import numpy as np

from .energy import discrete_energy
from .errors import BlowupError, ConfigError, EnergyIncreaseError, MppViolationError
from .grid import GridField, PeriodicGrid
from .physics import (
    ModelParams,
    NonlinearSpec,
    assemble_rhs_array,
    lipschitz_constants,
)
from .spectral import LongRangeOp, OpKind, estimate_linf_norm, stencil_symbol

MPP_TOL = 1e-10
ENERGY_TOL = 1e-9


@dataclass(frozen=True)
class SchemeState:
    """Current iterate, its step index, physical time, and last increment."""

    phi: GridField
    step_index: int = 0
    time: float = 0.0
    last_increment_linf: float = math.inf

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


_solver_cache: dict = {}
_solver_lock = threading.Lock()


def _solve_denominator(grid: PeriodicGrid, params: ModelParams) -> np.ndarray:
    key = (grid.sizes, grid.half_extents, params.tau, params.kappa, params.epsilon)
    with _solver_lock:
        cached = _solver_cache.get(key)
    if cached is not None:
        return cached
    denom = (
        1.0
        + params.tau * params.kappa / params.epsilon
        + params.tau * params.epsilon * stencil_symbol(grid)
    )
    if float(np.min(denom)) < 1.0 - 1e-15:
        raise AssertionError("implicit solve lost unconditional solvability")
    denom.setflags(write=False)
    with _solver_lock:
        _solver_cache[key] = denom
    return denom


def step(
    state: SchemeState,
    params: ModelParams,
    spec: NonlinearSpec,
    op: LongRangeOp,
    potential: GridField | None = None,
) -> SchemeState:
    """Advance one step; deterministic for identical inputs on a fixed platform."""
    grid = state.phi.grid
    pot = potential.values if potential is not None else None
    # Non-finite intermediates are detected and reported as BlowupError, so
    # the overflow warnings on the way there are suppressed.
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = assemble_rhs_array(state.phi.values, grid, params, spec, op, pot)
    n_new = state.step_index + 1
    if not np.all(np.isfinite(rhs)):
        raise BlowupError(n_new)
    denom = _solve_denominator(grid, params)
    axes = tuple(range(grid.dim))
    spectrum = np.fft.rfftn(rhs, axes=axes)
    spectrum /= denom
    phi_new = np.fft.irfftn(spectrum, s=grid.shape, axes=axes)
    if not np.all(np.isfinite(phi_new)):
        raise BlowupError(n_new)
    increment = float(np.max(np.abs(phi_new - state.phi.values)))
    return SchemeState(
        phi=GridField(grid, phi_new),
        step_index=n_new,
        time=n_new * params.tau,
        last_increment_linf=increment,
    )


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
        total = discrete_energy(state.phi, params, spec, op, potential).total
    if not math.isfinite(total):
        raise BlowupError(
            state.step_index, f"non-finite energy at step {state.step_index}"
        )
    return total


def _make_record(state: SchemeState, params, spec, op, potential) -> StepRecord:
    return StepRecord(
        n=state.step_index,
        t=state.time,
        phi_min=float(np.min(state.phi.values)),
        phi_max=float(np.max(state.phi.values)),
        energy=_energy(state, params, spec, op, potential),
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
    final step.  When the report certifies a guarantee, it is enforced:
    bounds are checked every step, energy decay between consecutive
    records (for a resumed state, starting from that state's energy), and a
    violation raises instead of returning.  A non-finite energy raises
    :class:`BlowupError`.
    """
    if t_max <= 0.0:
        raise ConfigError(f"t_max must be positive, got {t_max}")
    if record_every < 1:
        raise ConfigError(f"record_every must be >= 1, got {record_every}")
    if report is None:
        report = check_conditions(params, spec, op, state0.phi.grid, potential)
    state = state0
    records: list[StepRecord] = []
    last_energy = None
    if state.step_index == 0:
        first = _make_record(state, params, spec, op, potential)
        records.append(first)
        last_energy = first.energy
    elif report.es_ok:
        # A resumed run (the next segment of run_with_snapshots) checks its
        # first record against the state it starts from, which the previous
        # segment recorded last.
        last_energy = _energy(state, params, spec, op, potential)
    n_steps = max(0, math.ceil((t_max - state.time) / params.tau - 1e-12))
    for k in range(1, n_steps + 1):
        state = step(state, params, spec, op, potential)
        if report.mpp_ok:
            lo = float(np.min(state.phi.values))
            hi = float(np.max(state.phi.values))
            if lo < -mpp_tol or hi > 1.0 + mpp_tol:
                raise MppViolationError(
                    f"certified bounds violated at step {state.step_index}: "
                    f"min={lo:.3e}, max={hi:.3e}"
                )
        stopping = tol > 0.0 and state.last_increment_linf / params.tau <= tol
        if k % record_every == 0 or k == n_steps or stopping:
            rec = _make_record(state, params, spec, op, potential)
            records.append(rec)
            if report.es_ok and last_energy is not None:
                if rec.energy > last_energy + ENERGY_TOL * (1.0 + abs(last_energy)):
                    raise EnergyIncreaseError(
                        f"certified energy decay violated at step {state.step_index}: "
                        f"{last_energy!r} -> {rec.energy!r}"
                    )
            last_energy = rec.energy
        if stopping:
            break
    return state, records
