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
mismatch spectrum rfftn(f(P_old) - omega), which the previous step computed;
the step multiplies it by the operator's symbol and transforms back.  The
solve is the second.  The energy comes from the solve spectrum, the new
mismatch spectrum and q = P^2 - P by Parseval's identity
(:func:`pacok.energy.problem_energy`), so a recorded step needs no
further transform.

A step is the array kernel of :class:`pacok.physics.Problem`, the run's
one model object, which holds the parameters, the operator arrays, the
scratch buffers and both spectra; a :class:`SchemeState` holds only the field.
:func:`step` runs on the problem it is given and on nothing else: it loads
the state's field into the problem, allocates the new field its returned
state owns and runs the kernel once.  A problem serves one sequence of
steps at a time, since each step leaves its field's q and spectra in the
problem for the next step and the energy.  :func:`run` takes the problem
its caller built, checks the conditions of that problem and loads its
starting field into it, so the first row's energy comes from the kernel
like every later one; it makes its first step through :func:`step` and the
rest in the kernel alone, writing into two fields of its own in turn,
allocated after the first step, and allocating no other grid-sized array
but a copy of the field at each snapshot time.

Two parameter conditions certify qualitative guarantees.  Both read the
problem's force bound B = omega_t (gamma ||L|| + M |T|), omega_t =
max(omega, 1-omega), ||L|| the operator's max-norm, and its interaction
norm I = gamma ||L|| + M |T|; in solvation mode, whose interaction energy
is linear in f, B = max|U| and I = 0.

  bounds:  1/tau + kappa/eps >= L_W''/eps + L_f'' B,
  energy:  kappa/eps >= L_W''/eps + L_f'' B + L_f'^2 I.

L_W'', L_f' and L_f'' are the bound constants of the problem's
:class:`pacok.physics.ModelParams`, which names f.  The energy condition
implies the bounds condition, and the continuous-level bounds condition is
eps B / 6 <= 1.  Both proofs also require f'(0) = f'(1) = 0
(``endpoint_compatible``), so with the linear indicator the guarantees are
reported as unsatisfied no matter the arithmetic.  When the run's problem
certifies a guarantee, :func:`run` enforces it at run time and raises on
violation; outside the conditions violations are possible and are only
reported, not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyBreakdown, problem_energy
from .errors import (
    BlowupError, ConfigError, EnergyIncreaseError, GridMismatchError, MppViolationError,
)
from .grid import GridField
from .physics import Problem

MPP_TOL = 1e-10
ENERGY_TOL = 1e-9
STEP_RTOL = 1e-9


def steps_to(t: float, tau: float) -> int:
    """The steps of size ``tau`` that reach time ``t``: the first step at or after it,
    where a time within a relative ``STEP_RTOL`` of a step counts as that step.
    A count that is not finite is a :class:`ConfigError`."""
    steps = t / tau
    if not math.isfinite(steps):
        raise ConfigError(f"the step count to t = {t!r} with tau = {tau!r} is not finite")
    nearest = round(steps)
    return max(0, nearest if math.isclose(steps, nearest, rel_tol=STEP_RTOL) else math.ceil(steps))


@dataclass(frozen=True)
class SchemeState:
    """Current iterate, its step index, physical time, and last increment.

    A state holds no spectrum: the run's :class:`pacok.physics.Problem`
    owns the solve and mismatch spectra.
    """

    phi: GridField
    step_index: int = 0
    time: float = 0.0
    last_increment_linf: float = math.inf


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


def check_conditions(problem: Problem) -> ConditionReport:
    """Evaluate the bounds and energy-decay conditions of ``problem``, which read its
    parameters (with their indicator's bound constants), ``force_bound`` and
    ``interaction_norm``."""
    params = problem.params
    L_Wpp, L_fp, L_fpp = params.bound_constants
    eps = params.epsilon
    mpp_rhs = L_Wpp / eps + L_fpp * problem.force_bound
    es_rhs = mpp_rhs + L_fp**2 * problem.interaction_norm
    continuous_lhs = eps / 6.0 * problem.force_bound
    mpp_lhs = 1.0 / params.tau + params.kappa / eps
    es_lhs = params.kappa / eps
    compatible = params.endpoint_compatible
    return ConditionReport(
        op_norm=problem.op_norm,
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


def _check_clock(state: SchemeState, tau: float) -> None:
    """A state's time must be its step count times tau, the time every step returns."""
    if not math.isclose(state.time, state.step_index * tau, rel_tol=STEP_RTOL):
        raise ConfigError(
            f"the state's time {state.time!r} is not its step index {state.step_index} "
            f"times tau = {tau!r}, which is {state.step_index * tau!r}"
        )


def step(state: SchemeState, problem: Problem) -> SchemeState:
    """Advance one step on ``problem``; deterministic for identical inputs on a fixed platform.

    A problem serves one sequence of steps: the step loads ``state.phi``
    into it and leaves the new field's q and spectra there, which the next
    step and :func:`pacok.energy.problem_energy` of that field read, so a
    step made on it from elsewhere replaces them.  The returned state owns
    its field, a new array, and its time is its step index times tau.  A
    ``state`` whose time is not its step index times tau (within
    ``STEP_RTOL``) is a :class:`ConfigError`.
    """
    grid = problem.grid
    if state.phi.grid != grid:
        raise GridMismatchError(f"the state lives on {state.phi.grid}, the problem on {grid}")
    _check_clock(state, problem.params.tau)
    n_new = state.step_index + 1
    phi_new = np.empty(grid.shape)
    # A non-finite value anywhere makes the increment non-finite, reported
    # as BlowupError, so the overflow warnings on the way are suppressed.
    with np.errstate(over="ignore", invalid="ignore"):
        problem.load(state.phi.values)
        increment = problem.advance(state.phi.values, phi_new)
    if not math.isfinite(increment):
        raise BlowupError(n_new)
    return SchemeState(GridField(grid, phi_new), n_new, n_new * problem.params.tau, increment)


@dataclass(frozen=True)
class StepRecord:
    """Per-step diagnostics row: index, time, field bounds, energy, increment."""

    n: int
    t: float
    phi_min: float
    phi_max: float
    energy: float
    increment: float


def start_energy(problem: Problem, s: np.ndarray) -> EnergyBreakdown:
    """Start ``problem`` from ``s`` (:meth:`pacok.physics.Problem.start`); the energy of ``s``.
    One that is not finite is bad input, a :class:`ConfigError`; its overflow warnings are muted."""
    with np.errstate(over="ignore", invalid="ignore"):
        problem.start(s)
        energy = problem_energy(problem, s)
    if not math.isfinite(energy.total):
        raise ConfigError(f"the starting field's energy is not finite: total = {energy.total!r}")
    return energy


def _outside_bounds(lo: float, hi: float) -> bool:
    return lo < -MPP_TOL or hi > 1.0 + MPP_TOL


def check_start(problem: Problem, s: np.ndarray) -> tuple[ConditionReport, float, float, float]:
    """Start ``problem`` from ``s``; return its :func:`check_conditions`, the :func:`start_energy`
    total and the min and max of ``s``, refusing a start outside certified bounds [0, 1]."""
    report = check_conditions(problem)
    energy = start_energy(problem, s).total
    lo, hi = float(s.min()), float(s.max())
    if report.mpp_ok and _outside_bounds(lo, hi):
        raise ConfigError(f"certified bounds need an initial field in [0, 1]: "
                          f"min={lo:.3e}, max={hi:.3e}")
    return report, energy, lo, hi


def run(
    state0: SchemeState,
    problem: Problem,
    t_max: float,
    tol: float = 1e-3,
    *,
    record_every: int = 1,
    snapshot_times=(),
    on_snapshot=None,
) -> tuple[SchemeState, list[StepRecord]]:
    """Step ``problem`` up to the step that reaches ``t_max``, or to the increment stop.

    The iteration stops early once ||P_new - P_old||_inf / tau <= tol
    (pass ``tol <= 0`` to always integrate to ``t_max``).  Records are
    taken at the start, every ``record_every`` steps counted from it, at
    each snapshot step and at the final step.  When
    :func:`check_conditions` of the problem certifies a guarantee, it is
    enforced on every step: bounds, and energy decay from the starting
    field's energy on; a violation raises instead of returning.  The start
    passes :func:`check_start` first: certified bounds need a starting field
    in [0, 1], and one outside is a :class:`ConfigError`, as are a starting
    field whose energy is not finite, a step count that is not finite and a
    ``state0`` whose time is not its step index times tau (within
    ``STEP_RTOL``).  A ``state0`` on another grid than the
    problem's raises :class:`GridMismatchError`.  A non-finite increment, or energy after
    the start, raises :class:`BlowupError`.

    ``t_max`` and each of ``snapshot_times`` (none beyond it) are reached at
    :func:`steps_to` of their distance from ``state0.time``, so snapshot times
    never move the run's end.  At a snapshot step before the last,
    ``on_snapshot`` gets a bare :class:`SchemeState` owning a copy of the field;
    at step 0 it gets ``state0`` itself, once the start has passed its checks
    and before the first step, so a rejected start calls it never.

    Every energy comes from :func:`pacok.energy.problem_energy`, on the
    field and spectra the problem holds; the start's come from
    :func:`check_start`.  The first step is a call of :func:`step`, the kernel
    makes the others, and the returned state takes the field buffer the
    kernel wrote last (``state0`` itself when there is nothing to step).
    """
    if not 0.0 < t_max < math.inf:
        raise ConfigError(f"t_max must be positive and finite, got {t_max}")
    if record_every < 1:
        raise ConfigError(f"record_every must be >= 1, got {record_every}")
    for t in snapshot_times:
        if not t <= t_max:
            raise ConfigError(f"snapshot time {t!r} lies beyond t_max = {t_max!r}")
    grid, tau = problem.grid, problem.params.tau
    if state0.phi.grid != grid:
        raise GridMismatchError(f"the state lives on {state0.phi.grid}, the problem on {grid}")
    _check_clock(state0, tau)
    n, s = state0.step_index, state0.phi.values
    n_steps = steps_to(t_max - state0.time, tau)
    snapshot_steps = {steps_to(t - state0.time, tau) for t in snapshot_times} - {n_steps}
    report, last_energy, lo, hi = check_start(problem, s)
    records = [StepRecord(n, state0.time, lo, hi, last_energy, 0.0)]
    if n_steps == 0:
        return state0, records
    if 0 in snapshot_steps and on_snapshot is not None:
        on_snapshot(state0)
    state = step(state0, problem)
    # The kernel writes its steps into these two fields in turn.
    fields = (np.empty(grid.shape), np.empty(grid.shape))
    # step left q, the spectra and the volume term for its field in the problem.
    n, increment, s = state.step_index, state.last_increment_linf, state.phi.values
    del state   # its field goes once the kernel has stepped past it
    for k in range(1, n_steps + 1):
        if k > 1:
            out = fields[k % 2]
            with np.errstate(over="ignore", invalid="ignore"):
                increment = problem.advance(s, out)
            n += 1
            if not math.isfinite(increment):
                raise BlowupError(n)
            s = out
        stopping = tol > 0.0 and increment / tau <= tol
        snapshot = k in snapshot_steps and not stopping
        recording = k % record_every == 0 or k == n_steps or stopping or snapshot
        if report.mpp_ok or recording:
            lo, hi = float(s.min()), float(s.max())
            if report.mpp_ok and _outside_bounds(lo, hi):
                raise MppViolationError(
                    f"certified bounds violated at step {n}: min={lo:.3e}, max={hi:.3e}"
                )
        energy = None
        if report.es_ok or recording:
            with np.errstate(over="ignore", invalid="ignore"):
                energy = problem_energy(problem, s).total
            if not math.isfinite(energy):
                raise BlowupError(n, f"non-finite energy at step {n}")
        if report.es_ok:
            if energy > last_energy + ENERGY_TOL * (1.0 + abs(last_energy)):
                raise EnergyIncreaseError(
                    f"certified energy decay violated at step {n}: "
                    f"{last_energy!r} -> {energy!r}"
                )
            last_energy = energy
        if recording:
            records.append(StepRecord(n, n * tau, lo, hi, energy, increment))
        if snapshot and on_snapshot is not None:
            on_snapshot(SchemeState(GridField(grid, s.copy()), n, n * tau, increment))
        if stopping:
            break
    return SchemeState(GridField(grid, s), n, n * tau, increment), records
