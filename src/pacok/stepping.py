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
one model object, which holds the parameters, the operator arrays, every
buffer and both spectra; a :class:`SchemeState` holds only the field.
:func:`step` runs on the problem it is given and on nothing else: it loads
the state's field into the problem, allocates the new field its returned
state owns and runs the kernel once.  A problem serves one sequence of
steps at a time, since each step leaves its field's q and spectra in the
problem for the next step and the energy.  :func:`run` takes the problem
its caller built, checks the conditions of that problem and loads its
starting field into it, so the first row's energy comes from the kernel
like every later one; it makes its first step through :func:`step` and the
rest in the kernel alone, on the problem's buffers (two fields in turn),
allocating no grid-sized array but a copy of the field at each snapshot
time.

Two parameter conditions certify qualitative guarantees, both checked with
the max-norm of the long-range operator that the problem keeps:

  bounds:  1/tau + kappa/eps >= L_W''/eps
             + omega_t * L_f'' * (gamma*||L|| + M*|T|),
  energy:  kappa/eps >= L_W''/eps
             + (L_f'^2 + omega_t * L_f'') * (gamma*||L|| + M*|T|),

with omega_t = max(omega, 1-omega).  The energy condition implies the
bounds condition.  Both proofs also require f'(0) = f'(1) = 0, so with the
linear indicator the guarantees are reported as unsatisfied no matter the
arithmetic.  When the run's problem certifies a guarantee, :func:`run`
enforces it at run time and raises on violation; outside the conditions
violations are possible and are only reported, not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import problem_energy
from .errors import (
    BlowupError, ConfigError, EnergyIncreaseError, GridMismatchError, MppViolationError,
)
from .grid import GridField
from .physics import Problem, lipschitz_constants

MPP_TOL = 1e-10
ENERGY_TOL = 1e-9


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


def check_conditions(problem: Problem) -> ConditionReport:
    """Evaluate the bounds and energy-decay conditions of ``problem``.

    The conditions read the problem's parameters, indicator, grid and
    ``op_norm``.  With an external potential (solvation mode) the
    interaction load gamma*||L|| + M*|T| is replaced by ||U||_inf, and the
    energy condition loses its L_f'^2 part because that energy term is
    linear in f.
    """
    params, spec, op_norm = problem.params, problem.spec, problem.op_norm
    lc = lipschitz_constants(spec)
    eps = params.epsilon
    if problem.potential_values is not None:
        mpp_rhs = lc.L_Wpp / eps + lc.L_fpp * op_norm
        es_rhs = mpp_rhs
        continuous_lhs = eps / 6.0 * op_norm
    else:
        load = params.gamma * op_norm + params.M * problem.grid.measure
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


def step(state: SchemeState, problem: Problem) -> SchemeState:
    """Advance one step on ``problem``; deterministic for identical inputs on a fixed platform.

    A problem serves one sequence of steps: the step loads ``state.phi``
    into it and leaves the new field's q and spectra there, which the next
    step and :func:`pacok.energy.problem_energy` of that field read, so a
    step made on it from elsewhere replaces them.  The returned state owns
    its field, a new array.
    """
    grid = problem.grid
    if state.phi.grid != grid:
        raise GridMismatchError(f"the state lives on {state.phi.grid}, the problem on {grid}")
    n_new = state.step_index + 1
    phi_new = np.empty(grid.shape)
    # A non-finite value anywhere makes the increment non-finite, reported
    # as BlowupError, so the overflow warnings on the way are suppressed.
    with np.errstate(over="ignore", invalid="ignore"):
        problem.load(state.phi.values)
        increment = problem.advance(state.phi.values, phi_new)
    if not math.isfinite(increment):
        raise BlowupError(n_new)
    return SchemeState(
        GridField._checked(grid, phi_new), n_new, n_new * problem.params.tau, increment
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


def _checked_energy(n: int, problem: Problem, s) -> float:
    """Total energy of the problem's current field ``s``, at step ``n``; a non-finite one is a blowup."""
    # The overflow warnings on the way to a non-finite energy are suppressed
    # because the result is checked and reported as BlowupError.
    with np.errstate(over="ignore", invalid="ignore"):
        total = problem_energy(problem, s).total
    if not math.isfinite(total):
        raise BlowupError(n, f"non-finite energy at step {n}")
    return total


def _outside_bounds(lo: float, hi: float) -> bool:
    return lo < -MPP_TOL or hi > 1.0 + MPP_TOL


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
    """Iterate the time step of ``problem`` until ``t >= t_max`` or the increment criterion.

    The iteration stops early once ||P_new - P_old||_inf / tau <= tol
    (pass ``tol <= 0`` to always integrate to ``t_max``).  Records are
    taken at the start, every ``record_every`` steps counted from it, at
    each snapshot step and at the final step.  When
    :func:`check_conditions` of the problem certifies a guarantee, it is
    enforced on every step: bounds, and energy decay from the starting
    field's energy on; a violation raises instead of returning.  Certified
    bounds also need a starting field in [0, 1]; one outside is a
    :class:`ConfigError`, as is a step count that is not finite.  A
    ``state0`` on another grid than the problem's raises
    :class:`GridMismatchError`.  A non-finite increment or energy raises
    :class:`BlowupError`.

    Each of ``snapshot_times`` (none beyond ``t_max``) is reached at the
    first step at or after it, counted from the step of the time before it.
    At such a step before the last, ``on_snapshot`` gets a bare
    :class:`SchemeState` that owns a copy of the field.

    Every energy comes from :func:`pacok.energy.problem_energy`, on the
    field and spectra the problem holds; the start's two spectra come from
    :meth:`pacok.physics.Problem.start`.  The first step is a call of :func:`step`, the kernel
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
    n, s = state0.step_index, state0.phi.values
    # The steps that reach each time, counted as separate runs would count them.
    ends, t = [0], state0.time
    for target in sorted(snapshot_times) + [t_max]:
        steps = (target - t) / tau - 1e-12
        if not math.isfinite(steps):
            raise ConfigError(f"the step count to t = {target!r} with tau = {tau!r} is not finite")
        ends.append(ends[-1] + max(0, math.ceil(steps)))
        t = (n + ends[-1]) * tau
    n_steps, snapshot_steps = ends[-1], set(ends[1:-1]) - {ends[-1]}
    report = check_conditions(problem)
    with np.errstate(over="ignore", invalid="ignore"):
        problem.start(s)
    last_energy = _checked_energy(n, problem, s)
    lo, hi = float(s.min()), float(s.max())
    if report.mpp_ok and _outside_bounds(lo, hi):
        raise ConfigError(
            f"certified bounds need an initial field in [0, 1]: min={lo:.3e}, max={hi:.3e}"
        )
    records = [StepRecord(n, state0.time, lo, hi, last_energy, 0.0)]
    if n_steps == 0:
        return state0, records
    state = step(state0, problem)
    problem.allocate_run_buffers()
    # step left q, the spectra and the volume term for its field in the problem.
    n, increment, s = state.step_index, state.last_increment_linf, state.phi.values
    del state   # its field goes once the kernel has stepped past it
    for k in range(1, n_steps + 1):
        if k > 1:
            out = problem.fields[k % 2]
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
            energy = _checked_energy(n, problem, s)
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
            field = GridField._checked(grid, s.copy())
            on_snapshot(SchemeState(field, n, n * tau, increment))
        if stopping:
            break
    return SchemeState(GridField._checked(grid, s), n, n * tau, increment), records
