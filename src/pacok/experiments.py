"""Reproducible experiment drivers: convergence rates, coarsening, solvation.

Three studies are packaged with their published parameter sets plus reduced
"desk" variants that finish in minutes:

* a temporal convergence study on a shrinking-disk initial state, comparing
  halved time steps against a fine-step benchmark on the same grid;
* 1D and 2D coarsening runs from random piecewise-constant initial data,
  tracking field bounds, energy decay, and the final bump/bubble count;
* a 1D solvation equilibrium computed twice, with the cubic indicator
  (bounds preserved) and the linear one (bounds visibly violated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .grid import GridField, PeriodicGrid, norm_l2_h, save_snapshot
from .physics import FKind, ModelParams, NonlinearSpec, pvism_potential
from .spectral import LongRangeOp
from .stepping import ConditionReport, SchemeState, StepRecord, check_conditions, run


def disk_radius(omega: float, measure: float) -> float:
    """Radius of a disk holding the volume fraction omega, plus the 0.1 pad."""
    return math.sqrt(omega * measure / math.pi) + 0.1


def initial_tanh_disk(grid: PeriodicGrid, omega: float, epsilon: float) -> GridField:
    """Round-disk initial state 0.5 + 0.5 tanh((r0 - r) / (eps/3)), centered at 0."""
    if grid.dim != 2:
        raise ConfigError("the disk initial state needs a 2D grid")
    x, y = grid.meshgrid()
    r = np.hypot(x, y)
    r0 = disk_radius(omega, grid.measure)
    return GridField(grid, 0.5 + 0.5 * np.tanh((r0 - r) / (epsilon / 3.0)))


def initial_random_piecewise(
    grid: PeriodicGrid, lo: float, hi: float, blocks: int, seed: int
) -> GridField:
    """Block-constant field with per-block values uniform in [lo, hi].

    ``blocks`` counts the blocks per axis and must divide every grid size;
    the field is a deterministic function of the seed.
    """
    if lo > hi:
        raise ConfigError(f"need lo <= hi, got lo={lo}, hi={hi}")
    if blocks < 1:
        raise ConfigError(f"blocks must be >= 1, got {blocks}")
    for n in grid.sizes:
        if n % blocks != 0:
            raise ConfigError(f"blocks={blocks} does not divide grid size {n}")
    rng = np.random.default_rng(seed)
    if grid.dim == 1:
        values = np.repeat(rng.uniform(lo, hi, blocks), grid.sizes[0] // blocks)
    else:
        coarse = rng.uniform(lo, hi, (blocks, blocks))
        values = np.repeat(
            np.repeat(coarse, grid.sizes[0] // blocks, axis=0),
            grid.sizes[1] // blocks,
            axis=1,
        )
    return GridField(grid, values)


@dataclass(frozen=True)
class RateStudySetup:
    """Fixed configuration of one convergence study (everything but tau)."""

    n: int = 256
    half_extent: float = 1.0
    epsilon: float = 0.15625
    omega: float = 0.1
    gamma: float = 100.0
    M: float = 1000.0
    kappa: float = 2000.0
    t_end: float = 0.02

    def grid(self) -> PeriodicGrid:
        return PeriodicGrid((self.n, self.n), (self.half_extent, self.half_extent))

    def params(self, tau: float) -> ModelParams:
        return ModelParams(
            epsilon=self.epsilon,
            gamma=self.gamma,
            M=self.M,
            omega=self.omega,
            kappa=self.kappa,
            tau=tau,
        )


@dataclass(frozen=True)
class RateStudyResult:
    taus: tuple[float, ...]
    errors: tuple[float, ...]
    rates: tuple[float, ...]


def _steps_to(t_end: float, tau: float) -> int:
    steps = t_end / tau
    rounded = round(steps)
    if rounded < 1 or abs(steps - rounded) > 1e-9 * max(1.0, abs(steps)):
        raise ConfigError(f"tau={tau} does not divide the horizon T={t_end}")
    return rounded


def _terminal_state(setup: RateStudySetup, tau: float, phi0: GridField) -> GridField:
    _steps_to(setup.t_end, tau)
    params = setup.params(tau)
    state, _ = run(
        SchemeState.initial(phi0),
        params,
        NonlinearSpec(FKind.CUBIC_HERMITE),
        LongRangeOp.inverse_laplacian(),
        t_max=setup.t_end,
        tol=0.0,
        record_every=10**9,
    )
    return state.phi


def rate_study(
    base_tau: float, levels: int, bench_tau: float, setup: RateStudySetup
) -> RateStudyResult:
    """Errors against a fine-step benchmark for tau = base_tau / 2^i.

    All runs share the grid and the disk initial state, so the measured
    error is purely temporal; the benchmark step must divide the horizon
    exactly, as must every compared step.
    """
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    taus = [base_tau / 2**i for i in range(levels)]
    for tau in taus + [bench_tau]:
        _steps_to(setup.t_end, tau)
    phi0 = initial_tanh_disk(setup.grid(), setup.omega, setup.epsilon)
    bench = _terminal_state(setup, bench_tau, phi0)
    errors = []
    for tau in taus:
        phi = _terminal_state(setup, tau, phi0)
        errors.append(norm_l2_h(GridField(phi.grid, phi.values - bench.values)))
    rates = [
        math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    ]
    return RateStudyResult(tuple(taus), tuple(errors), tuple(rates))


def convergence_setups(scale: str) -> list[tuple[str, RateStudySetup, float, int, float]]:
    """(label, setup, base_tau, levels, bench_tau) rows for the rate study CLI."""
    if scale == "desk":
        n = 128
        factors = (10, 20)
        bench_tau = 4e-6
    elif scale == "paper":
        n = 256
        factors = (5, 10, 20)
        bench_tau = 1e-6
    else:
        raise ConfigError(f"unknown scale '{scale}' (expected desk or paper)")
    h = 2.0 / n
    rows = []
    for factor in factors:
        setup = RateStudySetup(n=n, epsilon=factor * h)
        rows.append((f"{factor}h", setup, 1e-4, 5, bench_tau))
    return rows


@dataclass(frozen=True)
class CoarseningPreset:
    """One coarsening configuration; desk variants shrink horizon and grid."""

    name: str
    dim: int
    n: int
    half_extent: float
    omega: float
    gamma: float
    M: float
    kappa: float
    tau: float
    t_end: float
    snapshot_times: tuple[float, ...]
    blocks: int
    lo: float = 0.0
    hi: float = 0.8

    @property
    def epsilon(self) -> float:
        # Interface width tied to resolution: 10 grid spacings.
        return 10.0 * (2.0 * self.half_extent / self.n)

    def grid(self) -> PeriodicGrid:
        shape = (self.n,) * self.dim
        return PeriodicGrid(shape, (self.half_extent,) * self.dim)

    def params(self) -> ModelParams:
        return ModelParams(
            epsilon=self.epsilon,
            gamma=self.gamma,
            M=self.M,
            omega=self.omega,
            kappa=self.kappa,
            tau=self.tau,
        )


_PRESETS = {
    ("g500", "paper"): CoarseningPreset(
        "g500", 1, 256, 1.0, 0.3, 500.0, 2000.0, 2000.0, 1e-3, 1000.0,
        (0.0, 10.0, 500.0, 1000.0), 16,
    ),
    ("g500", "desk"): CoarseningPreset(
        "g500", 1, 256, 1.0, 0.3, 500.0, 2000.0, 2000.0, 1e-3, 100.0,
        (0.0, 10.0, 50.0, 100.0), 16,
    ),
    ("g2000", "paper"): CoarseningPreset(
        "g2000", 1, 256, 1.0, 0.3, 2000.0, 2000.0, 2000.0, 1e-3, 1000.0,
        (0.0, 10.0, 500.0, 1000.0), 16,
    ),
    ("g2000", "desk"): CoarseningPreset(
        "g2000", 1, 256, 1.0, 0.3, 2000.0, 2000.0, 2000.0, 1e-3, 100.0,
        (0.0, 10.0, 50.0, 100.0), 16,
    ),
    ("g1000_2d", "paper"): CoarseningPreset(
        "g1000_2d", 2, 256, 1.0, 0.15, 1000.0, 1e4, 2000.0, 2e-4, 100.0,
        (0.0, 1.0, 10.0, 100.0), 8,
    ),
    ("g1000_2d", "desk"): CoarseningPreset(
        "g1000_2d", 2, 128, 1.0, 0.15, 1000.0, 1e4, 2000.0, 2e-4, 5.0,
        (0.0, 0.5, 2.5, 5.0), 8,
    ),
    ("g2000_2d", "paper"): CoarseningPreset(
        "g2000_2d", 2, 256, 1.0, 0.15, 2000.0, 1e4, 2000.0, 2e-4, 100.0,
        (0.0, 1.0, 10.0, 100.0), 8,
    ),
    ("g2000_2d", "desk"): CoarseningPreset(
        "g2000_2d", 2, 128, 1.0, 0.15, 2000.0, 1e4, 2000.0, 2e-4, 5.0,
        (0.0, 0.5, 2.5, 5.0), 8,
    ),
}

PRESET_NAMES = ("g500", "g2000", "g1000_2d", "g2000_2d")


def coarsening_preset(name: str, scale: str = "desk") -> CoarseningPreset:
    try:
        return _PRESETS[(name, scale)]
    except KeyError:
        raise ConfigError(
            f"unknown coarsening preset '{name}'/'{scale}' "
            f"(presets: {', '.join(PRESET_NAMES)}; scales: desk, paper)"
        ) from None


@dataclass(frozen=True)
class CoarseningResult:
    preset: CoarseningPreset
    report: ConditionReport
    final: SchemeState
    records: tuple[StepRecord, ...]
    bump_count: int


def run_with_snapshots(
    state: SchemeState,
    params: ModelParams,
    spec: NonlinearSpec,
    op: LongRangeOp,
    t_end: float,
    tol: float,
    snapshot_times=(),
    out_dir=None,
    record_every: int = 100,
    potential: GridField | None = None,
    report: ConditionReport | None = None,
) -> tuple[SchemeState, list[StepRecord]]:
    """Drive :func:`pacok.stepping.run` in segments, writing a snapshot file
    after each requested time (and the initial state for t = 0); appends a
    combined series.csv when an output directory is given."""
    if report is None:
        report = check_conditions(params, spec, op, state.phi.grid, potential)
    records: list[StepRecord] = []
    times = sorted(t for t in snapshot_times if 0.0 <= t <= t_end)

    snap_index = 0

    def emit_snapshot(s: SchemeState):
        nonlocal snap_index
        if out_dir is not None:
            save_snapshot(f"{out_dir}/snap_{snap_index:03d}.csv", s.phi, t=s.time)
            snap_index += 1

    if times and times[0] == 0.0:
        emit_snapshot(state)
        times = times[1:]
    stopped = False
    if not times or times[-1] < t_end:
        times = times + [t_end]
    for t_target in times:
        if stopped or state.time >= t_target:
            continue
        state, segment = run(
            state,
            params,
            spec,
            op,
            t_max=t_target,
            tol=tol,
            record_every=record_every,
            potential=potential,
            report=report,
        )
        records.extend(segment)
        stopped = tol > 0.0 and state.last_increment_linf / params.tau <= tol
        emit_snapshot(state)
    if out_dir is not None:
        from .config import write_series

        write_series(f"{out_dir}/series.csv", records)
    return state, records


def coarsening_run(
    dimension: int,
    preset: str | CoarseningPreset,
    scale: str = "desk",
    seed: int = 0,
    out_dir=None,
    record_every: int = 100,
    tol: float = 1e-3,
    **overrides,
) -> CoarseningResult:
    """Run one coarsening preset; optionally write series.csv and snapshots."""
    cfg = preset if isinstance(preset, CoarseningPreset) else coarsening_preset(preset, scale)
    if overrides:
        cfg = replace(cfg, **overrides)
    if cfg.dim != dimension:
        raise ConfigError(f"preset '{cfg.name}' is {cfg.dim}D, not {dimension}D")
    grid = cfg.grid()
    params = cfg.params()
    spec = NonlinearSpec(FKind.CUBIC_HERMITE)
    op = LongRangeOp.inverse_laplacian()
    report = check_conditions(params, spec, op, grid)
    state = SchemeState.initial(
        initial_random_piecewise(grid, cfg.lo, cfg.hi, cfg.blocks, seed)
    )
    state, records = run_with_snapshots(
        state,
        params,
        spec,
        op,
        t_end=cfg.t_end,
        tol=tol,
        snapshot_times=cfg.snapshot_times,
        out_dir=out_dir,
        record_every=record_every,
        report=report,
    )
    return CoarseningResult(
        preset=cfg,
        report=report,
        final=state,
        records=tuple(records),
        bump_count=count_bumps(state.phi),
    )


@dataclass(frozen=True)
class SolvationComparison:
    cubic_final: SchemeState
    linear_final: SchemeState
    cubic_bounds: tuple[float, float]
    linear_bounds: tuple[float, float]
    cubic_report: ConditionReport
    linear_report: ConditionReport


def pvism_compare(
    n: int = 1024,
    half_extent: float = 5.0,
    kappa: float = 2000.0,
    tau: float = 1e-4,
    tol: float = 1e-3,
    t_max: float = 100.0,
    out_dir=None,
) -> SolvationComparison:
    """Solvation equilibrium with cubic versus linear indicator nonlinearity.

    A single solute sits at the origin; the initial interface is the tanh
    profile through the potential's cutoff radius.  Both runs use the
    increment stopping criterion.  The cubic equilibrium stays inside
    [0, 1]; the linear one undershoots inside the interface and overshoots
    outside it.
    """
    grid = PeriodicGrid((n,), (half_extent,))
    h = 2.0 * half_extent / n
    epsilon = 50.0 * h
    potential = pvism_potential(grid, [0.0])
    (x,) = grid.coordinates()
    phi0 = GridField(grid, 0.5 + 0.5 * np.tanh((np.abs(x) - 2.5) / (epsilon / 3.0)))
    params = ModelParams(
        epsilon=epsilon, gamma=0.0, M=0.0, omega=0.5, kappa=kappa, tau=tau
    )
    op = LongRangeOp.none()
    results = {}
    for label, kind in (("cubic", FKind.CUBIC_HERMITE), ("linear", FKind.LINEAR)):
        spec = NonlinearSpec(kind)
        report = check_conditions(params, spec, op, grid, potential)
        state, records = run(
            SchemeState.initial(phi0),
            params,
            spec,
            op,
            t_max=t_max,
            tol=tol,
            potential=potential,
            record_every=1000,
            report=report,
        )
        if out_dir is not None:
            save_snapshot(f"{out_dir}/equilibrium_{label}.csv", state.phi, t=state.time)
        results[label] = (state, report)
    cubic_state, cubic_report = results["cubic"]
    linear_state, linear_report = results["linear"]
    return SolvationComparison(
        cubic_final=cubic_state,
        linear_final=linear_state,
        cubic_bounds=(float(np.min(cubic_state.phi.values)), float(np.max(cubic_state.phi.values))),
        linear_bounds=(float(np.min(linear_state.phi.values)), float(np.max(linear_state.phi.values))),
        cubic_report=cubic_report,
        linear_report=linear_report,
    )


def count_bumps(phi: GridField, threshold: float = 0.5) -> int:
    """Connected components of {phi > threshold} with periodic adjacency.

    1D components are circular runs; 2D uses 4-adjacency with the two wrap
    seams merged.
    """
    if not (0.0 < threshold < 1.0):
        raise ConfigError(f"threshold must lie in (0, 1), got {threshold}")
    mask = phi.values > threshold
    if not mask.any():
        return 0
    if phi.grid.dim == 1:
        m = mask.astype(np.int8)
        rises = int(np.sum((m - np.roll(m, 1)) == 1))
        return rises if rises > 0 else 1
    from scipy import ndimage   # deferred: the only scipy user, and slow to import

    labels, count = ndimage.label(mask)
    if count == 0:
        return 0
    parent = list(range(count + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for j in range(mask.shape[1]):
        if mask[0, j] and mask[-1, j]:
            union(labels[0, j], labels[-1, j])
    for i in range(mask.shape[0]):
        if mask[i, 0] and mask[i, -1]:
            union(labels[i, 0], labels[i, -1])
    return len({find(l) for l in range(1, count + 1)})
