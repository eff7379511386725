"""Reproducible experiment drivers: convergence rates, coarsening, solvation.

Three studies run as :class:`pacok.config.RunConfig` values, with their
published parameter sets plus reduced "desk" variants that finish in
minutes:

* a temporal convergence study on a shrinking-disk initial state, comparing
  halved time steps against a fine-step benchmark on the same grid;
* 1D and 2D coarsening runs from random piecewise-constant initial data,
  tracking field bounds, energy decay, and the final bump/bubble count;
* a 1D solvation equilibrium computed twice, with the cubic indicator
  (bounds preserved) and the linear one (bounds visibly violated).

The random starts draw their block values from an in-package PCG64 stream
seeded like numpy's ``default_rng(seed)`` (any integer seed >= 0, of any
size) and give the same values as its ``uniform``, at about 1.5 us per
block, so no run imports numpy's random module.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .grid import GridField, PeriodicGrid, norm_l2_h, save_snapshot
from .physics import Problem
from .stepping import STEP_RTOL, ConditionReport, SchemeState, StepRecord, check_conditions, run
from .stepping import steps_to


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

    ``blocks`` counts the blocks per axis and must divide every grid size.
    The ``blocks**dim`` values fill the blocks in C order from the PCG64
    stream that ``seed`` (an integer >= 0 of any size) starts through
    numpy's ``SeedSequence``: the values of numpy's
    ``default_rng(seed).uniform(lo, hi, (blocks,) * dim)``, drawn without
    importing numpy's random module, at about 1.5 us per block.
    """
    if lo > hi:
        raise ConfigError(f"need lo <= hi, got lo={lo}, hi={hi}")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"hi - lo must be finite, got lo={lo}, hi={hi}")
    if blocks < 1:
        raise ConfigError(f"blocks must be >= 1, got {blocks}")
    seed = operator.index(seed)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    for n in grid.sizes:
        if n % blocks != 0:
            raise ConfigError(f"blocks={blocks} does not divide grid size {n}")
    values = np.array(_pcg64_uniform(seed, lo, hi, blocks**grid.dim))
    values = values.reshape((blocks,) * grid.dim)
    for axis, n in enumerate(grid.sizes):
        values = np.repeat(values, n // blocks, axis=axis)
    return GridField(grid, values)


_M32 = 2**32 - 1
_M64 = 2**64 - 1
_M128 = 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix: each call hashes one 32-bit word and steps the constant."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _pcg64_seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for an integer seed >= 0.

    The hex constants are SeedSequence's INIT_A and MULT_A, MIX_MULT_L and
    MIX_MULT_R, then INIT_B and MULT_B.
    """
    entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [hashmix(pool[i % 4]) for i in range(8)]
    return [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]


def _pcg64_uniform(seed: int, lo: float, hi: float, count: int) -> list[float]:
    """``count`` doubles lo + (hi - lo) * u from PCG64 (XSL-RR 128/64) seeded as
    numpy's ``default_rng(seed)``, with u = (x >> 11) * 2**-53 of each output x."""
    w0, w1, w2, w3 = _pcg64_seed_words(seed)
    inc = ((w2 << 64 | w3) << 1 | 1) & _M128
    state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _M128
    span = hi - lo
    values = []
    for _ in range(count):
        state = (state * _PCG64_MULT + inc) & _M128
        x = (state >> 64) ^ (state & _M64)
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        values.append(lo + span * ((x >> 11) * 2.0**-53))
    return values


@dataclass(frozen=True)
class RateStudyResult:
    """Errors against the benchmark and the rates between successive steps.

    ``rates[i]`` is log2(errors[i] / errors[i + 1]).  ``successive_rates[i]``
    needs no benchmark: it is log2(||phi_i - phi_{i+1}|| / ||phi_{i+1} - phi_{i+2}||)
    for the terminal fields phi_i of taus[i].
    """

    taus: tuple[float, ...]
    errors: tuple[float, ...]
    rates: tuple[float, ...]
    successive_rates: tuple[float, ...]


# The temporal rate study: a tanh disk on [-1, 1)^2 run to T without the
# increment stop, recording only its start and end.  A study sets N and
# epsilon; rate_study sets tau.
RATE_STUDY = RunConfig(
    epsilon=0.15625, gamma=100.0, M=1000.0, omega=0.1, N=(256, 256), X=(1.0, 1.0),
    T=0.02, tol=0.0, initial="disk", monitor_every=10**9,
)


def _rate_study_taus(base_tau: float, levels: int, bench_tau: float, T: float) -> dict[float, int]:
    """Each step of a rate study with its :func:`steps_to` count to T, which it must divide."""
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    # ldexp, as base_tau / 2**i overflows converting 2**i once i > 1023; the
    # finest step is checked before the steps are counted.
    finest = math.ldexp(base_tau, 1 - levels)
    if not bench_tau < finest:
        raise ConfigError(f"the benchmark step must be below {finest!r}, got {bench_tau!r}")
    counts = {}
    for tau in [math.ldexp(base_tau, -i) for i in range(levels)] + [bench_tau]:
        if not 0.0 < tau < math.inf:
            raise ConfigError(f"the time step must be positive and finite, got tau={tau!r}")
        counts[tau] = steps_to(T, tau)
        if not math.isclose(counts[tau] * tau, T, rel_tol=STEP_RTOL):
            raise ConfigError(f"tau={tau} does not divide the horizon T={T}")
    return counts


def rate_study_steps(base_tau: float, levels: int, bench_tau: float, setup: RunConfig) -> int:
    """Total step count of the runs of :func:`rate_study`."""
    return sum(_rate_study_taus(base_tau, levels, bench_tau, setup.T).values())


def rate_study(
    base_tau: float, levels: int, bench_tau: float, setup: RunConfig
) -> RateStudyResult:
    """Errors against a fine-step benchmark for tau = base_tau / 2^i (i < levels),
    and the successive-difference rates of the same runs.

    Every run is :func:`run_config` of ``setup`` with its own tau, which must
    divide ``setup.T``, so every run, the benchmark's too, ends at T.  All
    runs share the grid and the initial state: the error is purely temporal.
    """
    *taus, bench_tau = _rate_study_taus(base_tau, levels, bench_tau, setup.T)
    fields = [run_config(replace(setup, tau=tau))[1].phi for tau in taus + [bench_tau]]
    bench = fields.pop()
    distance = lambda a, b: norm_l2_h(GridField(a.grid, a.values - b.values))
    errors = [distance(phi, bench) for phi in fields]
    changes = [distance(a, b) for a, b in zip(fields, fields[1:])]
    log2_ratios = lambda x: tuple(math.log2(a / b) for a, b in zip(x, x[1:]))
    return RateStudyResult(tuple(taus), tuple(errors), log2_ratios(errors), log2_ratios(changes))


# (n, epsilon / h factors, bench_tau) of the rate study at each scale.
RATE_STUDY_SCALES = {"desk": (128, (10, 20), 4e-6), "paper": (256, (5, 10, 20), 1e-6)}


def convergence_setups(n: int, factors, T: float = RATE_STUDY.T) -> list[tuple[str, RunConfig]]:
    """(label, setup) rows of the rate study on n^2 points to T, one per
    interface width epsilon = factor * h.  ``pacok converge`` takes n, the
    factors and the benchmark step from a scale, each replaced by its flag."""
    base = replace(RATE_STUDY, N=(n, n), T=T)
    h = base.build_grid().spacings[0]
    return [(f"{factor:g}h", replace(base, epsilon=factor * h)) for factor in factors]


PRESET_GAMMAS = {"g500": 500.0, "g2000": 2000.0, "g1000_2d": 1000.0, "g2000_2d": 2000.0}
# (T, snapshot_times) of the presets of each dimension and scale.
_HORIZONS = {
    (1, "paper"): (1000.0, (0.0, 10.0, 500.0, 1000.0)),
    (1, "desk"): (100.0, (0.0, 10.0, 50.0, 100.0)),
    (2, "paper"): (100.0, (0.0, 1.0, 10.0, 100.0)),
    (2, "desk"): (5.0, (0.0, 0.5, 2.5, 5.0)),
}


def coarsening_preset(name: str, scale: str = "desk") -> RunConfig:
    """The run config of one coarsening preset; desk variants shrink horizon and grid.

    A 1D preset is the :class:`RunConfig` defaults with its gamma, 16
    blocks, and the horizon and snapshot times of its scale.  A 2D preset
    runs on 256^2 (paper) or 128^2 (desk) points of [-1, 1)^2 with
    epsilon = 10h, M = 1e4, omega = 0.15 and tau = 2e-4.  Every preset
    records every 100 steps.

    The presets keep the published parameters, and not all of them meet the
    conditions of :func:`pacok.stepping.check_conditions`.  At both scales
    the 1D presets ``g500`` and ``g2000`` certify the bounds but not energy
    decay (kappa = 2000 is below the decay minimum, about 2100), and the 2D
    presets ``g1000_2d`` and ``g2000_2d`` certify neither (the bounds need
    kappa of about 15700 at 256^2 and 31300 at 128^2).  Outside the
    conditions a run may leave [0, 1] or raise the energy; ``pacok coarsen``
    prints what was certified.
    """
    dim = 2 if name.endswith("_2d") else 1
    if name not in PRESET_GAMMAS or (dim, scale) not in _HORIZONS:
        raise ConfigError(
            f"unknown coarsening preset '{name}'/'{scale}' "
            f"(presets: {', '.join(PRESET_GAMMAS)}; scales: desk, paper)"
        )
    T, times = _HORIZONS[dim, scale]
    cfg = RunConfig(gamma=PRESET_GAMMAS[name], T=T, snapshot_times=times, monitor_every=100)
    if dim == 1:
        return replace(cfg, blocks=16)
    n = 256 if scale == "paper" else 128
    return replace(
        cfg, N=(n, n), X=(1.0, 1.0), epsilon=10 * (2.0 / n), M=1e4, omega=0.15, tau=2e-4
    )


@dataclass(frozen=True)
class CoarseningResult:
    config: RunConfig
    report: ConditionReport
    final: SchemeState
    records: tuple[StepRecord, ...]
    bump_count: int


def run_config(cfg: RunConfig, out_dir=None) -> tuple[Problem, SchemeState, list[StepRecord]]:
    """Run one configuration from its start to ``cfg.T`` or its ``tol`` stop.

    Builds the grid, the problem and the initial state, so a config that
    fails to build leaves no directory, then creates ``out_dir`` and makes
    one :func:`pacok.stepping.run` call with the config's snapshot times and
    its record cadence ``monitor_every``.  With ``out_dir`` it writes
    ``snap_000.csv``, ``snap_001.csv``, ... at t = 0 when that is a snapshot
    time, at each later snapshot time and at the end, then ``series.csv``.
    Returns the problem with the final state and the records.
    """
    grid = cfg.build_grid()
    problem = cfg.build_problem(grid)
    state = SchemeState.initial(cfg.build_initial(grid))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    paths = (f"{out_dir}/snap_{i:03d}.csv" for i in itertools.count())

    def emit_snapshot(s: SchemeState):
        if out_dir is not None:
            save_snapshot(next(paths), s.phi, t=s.time)

    if 0.0 in cfg.snapshot_times:
        emit_snapshot(state)
    state, records = run(
        state, problem, t_max=cfg.T, tol=cfg.tol, record_every=cfg.monitor_every,
        snapshot_times=cfg.snapshot_times, on_snapshot=emit_snapshot,
    )
    emit_snapshot(state)
    if out_dir is not None:
        # Looked up at call time, as run and save_snapshot are here: a profiler wraps them.
        from .config import write_series

        write_series(f"{out_dir}/series.csv", records)
    return problem, state, records


def coarsening_run(
    dimension: int,
    preset: str,
    scale: str = "desk",
    seed: int = 0,
    out_dir=None,
    record_every: int = 100,
    tol: float = 1e-3,
    t_end: float | None = None,
) -> CoarseningResult:
    """Run one coarsening preset; optionally write series.csv and snapshots.

    The preset runs through :func:`run_config`.  ``t_end``, when given,
    replaces its horizon, and its snapshot times beyond ``t_end`` are
    dropped from the config.  The result's config is the one that ran, and
    its report is :func:`pacok.stepping.check_conditions` of the run's
    problem, which the run enforces.
    """
    cfg = coarsening_preset(preset, scale)
    if len(cfg.N) != dimension:
        raise ConfigError(f"preset '{preset}' is {len(cfg.N)}D, not {dimension}D")
    T = cfg.T if t_end is None else t_end
    cfg = replace(
        cfg, seed=seed, monitor_every=record_every, tol=tol, T=T,
        snapshot_times=tuple(t for t in cfg.snapshot_times if t <= T),
    )
    problem, state, records = run_config(cfg, out_dir)
    return CoarseningResult(
        config=cfg,
        report=check_conditions(problem),
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


# The solvation comparison: one solute at the origin of [-5, 5) on 1024
# points, epsilon = 50h, no long-range coupling and no volume penalty, run
# to T or the increment stop.  pvism_compare sets tau and T, and f per run.
SOLVATION = RunConfig(
    epsilon=50.0 * (2.0 * 5.0 / 1024), gamma=0.0, M=0.0, omega=0.5, kappa=2000.0, tau=1e-4,
    N=(1024,), X=(5.0,), T=100.0, tol=1e-3, operator="none", pvism_solutes=(0.0,),
    monitor_every=1000,
)


def pvism_compare(tau: float = 1e-4, t_max: float = 100.0, out_dir=None) -> SolvationComparison:
    """Solvation equilibrium with cubic versus linear indicator nonlinearity.

    Both runs are ``replace(SOLVATION, tau=tau, T=t_max)`` and differ only
    in the config's ``f``; each has its own :class:`pacok.physics.Problem`
    and enforces what that problem certifies.  The initial interface is
    the tanh profile through the potential's cutoff radius, which no config
    start gives, so the runs call :func:`pacok.stepping.run` directly.  The
    cubic equilibrium stays inside [0, 1]; the linear one undershoots
    inside the interface and overshoots outside it.  ``out_dir`` is created
    and given both equilibria once both runs have ended, so a comparison
    that fails leaves no directory.
    """
    cfg = replace(SOLVATION, tau=tau, T=t_max)
    grid = cfg.build_grid()
    (x,) = grid.coordinates()
    phi0 = GridField(grid, 0.5 + 0.5 * np.tanh((np.abs(x) - 2.5) / (cfg.epsilon / 3.0)))
    finals = {}
    for f in ("cubic", "linear"):
        problem = replace(cfg, f=f).build_problem(grid)
        finals[f], _ = run(
            SchemeState.initial(phi0), problem, t_max=cfg.T, tol=cfg.tol,
            record_every=cfg.monitor_every,
        )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for f, state in finals.items():
            save_snapshot(f"{out_dir}/equilibrium_{f}.csv", state.phi, t=state.time)
    bounds = lambda s: (float(np.min(s.phi.values)), float(np.max(s.phi.values)))
    cubic, linear = finals["cubic"], finals["linear"]
    return SolvationComparison(cubic, linear, bounds(cubic), bounds(linear))


def count_bumps(phi: GridField, threshold: float = 0.5) -> int:
    """Connected components of {phi > threshold} with periodic adjacency.

    1D components are circular runs; 2D uses 4-adjacency, wrapping across
    both seams.
    """
    if not (0.0 < threshold < 1.0):
        raise ConfigError(f"threshold must lie in (0, 1), got {threshold}")
    return _periodic_components(phi.values > threshold)


def _periodic_components(mask: np.ndarray) -> int:
    """Number of connected components of ``mask`` under periodic 4-adjacency.

    Union-find on all cells at once: every root that shares an edge with a
    smaller root hooks onto the smallest such root, then pointer jumping
    points every cell at its root.  A root that survives a round is smaller
    than all its neighbouring roots, so at least half the roots of each
    component go per round and the rounds number O(log n).
    """
    cells = np.arange(mask.size).reshape(mask.shape)
    a, b = [], []   # the two cells of every edge
    for axis in range(mask.ndim):
        pairs = mask & np.roll(mask, -1, axis)   # the cell and its next along axis, wrapping
        a.append(cells[pairs])
        b.append(np.roll(cells, -1, axis)[pairs])
    a, b = np.concatenate(a), np.concatenate(b)
    parent = np.arange(mask.size)
    while True:
        root_a, root_b = parent[a], parent[b]
        split = root_a != root_b
        if not split.any():
            break
        root_a, root_b = root_a[split], root_b[split]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    roots = parent == np.arange(mask.size)
    return int(np.count_nonzero(roots & mask.ravel()))
