"""Run configuration: flat ``key = value`` text files, the starts they name, and series CSV I/O.

The config format is deliberately plain: one ``key = value`` per line,
``#`` starts a comment, lists are comma-separated.  Unknown keys are
errors, every key has a documented default, and parse/format round-trips
are lossless.  A :class:`RunConfig` checks itself when it is made, so one
built in Python (directly or by ``dataclasses.replace``) passes the same
checks as one read from a file, and the builders of its operator and its
start check only what a file holds.  Series files are CSV with the fixed
header ``n,t,min,max,energy,increment`` and 17-significant-digit decimals,
which reproduce float64 exactly on read-back.

:meth:`RunConfig.build_initial` builds every start.  The random start draws
its block values from an in-package PCG64 stream seeded like numpy's
``default_rng(seed)`` (any integer seed >= 0, of any size) and gives the same
values as its ``uniform``, at about 1.5 us per block, so no run imports
numpy's random module.
"""

from __future__ import annotations

import math
import sys
import typing
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, reading
from .grid import GridField, PeriodicGrid, load_snapshot
from .physics import POTENTIAL_CUTOFF, FKind, ModelParams, Problem, pvism_potential
from .physics import check_solutes, solute_distance
from .spectral import LongRangeOp, OpKind, load_symbol_csv
from .stepping import StepRecord, steps_to

SERIES_HEADER = "n,t,min,max,energy,increment"


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation needs, with defaults for every field.

    Numeric defaults are the 1D coarsening setup (omega = 0.3, gamma = 500,
    M = 2000, kappa = 2000, tau = 1e-3 on [-1, 1) with 256 points and
    interface width 10h).  The annotations are the config's one schema:
    :func:`parse_config` reads each key by its field's, and making one checks
    each value against it (``_HOLDS``), each float finite, so every config
    reads back; then the choices, the physics, the grid, the horizon and the
    run settings, what the operator and the start need (a file's name where
    one is read, the Helmholtz length or film thickness, solutes on a 1D grid,
    a 2D grid for a ``disk``, and for a ``random`` start lo <= hi with a finite
    hi - lo, a seed >= 0 and ``blocks`` dividing every N), and last the step
    count T/tau.  A float that is not finite, a length or a thickness is
    refused naming its key.  So the builders check only what a file holds.
    """

    epsilon: float = 0.078125
    gamma: float = 500.0
    M: float = 2000.0
    omega: float = 0.3
    kappa: float = 2000.0
    tau: float = 1e-3
    N: tuple[int, ...] = (256,)
    X: tuple[float, ...] = (1.0,)
    T: float = 10.0
    tol: float = 1e-3
    f: str = "cubic"
    operator: str = "inverse_laplacian"
    op_gamma_len: float = 0.1
    op_delta: float = 1.0
    op_symbol_file: str = ""
    pvism_solutes: tuple[float, ...] = ()
    seed: int = 0
    initial: str = "random"
    initial_value: float = 0.5
    initial_file: str = ""
    blocks: int = 8
    lo: float = 0.0
    hi: float = 0.8
    snapshot_times: tuple[float, ...] = ()
    monitor_every: int = 1

    def __post_init__(self):
        # Each value first as a config line holds it, and a float finite, so no check below
        # sees a value of another type or a float that is not finite.
        for name, (kind, is_list) in _SCHEMA.items():
            value, (holds, what) = getattr(self, name), _HOLDS[kind]
            if is_list and type(value) is not tuple:
                raise ConfigError(f"{name} must be a tuple, got {_shown(value)}")
            for item in value if is_list else (value,):
                if kind is float and type(item) is float and not math.isfinite(item):
                    raise ConfigError(f"{name} must be finite, got {item!r}")
                if not holds(item):
                    raise ConfigError(f"{name} must be {what}, got {_shown(item)}")
        # The choices come next: build_params reads f as an FKind.
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise ConfigError(f"{key} must be one of {choices}, got '{getattr(self, key)}'")
        # ModelParams and PeriodicGrid check the physics and the grid.
        self.build_params()
        self.build_grid()
        if self.T <= 0.0:
            raise ConfigError(f"T must be positive and finite, got {self.T}")
        if self.tol < 0.0:
            raise ConfigError(f"tol must be >= 0, got {self.tol}")
        if self.monitor_every < 1:
            raise ConfigError(f"monitor_every must be >= 1, got {self.monitor_every}")
        if self.blocks < 1:
            raise ConfigError(f"blocks must be >= 1, got {self.blocks}")
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.T:
                raise ConfigError(f"snapshot_times must lie in [0, T = {self.T!r}], got {t!r}")
        if self.pvism_solutes and self.operator != "none":
            raise ConfigError(f"pvism_solutes needs operator = none, not {self.operator}")
        # What the builders need besides a file's contents: the files' names, and what the
        # chosen start draws or is drawn on.
        if self.operator == "custom" and not self.op_symbol_file:
            raise ConfigError("operator = custom needs op_symbol_file")
        if self.initial == "file" and not self.initial_file:
            raise ConfigError("initial = file needs initial_file")
        if self.initial == "disk" and len(self.N) != 2:
            raise ConfigError("the disk initial state needs a 2D grid")
        if self.initial == "random":
            if self.lo > self.hi:
                raise ConfigError(f"need lo <= hi, got lo={self.lo}, hi={self.hi}")
            if not math.isfinite(self.hi - self.lo):
                raise ConfigError(f"hi - lo must be finite, got lo={self.lo}, hi={self.hi}")
            if self.seed < 0:
                raise ConfigError(f"seed must be >= 0, got {self.seed}")
            for n in self.N:
                if n % self.blocks != 0:
                    raise ConfigError(f"blocks={self.blocks} does not divide grid size {n}")
        # The builders' checks that need no file, an operator's naming its key; the step count.
        key = {"helmholtz": "op_gamma_len", "garnet_film": "op_delta"}.get(self.operator)
        if key:
            try:
                self.build_op()
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        if self.pvism_solutes or self.initial == "cavity":
            check_solutes(self.build_grid(), self.pvism_solutes)
        steps_to(self.T, self.tau)

    # --- builders -------------------------------------------------------

    def build_grid(self) -> PeriodicGrid:
        return PeriodicGrid(self.N, self.X)

    def build_params(self) -> ModelParams:
        return ModelParams(
            epsilon=self.epsilon,
            gamma=self.gamma,
            M=self.M,
            omega=self.omega,
            kappa=self.kappa,
            tau=self.tau,
            f=FKind(self.f),
        )

    def build_op(self) -> LongRangeOp:
        if self.operator == "inverse_laplacian":
            return LongRangeOp.inverse_laplacian()
        if self.operator == "helmholtz":
            return LongRangeOp.helmholtz(self.op_gamma_len)
        if self.operator == "garnet_film":
            return LongRangeOp.garnet_film(self.op_delta)
        if self.operator == "custom":
            return LongRangeOp.custom(load_symbol_csv(self.op_symbol_file))
        return LongRangeOp.none()

    def build_problem(self, grid: PeriodicGrid) -> Problem:
        """The run's model on ``grid``: parameters, operator and potential."""
        potential = pvism_potential(grid, self.pvism_solutes).values if self.pvism_solutes else None
        return Problem(grid, self.build_params(), self.build_op(), potential)

    def build_initial(self) -> GridField:
        """The start on :meth:`build_grid`, the grid the constructor checked it for."""
        grid = self.build_grid()
        if self.initial == "random":
            # numpy's default_rng(seed).uniform(lo, hi, (blocks,) * dim) in C order, each
            # value repeated over its block.
            values = np.array(_pcg64_uniform(self.seed, self.lo, self.hi, self.blocks**grid.dim))
            values = values.reshape((self.blocks,) * grid.dim)
            for axis, n in enumerate(grid.sizes):
                values = np.repeat(values, n // self.blocks, axis=axis)
            return GridField(grid, values)
        if self.initial == "constant":
            return GridField(grid, np.full(grid.shape, float(self.initial_value)))
        if self.initial == "file":
            phi, _ = load_snapshot(self.initial_file)
            if phi.grid != grid:
                raise ConfigError(
                    f"initial_file grid N = {phi.grid.sizes}, X = {phi.grid.half_extents} does "
                    f"not match the config's N = {grid.sizes}, X = {grid.half_extents}"
                )
            return phi
        # disk and cavity: a tanh interface of width eps/3, phi = 1 where d > 0.
        if self.initial == "disk":
            # A disk at the origin holding the volume fraction omega, padded by 0.1.
            d = math.sqrt(self.omega * grid.measure / math.pi) + 0.1 - np.hypot(*grid.meshgrid())
        else:
            # The cavity's interface passes through the potential's cutoff around the solutes.
            d = solute_distance(grid, self.pvism_solutes) - POTENTIAL_CUTOFF
        return GridField(grid, 0.5 + 0.5 * np.tanh(d / (self.epsilon / 3.0)))


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


_CHOICES = {
    "f": tuple(kind.value for kind in FKind),
    "operator": tuple(kind.value for kind in OpKind),
    "initial": ("random", "disk", "constant", "file", "cavity"),
}


# Each field's item type, and whether the field holds a tuple of them.
_SCHEMA = {
    name: (typing.get_args(hint)[0], True) if typing.get_origin(hint) is tuple else (hint, False)
    for name, hint in typing.get_type_hints(RunConfig).items()
}


def _writable(v: int) -> bool:
    """Whether str writes ``v``: it has at most sys.get_int_max_str_digits() digits (0: any)."""
    limit = sys.get_int_max_str_digits()
    # Up to 3 * limit bits, v is below 8**limit and so shorter: no big power to form.
    return limit == 0 or abs(v).bit_length() <= 3 * limit or abs(v) < 10 ** limit


def _shown(value) -> str:
    """repr(value), or what it is where repr refuses an int too long to write."""
    try:
        return repr(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        too_long = f"an int too long to write as text (more than {limit} digits)"
        return too_long if type(value) is int else f"a {type(value).__name__} holding {too_long}"


# The values of each item type that format_config writes and parse_config reads back equal.
_HOLDS = {
    int: (lambda v: type(v) is int and _writable(v), "an int"),
    float: (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max and float(v) == v,
            "a float or an int that a float holds exactly"),
    str: (lambda v: type(v) is str and "#" not in v and v == v.strip() and len(v.splitlines()) <= 1,
          "a string with no '#', no line break and no whitespace at either end"),
}


def _parse_scalar(key, text, kind, lineno):
    try:
        if kind is int:
            return int(text)
        if kind is float:
            value = float(text)
            if not np.isfinite(value):
                raise ValueError
            return value
        return text
    except ValueError:
        raise ConfigError(
            f"line {lineno}: key '{key}' expects {kind.__name__}, got '{text}'"
        ) from None


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` text into a :class:`RunConfig`; keys not given keep their defaults."""
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        kind, is_list = _SCHEMA[key]
        # A list is its comma-separated items, the empty list an empty value.
        pieces = (value.split(",") if value else []) if is_list else [value]
        items = tuple(_parse_scalar(key, piece.strip(), kind, lineno) for piece in pieces)
        updates[key] = items if is_list else items[0]
    return RunConfig(**updates)


def load_config(path) -> RunConfig:
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _format_value(value) -> str:
    # str of a float is its repr, the shortest text that reads back to the same float.
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def format_config(cfg: RunConfig) -> str:
    """Serialize a config so that ``parse_config(format_config(c)) == c``."""
    return "".join(f"{name} = {_format_value(getattr(cfg, name))}\n" for name in _SCHEMA)


def write_series(path, records) -> None:
    """Write step records as CSV under the fixed header."""
    lines = [SERIES_HEADER]
    for r in records:
        lines.append(
            f"{r.n},{r.t:.17g},{r.phi_min:.17g},{r.phi_max:.17g},"
            f"{r.energy:.17g},{r.increment:.17g}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_series(path) -> list[StepRecord]:
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != SERIES_HEADER:
            raise ConfigError(f"{path}: expected header '{SERIES_HEADER}', got '{header}'")
        records = []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise ConfigError(f"{path}:{lineno}: expected 6 columns, got {len(parts)}")
            try:
                records.append(
                    StepRecord(
                        n=int(parts[0]),
                        t=float(parts[1]),
                        phi_min=float(parts[2]),
                        phi_max=float(parts[3]),
                        energy=float(parts[4]),
                        increment=float(parts[5]),
                    )
                )
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: malformed row") from exc
    return records
