"""Run configuration: flat ``key = value`` text files and series CSV I/O.

The config format is deliberately plain: one ``key = value`` per line,
``#`` starts a comment, lists are comma-separated.  Unknown keys are
errors, every key has a documented default, and parse/format round-trips
are lossless.  A :class:`RunConfig` checks itself when it is made, so one
built in Python (directly or by ``dataclasses.replace``) passes the same
checks as one read from a file.  Series files are CSV with the fixed header
``n,t,min,max,energy,increment`` and 17-significant-digit decimals, which
reproduce float64 exactly on read-back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, reading
from .grid import GridField, PeriodicGrid, load_snapshot
from .physics import FKind, ModelParams, NonlinearSpec, Problem, pvism_potential
from .spectral import LongRangeOp, OpKind, load_symbol_csv
from .stepping import StepRecord

SERIES_HEADER = "n,t,min,max,energy,increment"


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation needs, with defaults for every field.

    Numeric defaults are the 1D coarsening setup (omega = 0.3, gamma = 500,
    M = 2000, kappa = 2000, tau = 1e-3 on [-1, 1) with 256 points and
    interface width 10h).  Making one checks the physics, the grid, the
    horizon, the run settings and the choices.  The builders check what
    needs a file or the start: ``initial_file``, ``op_symbol_file``, the
    seed, and ``blocks`` dividing N.
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
    extension: bool = False
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
    out: str = ""

    def __post_init__(self):
        # ModelParams and PeriodicGrid check the physics and the grid.
        self.build_params()
        self.build_grid()
        if not 0.0 < self.T < math.inf:
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
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise ConfigError(f"{key} must be one of {choices}, got '{getattr(self, key)}'")
        if self.pvism_solutes and self.operator != "none":
            raise ConfigError(f"pvism.solutes needs operator = none, not {self.operator}")

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
        )

    def build_spec(self) -> NonlinearSpec:
        return NonlinearSpec(FKind(self.f), self.extension)

    def build_op(self) -> LongRangeOp:
        if self.operator == "inverse_laplacian":
            return LongRangeOp.inverse_laplacian()
        if self.operator == "helmholtz":
            return LongRangeOp.helmholtz(self.op_gamma_len)
        if self.operator == "garnet_film":
            return LongRangeOp.garnet_film(self.op_delta)
        if self.operator == "custom":
            if not self.op_symbol_file:
                raise ConfigError("operator = custom needs op_symbol_file")
            return LongRangeOp.custom(load_symbol_csv(self.op_symbol_file))
        return LongRangeOp.none()

    def build_problem(self, grid: PeriodicGrid) -> Problem:
        """The run's model on ``grid``: parameters, indicator, operator and potential."""
        potential = pvism_potential(grid, self.pvism_solutes).values if self.pvism_solutes else None
        return Problem(grid, self.build_params(), self.build_spec(), self.build_op(), potential)

    def build_initial(self, grid: PeriodicGrid) -> GridField:
        from .experiments import initial_random_piecewise, initial_tanh_disk

        if self.initial == "random":
            return initial_random_piecewise(grid, self.lo, self.hi, self.blocks, self.seed)
        if self.initial == "disk":
            return initial_tanh_disk(grid, self.omega, self.epsilon)
        if self.initial == "constant":
            return GridField.constant(grid, self.initial_value)
        if not self.initial_file:
            raise ConfigError("initial = file needs initial_file")
        phi, _ = load_snapshot(self.initial_file)
        if phi.grid != grid:
            raise ConfigError(
                f"initial_file grid N = {phi.grid.sizes}, X = {phi.grid.half_extents} does not "
                f"match the config's N = {grid.sizes}, X = {grid.half_extents}"
            )
        return phi


_CHOICES = {
    "f": tuple(kind.value for kind in FKind),
    "operator": tuple(kind.value for kind in OpKind),
    "initial": ("random", "disk", "constant", "file"),
}

# Config-file key -> dataclass field (dots are not valid identifiers).
_KEY_TO_FIELD = {"pvism.solutes": "pvism_solutes"}
_FIELD_TO_KEY = {v: k for k, v in _KEY_TO_FIELD.items()}


def _parse_scalar(key, text, py_type, lineno):
    try:
        if py_type is bool:
            if text not in ("true", "false"):
                raise ValueError
            return text == "true"
        if py_type is int:
            return int(text)
        if py_type is float:
            value = float(text)
            if not np.isfinite(value):
                raise ValueError
            return value
        return text
    except ValueError:
        raise ConfigError(
            f"line {lineno}: key '{key}' expects {py_type.__name__}, got '{text}'"
        ) from None


def _parse_list(key, text, item_type, lineno):
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not body.strip():
        return ()
    return tuple(
        _parse_scalar(key, piece.strip(), item_type, lineno)
        for piece in body.split(",")
    )


_LIST_ITEM_TYPES = {"N": int, "X": float, "pvism_solutes": float, "snapshot_times": float}


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` text into a :class:`RunConfig`; keys not given keep their defaults."""
    field_types = {f.name: f for f in fields(RunConfig)}
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
        name = _KEY_TO_FIELD.get(key, key)
        if name not in field_types:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if name in _LIST_ITEM_TYPES:
            updates[name] = _parse_list(key, value, _LIST_ITEM_TYPES[name], lineno)
        else:
            default = getattr(RunConfig, name)
            updates[name] = _parse_scalar(key, value, type(default), lineno)
    return RunConfig(**updates)


def load_config(path) -> RunConfig:
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)   # the shortest text that reads back to the same float
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def format_config(cfg: RunConfig) -> str:
    """Serialize a config so that ``parse_config(format_config(c)) == c``.

    A string the parser would read back otherwise (one with a ``#``, a line
    break, or whitespace at either end) is a ConfigError.
    """
    lines = []
    for f in fields(RunConfig):
        key = _FIELD_TO_KEY.get(f.name, f.name)
        value = getattr(cfg, f.name)
        if isinstance(value, str) and (
            "#" in value or value != value.strip() or len(value.splitlines()) > 1
        ):
            raise ConfigError(f"{key} = {value!r} cannot be written to a config file")
        lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


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
