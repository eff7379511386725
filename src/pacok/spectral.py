"""Discrete Laplacian, its zero-mean inverse, and spectral long-range operators.

The Laplacian is the second-order central difference stencil with periodic
wrap.  On a periodic grid the DFT diagonalizes it exactly: mode (j, k) has
eigenvalue

    -lambda(j, k),  lambda(j, k) = (4/h1^2) sin^2(pi j / N1)
                                 + (4/h2^2) sin^2(pi k / N2) >= 0,

so solves reduce to a forward transform, a division by the stencil symbol,
and an inverse transform.  The DFT is used only as a diagonalizer of the
finite-difference operator; there is no spectral differentiation and no
dealiasing (nonlinear terms are evaluated pointwise in real space).

Long-range interaction operators are described by a nonnegative Fourier
multiplier: the inverse of the negative Laplacian (zero mode projected out),
the Helmholtz resolvent (I - l^2 Lap)^-1, the thin-film symbol
(1 - exp(-delta |k|)) / (delta |k|) in physical wavenumbers k = pi m / X,
or an explicit per-mode table.

Nothing is cached: :func:`stencil_symbol` and :func:`multiplier_array`
return a new array the caller owns and :func:`mirror_weights` works in
place, so each owner builds its operator arrays once, with no second copy.

A table is a :class:`SymbolTable`: an int64 mode array and a float64 value
array.  The CSV loader fills both in one ``np.loadtxt`` pass and the
multiplier scatters them onto the grid's modes, so no per-mode Python
object lies between the file and the multiplier.  A line of the other
dimension, a mode beyond int64 and a mode given twice are errors; a mode
outside the grid's range is ignored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, reading
from .grid import PeriodicGrid


class OpKind(enum.Enum):
    INVERSE_LAPLACIAN = "inverse_laplacian"
    HELMHOLTZ = "helmholtz"
    GARNET_FILM = "garnet_film"
    CUSTOM_SYMBOL = "custom"
    NONE = "none"


@dataclass(frozen=True, eq=False)
class SymbolTable:
    """A custom symbol: an (n, dim) int64 mode array, dim 1 or 2, and an (n,)
    float64 value array, both read-only copies.

    Values must be finite and >= 0 and no mode may be given twice; the
    ConfigError names the first bad mode.  Two tables are equal only if they
    are the same object, so no comparison reads the arrays.
    """

    modes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        modes, values = np.array(self.modes), np.array(self.values)
        if modes.dtype != np.int64 or modes.ndim != 2 or modes.shape[1] not in (1, 2):
            raise ConfigError(
                f"custom symbol modes must be an (n, 1) or (n, 2) int64 array, "
                f"got {modes.dtype} of shape {modes.shape}"
            )
        if values.dtype != np.float64 or values.shape != modes.shape[:1]:
            raise ConfigError(
                f"custom symbol values must be a float64 array of shape {modes.shape[:1]}, "
                f"got {values.dtype} of shape {values.shape}"
            )
        if not len(values):
            raise ConfigError("custom operator needs a non-empty symbol table")
        bad = ~(np.isfinite(values) & (values >= 0.0))
        if bad.any():
            row = int(np.argmax(bad))
            raise ConfigError(
                f"custom symbol must be finite and >= 0, "
                f"got {float(values[row])} at mode {tuple(modes[row].tolist())}"
            )
        in_order = modes[np.lexsort(modes.T[::-1])]
        repeated = np.all(in_order[1:] == in_order[:-1], axis=1)
        if repeated.any():
            mode = tuple(in_order[int(np.argmax(repeated))].tolist())
            raise ConfigError(f"custom symbol table gives mode {mode} twice")
        for name, array in (("modes", modes), ("values", values)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)


@dataclass(frozen=True)
class LongRangeOp:
    """Spectral-multiplier description of a long-range interaction operator.

    The description is bare: the coupling strength is ``ModelParams.gamma``.
    A custom operator's ``symbol`` is its :class:`SymbolTable`.
    """

    kind: OpKind
    gamma_len: float = 0.0   # Helmholtz screening length
    delta: float = 0.0       # relative film thickness
    symbol: SymbolTable | None = field(default=None, hash=False)

    def __post_init__(self):
        if not isinstance(self.kind, OpKind):
            raise ConfigError(f"kind must be an OpKind, got {self.kind!r}")
        if self.kind is OpKind.HELMHOLTZ and not self.gamma_len > 0.0:
            raise ConfigError("helmholtz operator needs a positive length")
        if self.kind is OpKind.HELMHOLTZ and not np.isfinite(self.gamma_len * self.gamma_len):
            raise ConfigError(f"helmholtz length {self.gamma_len!r} has no finite square")
        if self.kind is OpKind.GARNET_FILM and not self.delta > 0.0:
            raise ConfigError("garnet film operator needs a positive thickness")
        if self.kind is OpKind.CUSTOM_SYMBOL and not isinstance(self.symbol, SymbolTable):
            raise ConfigError("custom operator needs a SymbolTable")

    @classmethod
    def inverse_laplacian(cls) -> "LongRangeOp":
        return cls(OpKind.INVERSE_LAPLACIAN)

    @classmethod
    def helmholtz(cls, gamma_len: float) -> "LongRangeOp":
        return cls(OpKind.HELMHOLTZ, gamma_len=gamma_len)

    @classmethod
    def garnet_film(cls, delta: float) -> "LongRangeOp":
        return cls(OpKind.GARNET_FILM, delta=delta)

    @classmethod
    def custom(cls, symbol: SymbolTable) -> "LongRangeOp":
        return cls(OpKind.CUSTOM_SYMBOL, symbol=symbol)

    @classmethod
    def none(cls) -> "LongRangeOp":
        return cls(OpKind.NONE)


def stencil_symbol(grid: PeriodicGrid) -> np.ndarray:
    """Symbol of -Lap_h over the real-FFT mode layout (all entries >= 0), a new array.

    It is the sum of the per-axis symbols, the last axis halved.
    """
    n, h = grid.sizes, grid.spacings
    lam = _axis_symbol(n[-1] // 2 + 1, n[-1], h[-1])
    for size, spacing in zip(n[-2::-1], h[-2::-1]):
        leading = _axis_symbol(size, size, spacing)
        total = np.empty((size,) + lam.shape)
        # Slice by slice: a broadcast sum would go through numpy's iterator buffers (~128 kB).
        for i, value in enumerate(leading):
            np.add(value, lam, out=total[i])
        lam = total
    return lam


def _axis_symbol(count: int, n: int, h: float) -> np.ndarray:
    """(4/h^2) sin^2(pi j / n) for j = 0, ..., count - 1, with no temporary."""
    lam = np.arange(count, dtype=np.float64)
    lam *= np.pi
    lam /= n
    np.sin(lam, out=lam)
    np.square(lam, out=lam)
    lam *= 4.0 / h ** 2
    return lam


def _wavenumber_magnitude(grid: PeriodicGrid) -> np.ndarray:
    """|k| with k_i = pi * m_i / X_i over the real-FFT mode layout."""
    n = grid.sizes
    modes = [np.fft.fftfreq(size) * size for size in n[:-1]] + [np.arange(n[-1] // 2 + 1)]
    k = np.ix_(*[np.pi * m / x for m, x in zip(modes, grid.half_extents)])
    return np.sqrt(sum(k_i ** 2 for k_i in k))


def _wrap_mode(m: int, n: int) -> int:
    return (m + n // 2) % n - n // 2


def _custom_multiplier(op: LongRangeOp, grid: PeriodicGrid) -> np.ndarray:
    """Scatter a custom table's arrays onto the DFT modes of ``grid`` and validate it.

    The table must have the grid's dimension.  Entries with a mode outside
    -n/2 <= m < n/2 are ignored, so a table made for a larger grid serves.
    Every mode of the grid needs an entry, and the entry of m must equal
    that of its mirror -m (mod n); the first mode in C order that breaks
    either rule is named in the ConfigError.
    """
    n = grid.sizes
    modes, values = op.symbol.modes, op.symbol.values
    if modes.shape[1] != grid.dim:
        raise ConfigError(f"custom symbol table is {modes.shape[1]}D, the grid is {grid.dim}D")
    half = np.array(n) // 2
    inside = np.all((modes >= -half) & (modes < half), axis=1)
    index = modes[inside] % np.array(n)
    full = np.full(n, np.nan)
    full[tuple(index.T)] = values[inside]

    mirrored_full = full[np.ix_(*[-np.arange(nn) % nn for nn in n])]
    bad = ~(full == mirrored_full)   # also true where either entry is missing
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), n)
        mode = tuple(_wrap_mode(int(k), nn) for k, nn in zip(at, n))
        mirrored = tuple(_wrap_mode(-m, nn) for m, nn in zip(mode, n))
        if np.isnan(full[at]):
            raise ConfigError(f"custom symbol table has no entry for mode {mode}")
        if np.isnan(mirrored_full[at]):
            raise ConfigError(f"custom symbol table has no entry for mode {mirrored}")
        raise ConfigError(
            f"custom symbol is not even: value at {mode} differs from {mirrored}"
        )
    return np.ascontiguousarray(full[..., : n[-1] // 2 + 1])


def multiplier_array(op: LongRangeOp, grid: PeriodicGrid) -> np.ndarray:
    """Fourier multiplier of ``op`` over the real-FFT mode layout, a new array the caller owns.

    A custom table is validated against the grid (complete and even) each
    time its multiplier is built.
    """
    if op.kind is OpKind.NONE:
        raise ConfigError("cannot apply a long-range operator of kind 'none'")
    if op.kind is OpKind.INVERSE_LAPLACIAN:
        mult = stencil_symbol(grid)
        return np.divide(1.0, mult, out=mult, where=mult > 0.0)   # the zero mode stays 0
    if op.kind is OpKind.HELMHOLTZ:
        mult = stencil_symbol(grid)
        # A mode whose product overflows gets 1/inf = 0, the limit.
        with np.errstate(over="ignore"):
            mult *= op.gamma_len ** 2
        mult += 1.0
        return np.divide(1.0, mult, out=mult)
    if op.kind is OpKind.GARNET_FILM:
        # As for helmholtz, dk = inf gives the limit 0.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            dk = op.delta * _wavenumber_magnitude(grid)
            return np.where(dk > 0.0, -np.expm1(-dk) / np.where(dk > 0.0, dk, 1.0), 1.0)
    return _custom_multiplier(op, grid)


def mirror_weights(symbol: np.ndarray) -> np.ndarray:
    """``symbol`` times, in place, the number of DFT modes each rfftn half-spectrum entry
    stands for: every column but the first and the last (modes 0 and n/2) also stands
    for its mirror.  Returns ``symbol``."""
    symbol[..., 1:-1] *= 2.0
    return symbol


def impulse_response_norm(mult: np.ndarray, grid: PeriodicGrid) -> float:
    """Max-norm of the operator whose multiplier over the real-FFT mode layout is ``mult``.

    The operator matrix G (with the zero-mean projection built into the
    inverse-Laplacian symbol) is circulant, so all absolute row sums agree
    and the max-to-max norm is the absolute sum of the response to a single
    unit impulse.  The DFT of a unit impulse at the origin is exactly 1 in
    every mode, so the response is the inverse transform of the multiplier
    itself.
    """
    response = np.fft.irfftn(mult, s=grid.shape, axes=tuple(range(grid.dim)))
    return float(np.sum(np.abs(response)))


def load_symbol_csv(path) -> SymbolTable:
    """Read a custom symbol table from CSV lines ``k1[,k2],value``.

    ``#`` lines and blank lines are skipped.  The entries are parsed in one
    ``np.loadtxt`` pass straight into the table's arrays; every entry needs
    the dimension of the first one and int64 mode components.  If that
    pass fails, each line is parsed alone to name the first bad one.
    """
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh.read().split("\n")]
    entry = lambda line: line and not line.startswith("#")
    data = list(filter(entry, lines))
    if not data:
        raise ConfigError(f"{path}: empty symbol table")
    first, dim = lines.index(data[0]) + 1, data[0].count(",")
    if dim not in (1, 2):
        raise ConfigError(f"{path}:{first}: expected 'k1[,k2],value'")
    row = np.dtype([("mode", np.int64, (dim,)), ("value", np.float64)])
    parse = lambda entries: np.loadtxt(entries, dtype=row, delimiter=",", comments=None, ndmin=1)
    try:
        rows = parse(data)
    except ValueError:
        for lineno, line in enumerate(lines, start=1):
            if not entry(line):
                continue
            if line.count(",") != dim:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'k1[,k2],value' with the {dim}D modes of line {first}"
                ) from None
            try:
                parse([line])
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: malformed symbol entry") from None
        raise
    return SymbolTable(rows["mode"], rows["value"])
