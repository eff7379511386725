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

A table is a :class:`SymbolTable`: a read-only mapping ``{mode: value}``
held as an int64 mode array and a float64 value array.  The CSV loader
fills the arrays in one ``np.loadtxt`` pass and the multiplier scatters
them onto the grid's modes, so no per-mode Python object lies between the
file and the multiplier.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
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


_INT64 = np.iinfo(np.int64)


class SymbolTable(Mapping):
    """Read-only custom symbol table ``{mode: value}`` held as arrays.

    Row i of an int64 mode array holds the components of entry i, padded
    with zeros to the longest mode, a length array its number of
    components, and a float64 array its value.  A mode with a component
    beyond int64 keeps its tuple aside and length 0, so no grid reads it.
    As a mapping it yields tuples of ints and floats, in the order the
    entries were first given, and compares equal to the same dict.
    """

    def __init__(self, modes, values, lengths=None, wide=None):
        self._modes = np.array(modes, dtype=np.int64)
        self._values = np.array(values, dtype=np.float64)
        if lengths is None:
            lengths = np.full(len(self._values), self._modes.shape[1])
        self._lengths = np.array(lengths, dtype=np.int64)
        for array in (self._modes, self._values, self._lengths):
            array.setflags(write=False)
        self._wide = dict(wide or {})
        self._index = None

    @classmethod
    def from_rows(cls, modes: np.ndarray, values: np.ndarray) -> "SymbolTable":
        """Table from rows of equal-length int64 modes, in order; a later
        row of a repeated mode gives its value, as in a dict."""
        order = np.lexsort(modes.T[::-1])   # stable: a repeated mode keeps its row order
        in_order = modes[order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = np.any(in_order[1:] != in_order[:-1], axis=1)
        if not starts.all():
            first = np.flatnonzero(starts)
            last = order[np.append(first[1:], len(order)) - 1]
            first = order[first]
            kept = np.argsort(first)
            modes, values = modes[first[kept]], values[last[kept]]
        return cls(modes, values)

    @classmethod
    def from_mapping(cls, symbol) -> "SymbolTable":
        """Table from ``{mode: value}``; a mode is an int or a tuple of ints."""
        try:
            modes = np.array(list(symbol))
        except ValueError:   # tuples of different lengths
            modes = None
        values = np.fromiter(symbol.values(), dtype=np.float64, count=len(symbol))
        if modes is not None and modes.dtype.kind == "i" and modes.ndim <= 2:
            return cls(modes.reshape(len(symbol), -1), values)
        table = {}
        for mode, value in zip(symbol, values.tolist()):
            table[(int(mode),) if np.isscalar(mode) else tuple(int(m) for m in mode)] = value
        width = max(map(len, table))
        modes = np.zeros((len(table), width), dtype=np.int64)
        lengths = np.zeros(len(table), dtype=np.int64)
        wide = {}
        for row, mode in enumerate(table):
            if all(_INT64.min <= m <= _INT64.max for m in mode):
                modes[row, : len(mode)] = mode
                lengths[row] = len(mode)
            else:
                wide[row] = mode
        return cls(modes, list(table.values()), lengths, wide)

    def arrays(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """The int64 modes, one row each, and the values of the entries with ``dim`` components."""
        rows = self._lengths == dim
        if rows.all():
            return self._modes, self._values
        if self._modes.shape[1] < dim:
            return np.empty((0, dim), dtype=np.int64), np.empty(0)
        return self._modes[rows, :dim], self._values[rows]

    def _mode(self, row: int) -> tuple:
        """The mode of entry ``row`` as a tuple of ints."""
        if row in self._wide:
            return self._wide[row]
        return tuple(self._modes[row, : self._lengths[row]].tolist())

    def first_invalid(self):
        """(mode, value) of the first entry that is not finite and >= 0, or None."""
        bad = ~(np.isfinite(self._values) & (self._values >= 0.0))
        if not bad.any():
            return None
        row = int(np.argmax(bad))
        return self._mode(row), float(self._values[row])

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        if not self._wide and (self._lengths == self._modes.shape[1]).all():
            return map(tuple, self._modes.tolist())
        return map(self._mode, range(len(self)))

    def __getitem__(self, mode):
        if self._index is None:
            self._index = dict(zip(self, self._values.tolist()))
        return self._index[mode]

    def __repr__(self) -> str:
        return f"SymbolTable({len(self)} entries)"


@dataclass(frozen=True)
class LongRangeOp:
    """Spectral-multiplier description of a long-range interaction operator.

    The description is bare: the coupling strength is ``ModelParams.gamma``.
    A custom ``symbol`` given as another mapping is converted once into a
    :class:`SymbolTable`.
    """

    kind: OpKind
    gamma_len: float = 0.0   # Helmholtz screening length
    delta: float = 0.0       # relative film thickness
    symbol: SymbolTable | None = field(default=None, hash=False)

    def __post_init__(self):
        if self.kind is OpKind.HELMHOLTZ and self.gamma_len <= 0.0:
            raise ConfigError("helmholtz operator needs a positive length")
        if self.kind is OpKind.GARNET_FILM and self.delta <= 0.0:
            raise ConfigError("garnet film operator needs a positive thickness")
        if self.kind is OpKind.CUSTOM_SYMBOL:
            if not self.symbol:
                raise ConfigError("custom operator needs a non-empty symbol table")
            if not isinstance(self.symbol, SymbolTable):
                object.__setattr__(self, "symbol", SymbolTable.from_mapping(self.symbol))
            invalid = self.symbol.first_invalid()
            if invalid is not None:
                mode, value = invalid
                raise ConfigError(
                    f"custom symbol must be finite and >= 0, got {value} at mode {mode}"
                )

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
    def custom(cls, symbol: Mapping) -> "LongRangeOp":
        """Operator from a table ``{mode: value}``; a mode is an int or a tuple of ints.

        A :class:`SymbolTable` is taken as it is.
        """
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
    """Scatter a custom table's int64 arrays onto the DFT modes of ``grid`` and validate it.

    Entries of another dimension, with a mode outside -n/2 <= m < n/2, or
    beyond int64, are ignored.  Every mode of the grid needs an entry, and
    the entry of m must equal that of its mirror -m (mod n); the first mode
    in C order that breaks either rule is named in the ConfigError.
    """
    n = grid.sizes
    modes, values = op.symbol.arrays(grid.dim)
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
        mult *= op.gamma_len ** 2
        mult += 1.0
        return np.divide(1.0, mult, out=mult)
    if op.kind is OpKind.GARNET_FILM:
        dk = op.delta * _wavenumber_magnitude(grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(dk > 0.0, -np.expm1(-dk) / np.where(dk > 0.0, dk, 1.0), 1.0)
    return _custom_multiplier(op, grid)


def mirror_weights(symbol: np.ndarray) -> np.ndarray:
    """``symbol`` times, in place, the number of DFT modes each rfftn half-spectrum entry
    stands for: every column but the first and the last (modes 0 and n/2) also stands
    for its mirror.  Returns ``symbol``."""
    first, last = symbol[..., 0].copy(), symbol[..., -1].copy()
    symbol *= 2.0
    symbol[..., 0] = first
    symbol[..., -1] = last
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


def estimate_linf_norm(op: LongRangeOp, grid: PeriodicGrid) -> float:
    """Max-norm of the operator, from one impulse response (:func:`impulse_response_norm`)."""
    return impulse_response_norm(multiplier_array(op, grid), grid)


def load_symbol_csv(path) -> SymbolTable:
    """Read a custom symbol table from CSV lines ``k1[,k2],value``.

    ``#`` lines and blank lines are skipped.  A file whose entries all have
    the dimension of its first one and fit int64 is parsed in one
    ``np.loadtxt`` pass straight into the table's arrays.  Other files go
    through the line-by-line parser, which names the first bad line.
    """
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    data = [line for line in map(str.strip, lines) if line and not line.startswith("#")]
    if not data:
        raise ConfigError(f"{path}: empty symbol table")
    dim = data[0].count(",")
    if dim in (1, 2):
        row = np.dtype([("mode", np.int64, (dim,)), ("value", np.float64)])
        try:
            rows = np.loadtxt(data, dtype=row, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            pass   # the line parser reports the error, or reads the table
        else:
            return SymbolTable.from_rows(rows["mode"], rows["value"])
    table = {}
    for lineno, line in enumerate(map(str.strip, lines), start=1):
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (2, 3):
            raise ConfigError(f"{path}:{lineno}: expected 'k1[,k2],value'")
        try:
            mode = tuple(int(p) for p in parts[:-1])
            value = float(parts[-1])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed symbol entry") from exc
        table[mode] = value
    return SymbolTable.from_mapping(table)
