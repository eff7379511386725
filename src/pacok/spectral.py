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


@dataclass(frozen=True)
class LongRangeOp:
    """Spectral-multiplier description of a long-range interaction operator.

    The description is bare: the coupling strength is ``ModelParams.gamma``.
    """

    kind: OpKind
    gamma_len: float = 0.0   # Helmholtz screening length
    delta: float = 0.0       # relative film thickness
    symbol: dict | None = field(default=None, hash=False)

    def __post_init__(self):
        if self.kind is OpKind.HELMHOLTZ and self.gamma_len <= 0.0:
            raise ConfigError("helmholtz operator needs a positive length")
        if self.kind is OpKind.GARNET_FILM and self.delta <= 0.0:
            raise ConfigError("garnet film operator needs a positive thickness")
        if self.kind is OpKind.CUSTOM_SYMBOL:
            if not self.symbol:
                raise ConfigError("custom operator needs a non-empty symbol table")
            values = np.fromiter(self.symbol.values(), dtype=float, count=len(self.symbol))
            bad = ~(np.isfinite(values) & (values >= 0.0))
            if bad.any():
                mode, value = list(self.symbol.items())[int(np.argmax(bad))]
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
    def custom(cls, symbol: dict) -> "LongRangeOp":
        """Operator from a table ``{mode: value}``; a mode is an int or a tuple of ints."""
        try:
            modes = np.array(list(symbol))
        except ValueError:   # tuples of different lengths
            modes = None
        if modes is not None and modes.dtype.kind in "iu" and modes.ndim <= 2:
            keys = map(tuple, modes.reshape(len(symbol), -1).tolist())
        else:
            keys = (
                (int(mode),) if np.isscalar(mode) else tuple(int(m) for m in mode)
                for mode in symbol
            )
        normalized = dict(zip(keys, map(float, symbol.values())))
        return cls(OpKind.CUSTOM_SYMBOL, symbol=normalized)

    @classmethod
    def none(cls) -> "LongRangeOp":
        return cls(OpKind.NONE)


# Nothing runs in threads, so the caches need no lock.
_symbol_cache: dict = {}
_multiplier_cache: dict = {}


def _grid_key(grid: PeriodicGrid):
    return (grid.sizes, grid.half_extents)


def stencil_symbol(grid: PeriodicGrid) -> np.ndarray:
    """Symbol of -Lap_h over the real-FFT mode layout (all entries >= 0)."""
    key = _grid_key(grid)
    cached = _symbol_cache.get(key)
    if cached is not None:
        return cached
    h = grid.spacings
    n = grid.sizes
    if grid.dim == 1:
        j = np.arange(n[0] // 2 + 1)
        lam = (4.0 / h[0] ** 2) * np.sin(np.pi * j / n[0]) ** 2
    else:
        j1 = np.arange(n[0])[:, None]
        j2 = np.arange(n[1] // 2 + 1)[None, :]
        lam = (4.0 / h[0] ** 2) * np.sin(np.pi * j1 / n[0]) ** 2 \
            + (4.0 / h[1] ** 2) * np.sin(np.pi * j2 / n[1]) ** 2
    lam.setflags(write=False)
    _symbol_cache[key] = lam
    return lam


def _wavenumber_magnitude(grid: PeriodicGrid) -> np.ndarray:
    """|k| with k_i = pi * m_i / X_i over the real-FFT mode layout."""
    n = grid.sizes
    x = grid.half_extents
    if grid.dim == 1:
        m = np.arange(n[0] // 2 + 1)
        return np.pi * m / x[0]
    m1 = (np.fft.fftfreq(n[0]) * n[0])[:, None]
    m2 = np.arange(n[1] // 2 + 1)[None, :]
    return np.sqrt((np.pi * m1 / x[0]) ** 2 + (np.pi * m2 / x[1]) ** 2)


def _wrap_mode(m: int, n: int) -> int:
    return (m + n // 2) % n - n // 2


def _custom_multiplier(op: LongRangeOp, grid: PeriodicGrid) -> np.ndarray:
    """Scatter a custom table onto the DFT modes of ``grid`` and validate it.

    Entries of another dimension, or with a mode outside -n/2 <= m < n/2,
    are ignored.  Every mode of the grid needs an entry, and the entry of m
    must equal that of its mirror -m (mod n); the first mode in C order that
    breaks either rule is named in the ConfigError.
    """
    n = grid.sizes
    table = op.symbol
    in_dim = [mode for mode in table if len(mode) == grid.dim]
    values = np.fromiter(map(table.__getitem__, in_dim), dtype=float, count=len(in_dim))
    # Object dtype keeps modes beyond int64 exact until the range test drops them.
    modes = np.array(in_dim, dtype=object).reshape(len(in_dim), grid.dim)
    half = np.array(n) // 2
    inside = np.all((modes >= -half) & (modes < half), axis=1)
    index = modes[inside].astype(np.int64) % np.array(n)
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
    """Fourier multiplier of ``op`` over the real-FFT mode layout.

    Built once per operator and grid and cached read-only.  A custom table
    is validated against the grid (complete and even) once, when its
    multiplier is built.
    """
    if op.kind is OpKind.NONE:
        raise ConfigError("cannot apply a long-range operator of kind 'none'")
    if op.kind is OpKind.CUSTOM_SYMBOL:
        # The op's hash leaves the table out; equal keys compare it.
        key = (op, _grid_key(grid))
    else:
        key = (op.kind, op.gamma_len, op.delta, _grid_key(grid))
    cached = _multiplier_cache.get(key)
    if cached is not None:
        return cached
    if op.kind is OpKind.INVERSE_LAPLACIAN:
        lam = stencil_symbol(grid)
        with np.errstate(divide="ignore"):
            mult = np.where(lam > 0.0, 1.0 / np.where(lam > 0.0, lam, 1.0), 0.0)
    elif op.kind is OpKind.HELMHOLTZ:
        mult = 1.0 / (1.0 + op.gamma_len ** 2 * stencil_symbol(grid))
    elif op.kind is OpKind.GARNET_FILM:
        kmag = _wavenumber_magnitude(grid)
        dk = op.delta * kmag
        with np.errstate(divide="ignore", invalid="ignore"):
            mult = np.where(dk > 0.0, -np.expm1(-dk) / np.where(dk > 0.0, dk, 1.0), 1.0)
    else:
        mult = _custom_multiplier(op, grid)
    mult.setflags(write=False)
    _multiplier_cache[key] = mult
    return mult


def mirror_weights(symbol: np.ndarray) -> np.ndarray:
    """``symbol`` times the number of DFT modes each rfftn half-spectrum entry stands for:
    every column but the first and the last (modes 0 and n/2) also stands for its mirror."""
    weights = 2.0 * symbol
    weights[..., 0] = symbol[..., 0]
    weights[..., -1] = symbol[..., -1]
    return weights


def estimate_linf_norm(op: LongRangeOp, grid: PeriodicGrid) -> float:
    """Max-norm of the operator, estimated from one impulse response.

    The operator matrix G (with the zero-mean projection built into the
    inverse-Laplacian symbol) is circulant, so all absolute row sums agree
    and the max-to-max norm is the absolute sum of the response to a single
    unit impulse.  The DFT of a unit impulse at the origin is exactly 1 in
    every mode, so the response is the inverse transform of the multiplier
    itself.
    """
    mult = multiplier_array(op, grid)
    response = np.fft.irfftn(mult, s=grid.shape, axes=tuple(range(grid.dim)))
    return float(np.sum(np.abs(response)))


def load_symbol_csv(path) -> dict:
    """Read a custom symbol table from CSV lines ``k1[,k2],value``.

    ``#`` lines and blank lines are skipped.  A file whose entries all have
    the dimension of its first one is parsed in one array pass; other files
    go through the line-by-line parser, which names the first bad line.
    """
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        lines = [
            (lineno, line)
            for lineno, line in enumerate(map(str.strip, fh), start=1)
            if line and not line.startswith("#")
        ]
    if not lines:
        raise ConfigError(f"{path}: empty symbol table")
    dim = lines[0][1].count(",")
    if dim in (1, 2):
        row = np.dtype([("mode", np.int64, (dim,)), ("value", np.float64)])
        try:
            rows = np.loadtxt(
                [line for _, line in lines], dtype=row, delimiter=",", comments=None, ndmin=1
            )
        except ValueError:
            pass   # the line parser reports the error, or reads the mixed table
        else:
            return dict(zip(map(tuple, rows["mode"].tolist()), rows["value"].tolist()))
    table = {}
    for lineno, line in lines:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (2, 3):
            raise ConfigError(f"{path}:{lineno}: expected 'k1[,k2],value'")
        try:
            mode = tuple(int(p) for p in parts[:-1])
            value = float(parts[-1])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed symbol entry") from exc
        table[mode] = value
    return table
