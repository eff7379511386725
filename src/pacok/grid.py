"""Periodic grids, grid fields and discrete inner products.

The computational domain is the torus prod_i [-X_i, X_i) sampled on a
uniform grid of N_i points per direction (N_i even), with spacings
h_i = 2 X_i / N_i and nodes x_k = -X_i + k h_i.  Grid functions carry
one real value per node; the operators that act on them carry the
periodicity, not the storage.  The discrete L2 inner product is

    <f, g>_h = (prod_i h_i) * sum f_k g_k,

with the induced L2 norm, the max norm, and the mean <f, 1>_h / |T^d|.
Reductions rely on numpy's pairwise summation over contiguous buffers,
which keeps the bilinearity/symmetry identities at the 1e-12 level on
256^2 grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, FieldValueError, GridMismatchError, reading

SNAPSHOT_MAGIC = "# pacok-grid v1"
# Values formatted per write: about 90 kB of text.
_SNAPSHOT_BLOCK = 4096


@dataclass(frozen=True)
class PeriodicGrid:
    """Geometry of a 1D/2D periodic box prod_i [-X_i, X_i).

    Parameters
    ----------
    sizes : tuple of int
        Points per direction, each an even integer >= 4, and few enough
        that 16 bytes a point fit in one array.
    half_extents : tuple of float
        Half lengths X_i of the box.
    """

    sizes: tuple[int, ...]
    half_extents: tuple[float, ...]

    def __post_init__(self):
        sizes = tuple(np.atleast_1d(self.sizes).tolist())
        extents = tuple(float(x) for x in np.atleast_1d(self.half_extents))
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "half_extents", extents)
        if len(sizes) != len(extents):
            raise ConfigError("sizes and half_extents must have the same length")
        if len(sizes) not in (1, 2):
            raise ConfigError(f"only 1D and 2D grids are supported, got dim={len(sizes)}")
        for n in sizes:
            if not isinstance(n, int) or n < 4 or n % 2 != 0:
                raise ConfigError(f"grid size must be an even integer >= 4, got {n}")
        # 16 bytes a point bounds every array a run allocates, spectra included.
        if 16 * math.prod(sizes) > np.iinfo(np.intp).max:
            raise ConfigError(f"grid size {sizes} has more points than an array can hold")
        for x, n in zip(extents, sizes):
            if not np.isfinite(x) or x <= 0.0:
                raise ConfigError(f"half extent must be positive and finite, got {x}")
            h = 2.0 * x / n   # the stencil symbol scales by 4/h^2
            if not 0.0 < h * h < math.inf or math.isinf(4.0 / (h * h)):
                raise ConfigError(f"half extent {x!r} on {n} points makes 4/h^2 zero or not finite")

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.sizes

    @property
    def num_cells(self) -> int:
        return math.prod(self.sizes)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(2.0 * x / n for x, n in zip(self.half_extents, self.sizes))

    @cached_property   # read on every time step
    def cell_measure(self) -> float:
        """Volume h_1 * ... * h_d of one cell."""
        out = 1.0
        for h in self.spacings:
            out *= h
        return out

    @property
    def measure(self) -> float:
        """Total volume |T^d| = prod 2 X_i."""
        out = 1.0
        for x in self.half_extents:
            out *= 2.0 * x
        return out

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """1D node coordinate arrays x_i = -X_i + k h_i per direction."""
        return tuple(
            -x + h * np.arange(n)
            for x, h, n in zip(self.half_extents, self.spacings, self.sizes)
        )

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Node coordinates broadcast to the full grid shape (ij indexing)."""
        return tuple(np.meshgrid(*self.coordinates(), indexing="ij"))


class GridField:
    """Real-valued grid function on a :class:`PeriodicGrid`.

    Values are stored row-major in a read-only float64 array of the grid's
    shape.  The constructor is the only way to make a field: it rejects
    non-finite values, so all public operations start and end with finite
    fields.  A C-contiguous float64 array of the grid's shape is wrapped
    without a copy and becomes read-only; the scan for non-finite values
    allocates nothing grid-sized.
    """

    __slots__ = ("grid", "_values")

    def __init__(self, grid: PeriodicGrid, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape == (grid.num_cells,):
            arr = arr.reshape(grid.shape)
        if arr.shape != grid.shape:
            raise GridMismatchError(
                f"values shape {arr.shape} does not match grid shape {grid.shape}"
            )
        # min and max carry a NaN and show an infinity, without a temporary array.
        if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
            raise FieldValueError("grid field contains non-finite values")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.grid = grid
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """Read-only value array of shape ``grid.shape``."""
        return self._values

    def __repr__(self):
        return f"GridField(dim={self.grid.dim}, shape={self.grid.shape})"


def _require_same_grid(a: GridField, b: GridField):
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")


def inner_product_h(a: GridField, b: GridField) -> float:
    """Discrete L2 inner product <a, b>_h = dx * sum a_k b_k."""
    _require_same_grid(a, b)
    return a.grid.cell_measure * float(np.sum(a.values * b.values))


def norm_l2_h(a: GridField) -> float:
    """Discrete L2 norm sqrt(<a, a>_h)."""
    return float(np.sqrt(inner_product_h(a, a)))


def save_snapshot(path, field: GridField, t: float = 0.0):
    """Write a field as text: a one-line header, then one value per line.

    The header is ``# pacok-grid v1 dim=<d> N=<N1[,N2]> X=<X1[,X2]> t=<time>``
    and values are written row-major with 17 significant digits, which
    round-trips float64 exactly.  The text is built and written a block of
    values at a time, so the whole file is never held in memory.
    """
    g = field.grid
    n_str = ",".join(str(n) for n in g.sizes)
    x_str = ",".join(f"{x:.17g}" for x in g.half_extents)
    values = field.values.ravel()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{SNAPSHOT_MAGIC} dim={g.dim} N={n_str} X={x_str} t={t:.17g}\n")
        for start in range(0, values.size, _SNAPSHOT_BLOCK):
            block = values[start:start + _SNAPSHOT_BLOCK].tolist()
            fh.write("%.17g\n" * len(block) % tuple(block))


def load_snapshot(path) -> tuple[GridField, float]:
    """Read a snapshot written by :func:`save_snapshot`; returns (field, t)."""
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith(SNAPSHOT_MAGIC):
            raise ConfigError(f"{path}: not a pacok-grid v1 snapshot")
        fields = {}
        for token in header[len(SNAPSHOT_MAGIC):].split():
            key, _, value = token.partition("=")
            fields[key] = value
        try:
            sizes = tuple(int(s) for s in fields["N"].split(","))
            extents = tuple(float(s) for s in fields["X"].split(","))
            dim = int(fields["dim"])
            t = float(fields["t"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path}: malformed snapshot header: {header}") from exc
        if dim != len(sizes):
            raise ConfigError(f"{path}: header dim={dim} does not match N={fields['N']}")
        grid = PeriodicGrid(sizes, extents)
        try:
            values = np.array([float(line) for line in fh if line.strip()])
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed value line") from exc
    if values.size != grid.num_cells:
        raise ConfigError(
            f"{path}: expected {grid.num_cells} values, found {values.size}"
        )
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ConfigError(f"{path}: value {i + 1} is {values[i]}, not a finite number")
    return GridField(grid, values), t
