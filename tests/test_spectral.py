import math
import re
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacok.config import RunConfig
from pacok.errors import ConfigError
from pacok.grid import GridField, PeriodicGrid, inner_product_h
from pacok.spectral import (
    _custom_multiplier,
    LongRangeOp,
    OpKind,
    SymbolTable,
    impulse_response_norm,
    load_symbol_csv,
    multiplier_array,
    stencil_symbol,
)

from oracles import (
    apply_inv_neg_laplacian,
    apply_laplacian,
    apply_long_range,
    mean_h,
    norm_linf_h,
)


def dense_laplacian(grid):
    """Assemble the periodic stencil matrix row by row (independent oracle)."""
    n_cells = grid.num_cells
    L = np.zeros((n_cells, n_cells))
    h = grid.spacings
    if grid.dim == 1:
        (n,) = grid.sizes
        for i in range(n):
            L[i, (i - 1) % n] += 1.0 / h[0] ** 2
            L[i, (i + 1) % n] += 1.0 / h[0] ** 2
            L[i, i] += -2.0 / h[0] ** 2
    else:
        n1, n2 = grid.sizes

        def flat(i, j):
            return (i % n1) * n2 + (j % n2)

        for i in range(n1):
            for j in range(n2):
                r = flat(i, j)
                L[r, flat(i - 1, j)] += 1.0 / h[0] ** 2
                L[r, flat(i + 1, j)] += 1.0 / h[0] ** 2
                L[r, r] += -2.0 / h[0] ** 2
                L[r, flat(i, j - 1)] += 1.0 / h[1] ** 2
                L[r, flat(i, j + 1)] += 1.0 / h[1] ** 2
                L[r, r] += -2.0 / h[1] ** 2
    return L


def random_field(grid, seed, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return GridField(grid, rng.uniform(lo, hi, size=grid.shape))


class TestLaplacian:
    def test_annihilates_constants(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        out = apply_laplacian(GridField(g, np.full(g.shape, 3.2)))
        assert norm_linf_h(out) == 0.0

    @pytest.mark.parametrize("mode", [0, 1, 5, 16])
    def test_cosine_eigenfields_1d(self, mode):
        g = PeriodicGrid((32,), (1.0,))
        (x,) = g.coordinates()
        (h,) = g.spacings
        u = GridField(g, np.cos(mode * np.pi * x / g.half_extents[0]))
        lam = -(4.0 / h**2) * np.sin(mode * np.pi * h / (2 * g.half_extents[0])) ** 2
        out = apply_laplacian(u)
        scale = max(abs(lam) * norm_linf_h(u), 1.0)
        assert np.max(np.abs(out.values - lam * u.values)) <= 1e-12 * scale

    def test_matches_dense_oracle_8x8(self):
        g = PeriodicGrid((8, 8), (1.0, 2.0))
        a = random_field(g, 21)
        L = dense_laplacian(g)
        expected = (L @ a.values.ravel()).reshape(g.shape)
        assert np.max(np.abs(apply_laplacian(a).values - expected)) <= 1e-11

    def test_output_has_zero_sum(self):
        g = PeriodicGrid((64, 32), (1.0, 1.0))
        a = random_field(g, 22)
        out = apply_laplacian(a)
        assert abs(np.sum(out.values)) <= 1e-12 * np.sum(np.abs(a.values)) / a.grid.spacings[0] ** 2

    def test_symbol_per_mode_on_a_non_square_box(self):
        # Mode (j, k) of an N1 x N2 box has (4/h1^2) sin^2(pi j/N1) + (4/h2^2) sin^2(pi k/N2);
        # the last axis keeps k = 0..N2/2.
        g = PeriodicGrid((8, 6), (1.0, 2.0))
        (h1, h2), lam = g.spacings, stencil_symbol(g)
        assert lam.shape == (8, 4)
        for j in range(8):
            for k in range(4):
                expected = (4 / h1**2 * math.sin(math.pi * j / 8) ** 2
                            + 4 / h2**2 * math.sin(math.pi * k / 6) ** 2)
                assert lam[j, k] == pytest.approx(expected, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("sizes", [(256, 256), (65536,)])
    def test_symbol_peaks_at_about_one_output_array(self, sizes):
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lam = stencil_symbol(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * lam.nbytes


class TestInverseLaplacian:
    def test_constants_map_to_zero(self):
        g = PeriodicGrid((16,), (1.0,))
        out = apply_inv_neg_laplacian(GridField(g, np.full(g.shape, 5.0)))
        assert norm_linf_h(out) <= 1e-14

    def test_eigenfield_scaling(self):
        g = PeriodicGrid((32,), (1.0,))
        (x,) = g.coordinates()
        (h,) = g.spacings
        mode = 3
        u = GridField(g, np.cos(mode * np.pi * x / g.half_extents[0]))
        lam = (4.0 / h**2) * np.sin(mode * np.pi * h / (2 * g.half_extents[0])) ** 2
        out = apply_inv_neg_laplacian(u)
        assert np.max(np.abs(out.values - u.values / lam)) <= 1e-12

    def test_matches_dense_pseudoinverse(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        a = random_field(g, 23)
        b = GridField(g, a.values - np.mean(a.values))
        G = np.linalg.pinv(-dense_laplacian(g))
        expected = (G @ b.values.ravel()).reshape(g.shape)
        assert np.max(np.abs(apply_inv_neg_laplacian(b).values - expected)) <= 1e-10

    @pytest.mark.parametrize("shape", [(32,), (64, 32), (128, 128)])
    def test_round_trip(self, shape):
        g = PeriodicGrid(shape, (1.0,) * len(shape))
        a = random_field(g, 24)
        u = apply_inv_neg_laplacian(a)
        assert abs(mean_h(u)) <= 1e-12
        back = apply_laplacian(u)
        target = -(a.values - np.mean(a.values))
        assert np.max(np.abs(back.values - target)) <= 1e-10 * max(1.0, norm_linf_h(a))


class TestLongRangeOps:
    def test_none_cannot_be_applied(self):
        g = PeriodicGrid((8,), (1.0,))
        with pytest.raises(ConfigError):
            apply_long_range(LongRangeOp.none(), GridField(g, np.full(g.shape, 1.0)))

    def test_a_kind_that_is_not_an_opkind_is_refused(self):
        with pytest.raises(ConfigError, match="kind must be an OpKind, got 'helmholtz'"):
            LongRangeOp("helmholtz", gamma_len=0.1)

    @pytest.mark.parametrize("make, message", [
        (LongRangeOp.helmholtz, "helmholtz operator needs a positive length"),
        (LongRangeOp.garnet_film, "garnet film operator needs a positive thickness"),
    ], ids=["helmholtz", "garnet_film"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_a_length_that_is_not_positive_is_refused(self, make, message, value):
        # A NaN thickness would give the multiplier 1 at every mode, the identity.
        with pytest.raises(ConfigError) as exc_info:
            make(value)
        assert str(exc_info.value) == message

    def test_helmholtz_preserves_constants(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        op = LongRangeOp.helmholtz(0.3)
        out = apply_long_range(op, GridField(g, np.full(g.shape, 0.7)))
        assert np.max(np.abs(out.values - 0.7)) <= 1e-14

    def test_helmholtz_matches_dense_solve(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        glen = 0.25
        a = random_field(g, 25)
        A = np.eye(g.num_cells) - glen**2 * dense_laplacian(g)
        expected = np.linalg.solve(A, a.values.ravel()).reshape(g.shape)
        out = apply_long_range(LongRangeOp.helmholtz(glen), a)
        assert np.max(np.abs(out.values - expected)) <= 1e-10

    def test_garnet_symbol_formula(self):
        g = PeriodicGrid((32,), (2.0,))
        delta = 0.7
        mult = multiplier_array(LongRangeOp.garnet_film(delta), g)
        modes = np.arange(g.sizes[0] // 2 + 1)
        k = np.pi * modes / g.half_extents[0]
        expected = np.where(k > 0, (1.0 - np.exp(-delta * k)) / np.maximum(delta * k, 1e-300), 1.0)
        assert mult[0] == 1.0
        assert np.max(np.abs(mult - expected)) <= 1e-13

    def test_garnet_symbol_formula_on_a_non_square_box(self):
        # Mode (j, k) has |k| = pi |(m/X1, k/X2)|, m = j wrapped into -N1/2..N1/2-1.
        g = PeriodicGrid((8, 6), (1.0, 2.0))
        delta = 0.7
        mult = multiplier_array(LongRangeOp.garnet_film(delta), g)
        assert mult.shape == (8, 4)
        for j in range(8):
            for k in range(4):
                kmag = math.hypot(math.pi * (j if j < 4 else j - 8) / 1.0, math.pi * k / 2.0)
                expected = (1.0 - math.exp(-delta * kmag)) / (delta * kmag) if kmag else 1.0
                assert mult[j, k] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("op", [LongRangeOp.helmholtz(1e150), LongRangeOp.garnet_film(1e308)])
    def test_a_multiplier_that_overflows_is_its_limit_without_a_warning(self, op):
        # gamma_len^2 times the stencil symbol, and delta |k|, overflow at every
        # nonzero mode of this box; each multiplier tends to 0 there and is 1 at mode 0.
        g = PeriodicGrid((16,), (1e-5,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mult = multiplier_array(op, g)
        assert np.array_equal(mult, (stencil_symbol(g) == 0.0).astype(float))

    def test_garnet_acts_mode_by_mode(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        delta = 0.5
        op = LongRangeOp.garnet_film(delta)
        x, y = g.meshgrid()
        mode = (2, 3)
        u = GridField(g, np.cos(2 * np.pi * (mode[0] * (x + 1) / 2 + mode[1] * (y + 1) / 2)))
        kmag = np.hypot(np.pi * mode[0] / 1.0, np.pi * mode[1] / 1.0)
        lam = (1.0 - np.exp(-delta * kmag)) / (delta * kmag)
        out = apply_long_range(op, u)
        assert np.max(np.abs(out.values - lam * u.values)) <= 1e-12

    def test_linearity(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        rng = np.random.default_rng(26)
        for op in [
            LongRangeOp.inverse_laplacian(),
            LongRangeOp.helmholtz(0.2),
            LongRangeOp.garnet_film(1.1),
        ]:
            a = GridField(g, rng.standard_normal(g.shape))
            b = GridField(g, rng.standard_normal(g.shape))
            al, be = 0.6, -1.7
            lhs = apply_long_range(op, GridField(g, al * a.values + be * b.values))
            rhs = al * apply_long_range(op, a).values + be * apply_long_range(op, b).values
            assert np.max(np.abs(lhs.values - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_positive_semidefinite(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        rng = np.random.default_rng(27)
        for op in [
            LongRangeOp.inverse_laplacian(),
            LongRangeOp.helmholtz(0.4),
            LongRangeOp.garnet_film(0.9),
        ]:
            for _ in range(25):
                a = GridField(g, rng.standard_normal(g.shape))
                assert inner_product_h(apply_long_range(op, a), a) >= -1e-12


class TestCustomSymbol:
    @staticmethod
    def full_mode_table(n, fn):
        table = {}
        for m in range(-n // 2, n // 2):
            table[(m,)] = fn(m)
        return table

    def test_identity_symbol(self):
        g = PeriodicGrid((8,), (1.0,))
        op = LongRangeOp.custom(table_from_dict(self.full_mode_table(8, lambda m: 1.0)))
        a = random_field(g, 28)
        out = apply_long_range(op, a)
        assert np.max(np.abs(out.values - a.values)) <= 1e-14

    def test_missing_mode_raises(self):
        g = PeriodicGrid((8,), (1.0,))
        table = self.full_mode_table(8, lambda m: 1.0)
        del table[(3,)]
        with pytest.raises(ConfigError, match="mode"):
            apply_long_range(LongRangeOp.custom(table_from_dict(table)), random_field(g, 29))

    def test_uneven_symbol_rejected(self):
        g = PeriodicGrid((8,), (1.0,))
        table = self.full_mode_table(8, lambda m: 1.0)
        table[(3,)] = 2.0
        with pytest.raises(ConfigError, match="even"):
            apply_long_range(LongRangeOp.custom(table_from_dict(table)), random_field(g, 30))

    def test_negative_symbol_rejected(self):
        with pytest.raises(ConfigError):
            LongRangeOp.custom(table_from_dict({(0,): -1.0}))

    def test_csv_loader(self, tmp_path):
        path = tmp_path / "symbol.csv"
        path.write_text("# comment\n0,0,1.0\n1,-1,0.5\n")
        table = load_symbol_csv(path)
        assert table.modes.tolist() == [[0, 0], [1, -1]] and table.values.tolist() == [1.0, 0.5]

    def test_csv_loader_rejects_garbage(self, tmp_path):
        path = tmp_path / "symbol.csv"
        path.write_text("a,b\n")
        with pytest.raises(ConfigError):
            load_symbol_csv(path)

    @pytest.mark.parametrize(
        "text, table",
        [
            ("0,1.0\n 1 , 0.5 \n# c\n\n-1,0.5\n", {(0,): 1.0, (1,): 0.5, (-1,): 0.5}),
            ("+1,1e3\n-1,1E+3\n", {(1,): 1000.0, (-1,): 1000.0}),
            ("0,0,.5\n0,1,5.\n", {(0, 0): 0.5, (0, 1): 5.0}),
            ("9223372036854775807,1\n-9223372036854775808,2\n",
             {(2**63 - 1,): 1.0, (-(2**63),): 2.0}),
        ],
    )
    def test_csv_loader_reads_like_python(self, tmp_path, text, table):
        path = tmp_path / "symbol.csv"
        path.write_text(text)
        loaded = load_symbol_csv(path)
        assert loaded.modes.dtype == np.int64 and loaded.values.dtype == np.float64
        assert table_as_dict(loaded) == table
        assert list(table_as_dict(loaded)) == list(table)   # in file order

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,1.0\n1,2,3,4\n", r":2: expected"),
            ("# c\n0,0,1.0\n\n1,1.5,1.0\n", r":4: malformed"),
            ("0,1.0 # note\n", r":1: malformed"),
            ("0,0,1.0\n0,,1.0\n", r":2: malformed"),
            ("# only a comment\n\n", r"empty symbol table"),
            ("0,1,2,3\n", r":1: expected"),
            ("0,1.0\n1,-1,0.5\n", r":2: expected 'k1\[,k2\],value' with the 1D modes of line 1"),
            ("1_000,1.0\n", r":1: malformed"),
            ("0,1.0\n1,1_0.5\n", r":2: malformed"),
            ("99999999999999999999,1\n", r":1: malformed"),
            ("0,0,1.0\n1,0,1.0\n0,0,2.0\n", r"mode \(0, 0\) twice"),
            ("3,inf\n", r"got inf at mode \(3,\)"),
        ],
    )
    def test_csv_loader_names_the_bad_line(self, tmp_path, text, message):
        path = tmp_path / "symbol.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_symbol_csv(path)


def wrap_mode(m, n):
    return (m + n // 2) % n - n // 2


def loop_custom_multiplier(table, grid):
    """Per-mode reference builder: look up every mode and its mirror in order."""
    n = grid.sizes

    def lookup(mode):
        try:
            return table[mode]
        except KeyError:
            raise ConfigError(f"custom symbol table has no entry for mode {mode}") from None

    if grid.dim == 1:
        modes = [(wrap_mode(m, n[0]),) for m in range(n[0])]
    else:
        modes = [
            (wrap_mode(m1, n[0]), wrap_mode(m2, n[1]))
            for m1 in range(n[0])
            for m2 in range(n[1])
        ]
    for mode in modes:
        value = lookup(mode)
        mirrored = tuple(wrap_mode(-m, nn) for m, nn in zip(mode, n))
        if lookup(mirrored) != value:
            raise ConfigError(
                f"custom symbol is not even: value at {mode} differs from {mirrored}"
            )
    if grid.dim == 1:
        return np.array([lookup((wrap_mode(m, n[0]),)) for m in range(n[0] // 2 + 1)])
    m1s = [int(m) for m in np.fft.fftfreq(n[0]) * n[0]]
    m2s = [wrap_mode(m, n[1]) for m in range(n[1] // 2 + 1)]
    return np.array([[lookup((m1, m2)) for m2 in m2s] for m1 in m1s])


def table_from_dict(table):
    """The SymbolTable of ``{mode: value}``, a mode a tuple of ints, in dict order."""
    modes = np.array(list(table), dtype=np.int64).reshape(len(table), -1)
    return SymbolTable(modes, np.array(list(table.values()), dtype=np.float64))


def table_as_dict(table):
    return dict(zip(map(tuple, table.modes.tolist()), table.values.tolist()))


def random_even_table(sizes, seed):
    """Table over every mode -n/2 <= m < n/2 with value(m) == value(-m mod n)."""
    rng = np.random.default_rng(seed)
    full = rng.uniform(0.0, 2.0, size=sizes)
    mirror = np.ix_(*[-np.arange(n) % n for n in sizes])
    full = 0.5 * (full + full[mirror])
    return {
        tuple(wrap_mode(k, n) for k, n in zip(index, sizes)): float(full[index])
        for index in np.ndindex(*sizes)
    }


def build_error(builder, table, grid):
    with pytest.raises(ConfigError) as exc_info:
        builder(table, grid)
    return str(exc_info.value)


def array_builder(table, grid):
    return _custom_multiplier(LongRangeOp.custom(table_from_dict(table)), grid)


GRID_SIZES = [(8,), (16,), (8, 8), (6, 10)]


class TestCustomMultiplierBuilder:
    @pytest.mark.parametrize("sizes", GRID_SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_mode_builder(self, sizes, seed):
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        table = random_even_table(sizes, seed)
        expected = loop_custom_multiplier(table, g)
        mult = array_builder(table, g)
        assert mult.dtype == np.float64 and mult.flags.c_contiguous
        assert mult.shape == expected.shape
        assert np.array_equal(mult, expected)

    @pytest.mark.parametrize("sizes", GRID_SIZES)
    def test_out_of_range_entries_ignored_other_dimension_refused(self, sizes):
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        table = random_even_table(sizes, 3)
        expected = loop_custom_multiplier(table, g)
        extra = dict(table)
        n0 = sizes[0]
        rest = (0,) * (len(sizes) - 1)
        extra[(n0 // 2,) + rest] = 7.0           # +n/2 wraps to -n/2: out of range
        extra[(-n0 // 2 - 1,) + rest] = 7.0
        extra[(2**63 - 1,) + rest] = 7.0
        assert np.array_equal(array_builder(extra, g), expected)
        assert np.array_equal(loop_custom_multiplier(extra, g), expected)
        other = 3 - len(sizes)
        with pytest.raises(ConfigError, match=f"table is {other}D, the grid is {len(sizes)}D"):
            array_builder({(0,) * other: 1.0}, g)

    @pytest.mark.parametrize("sizes", GRID_SIZES)
    def test_missing_mode_named_as_before(self, sizes):
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        rng = np.random.default_rng(4)
        table = random_even_table(sizes, 4)
        modes = sorted(table)
        for _ in range(6):
            damaged = dict(table)
            for i in rng.choice(len(modes), size=rng.integers(1, 4), replace=False):
                del damaged[modes[i]]
            message = build_error(loop_custom_multiplier, damaged, g)
            assert "no entry for mode" in message
            assert build_error(array_builder, damaged, g) == message

    @pytest.mark.parametrize("sizes", GRID_SIZES)
    def test_uneven_mode_named_as_before(self, sizes):
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        rng = np.random.default_rng(5)
        table = random_even_table(sizes, 5)
        mirrored = lambda mode: tuple(wrap_mode(-m, n) for m, n in zip(mode, sizes))
        uneven = sorted(mode for mode in table if mirrored(mode) != mode)
        for _ in range(6):
            damaged = dict(table)
            for i in rng.choice(len(uneven), size=rng.integers(1, 4), replace=False):
                damaged[uneven[i]] += 0.5
            message = build_error(loop_custom_multiplier, damaged, g)
            assert "not even" in message
            assert build_error(array_builder, damaged, g) == message

    def test_building_and_dropping_operators_keeps_no_memory(self):
        g = PeriodicGrid((64, 64), (1.0, 1.0))
        table = table_from_dict(random_even_table((64, 64), 6))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(50):
                multiplier_array(LongRangeOp.custom(table), g)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert kept < 100_000   # each operator's table and multiplier take ~146 kB

    def test_each_custom_op_builds_its_own_table(self):
        # The op's hash leaves the table out, so these ops collide by design.
        g = PeriodicGrid((6, 10), (1.0, 1.0))
        table_a, table_b = random_even_table((6, 10), 7), random_even_table((6, 10), 8)
        a = LongRangeOp.custom(table_from_dict(table_a))
        b = LongRangeOp.custom(table_from_dict(table_b))
        assert hash(a) == hash(b) and a != b
        mult_a = multiplier_array(a, g)
        mult_b = multiplier_array(b, g)
        assert np.array_equal(mult_a, loop_custom_multiplier(table_a, g))
        assert np.array_equal(mult_b, loop_custom_multiplier(table_b, g))
        assert not np.array_equal(mult_a, mult_b)

    def test_invalid_table_fails_on_every_build(self):
        g = PeriodicGrid((8,), (1.0,))
        table = {(m,): 1.0 for m in range(-4, 4)}
        table[(3,)] = 2.0
        op = LongRangeOp.custom(table_from_dict(table))
        for _ in range(2):
            with pytest.raises(ConfigError, match="even"):
                multiplier_array(op, g)


class TestCustomTableNormalisation:
    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_first_bad_value_named(self, bad):
        table = {(0,): 1.0, (1,): bad, (2,): -5.0}
        with pytest.raises(ConfigError, match=r"got .* at mode \(1,\)"):
            LongRangeOp.custom(table_from_dict(table))


def write_table(path, lines):
    """CSV lines ``k1[,k2],value`` under a comment line, values written exactly."""
    body = [",".join(map(str, mode)) + f",{value!r}" for mode, value in lines]
    path.write_text("# symbol table\n" + "\n".join(body) + "\n")


@st.composite
def table_files(draw):
    """Grid sizes, the lines of a CSV table in file order, and the dict they
    stand for or the pattern of the ConfigError the loader raises.  The table
    is even over every mode of the grid; some draws add out-of-range lines,
    which are ignored, beyond-int64 and other-dimension lines and a repeated
    line, which are refused, or damage one entry (missing or uneven)."""
    sizes = tuple(draw(st.sampled_from([4, 6, 8, 10])) for _ in range(draw(st.sampled_from([1, 2]))))
    table = random_even_table(sizes, draw(st.integers(0, 2**32 - 1)))
    modes = sorted(table)
    damage = draw(st.sampled_from(["none", "missing", "uneven"]))
    if damage == "missing":
        del table[draw(st.sampled_from(modes))]
    elif damage == "uneven":
        mirrored = lambda mode: tuple(wrap_mode(-m, n) for m, n in zip(mode, sizes))
        table[draw(st.sampled_from([m for m in modes if mirrored(m) != m]))] += 0.5
    rest = (0,) * (len(sizes) - 1)
    extra = {}
    if draw(st.booleans()):
        extra[(sizes[0] // 2,) + rest] = 7.0        # +n/2: outside -n/2 <= m < n/2
        extra[(-sizes[0] // 2 - 1,) + rest] = 7.0
    if draw(st.booleans()):
        extra[(-(10**20),) + rest] = 8.0             # beyond int64
    if draw(st.booleans()):
        extra[(0,) * (3 - len(sizes))] = 9.0         # the other dimension
    lines = list(table.items()) + list(extra.items())
    lines = draw(st.permutations(lines))
    repeated = None
    if draw(st.booleans()):
        index = draw(st.integers(0, len(lines) - 1))
        repeated = lines[index][0]
        lines.insert(index, (repeated, 5.0))
    for lineno, (mode, _) in enumerate(lines, start=2):   # under the comment line
        if len(mode) != len(lines[0][0]):
            return sizes, lines, rf":{lineno}: expected"
        if any(not -(2**63) <= m < 2**63 for m in mode):
            return sizes, lines, rf":{lineno}: malformed"
    if repeated is not None:
        return sizes, lines, re.escape(f"mode {repeated} twice")
    return sizes, lines, dict(lines)


class TestTablePath:
    """File to multiplier: the array path against the per-mode builder on the dict."""

    @settings(max_examples=60, deadline=None)
    @given(case=table_files())
    def test_file_to_multiplier_matches_per_mode_builder(self, tmp_path_factory, case):
        sizes, lines, table = case
        path = tmp_path_factory.mktemp("table") / "symbol.csv"
        write_table(path, lines)
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        # A constant start, as the default 8 blocks divide no grid of 4 or 6 points.
        cfg = RunConfig(N=sizes, X=(1.0,) * len(sizes), operator="custom",
                        op_symbol_file=str(path), initial="constant")
        if isinstance(table, str):
            with pytest.raises(ConfigError, match=table):
                cfg.build_op()
            return
        op = cfg.build_op()
        assert table_as_dict(op.symbol) == table
        try:
            expected = loop_custom_multiplier(table, g)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as got:
                multiplier_array(op, g)
            assert str(got.value) == str(exc)
        else:
            assert np.array_equal(multiplier_array(op, g), expected)

    def test_inverse_laplacian_table_at_256_loads_back_bit_equal(self, tmp_path):
        n = 256
        g = PeriodicGrid((n, n), (1.0, 1.0))
        mult = multiplier_array(LongRangeOp.inverse_laplacian(), g)
        # sin^2(pi m / n) and sin^2(pi (n - m) / n) can differ in the last bit, so
        # columns 0 and n/2 take the value of their rows' mirrors from row n/2 on.
        half = mult.copy()
        rows = np.arange(n // 2 + 1, n)[:, None]
        half[rows, [0, n // 2]] = mult[n - rows, [0, n // 2]]
        assert np.allclose(half, mult, rtol=1e-12, atol=0.0)
        full = np.empty((n, n))
        full[:, : n // 2 + 1] = half
        full[:, n // 2 + 1:] = half[-np.arange(n) % n][:, n // 2 - 1:0:-1]   # value(m) = value(-m)
        m1, m2 = np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n).astype(int)] * 2, indexing="ij")
        path = tmp_path / "symbol.csv"
        path.write_text("\n".join(
            f"{a},{b},{v!r}" for a, b, v in zip(m1.ravel().tolist(), m2.ravel().tolist(),
                                                full.ravel().tolist())) + "\n")
        op = RunConfig(N=(n, n), X=(1.0, 1.0), operator="custom",
                       op_symbol_file=str(path)).build_op()
        assert np.array_equal(multiplier_array(op, g), half)


class TestSymbolTable:
    def test_arrays_are_int64_modes_and_float64_values_read_only(self):
        modes, values = np.array([[1, -2], [0, 0]]), np.array([2.0, 1.5])
        table = SymbolTable(modes, values)
        assert table.modes.dtype == np.int64 and table.values.dtype == np.float64
        assert table.modes.tolist() == [[1, -2], [0, 0]] and table.values.tolist() == [2.0, 1.5]
        assert not table.modes.flags.writeable and not table.values.flags.writeable
        with pytest.raises(ValueError):
            table.values[0] = 3.0
        with pytest.raises(FrozenInstanceError):
            table.values = np.zeros(2)
        modes[0, 0] = values[0] = 7   # the table holds its own copies
        assert table.modes.tolist() == [[1, -2], [0, 0]] and table.values.tolist() == [2.0, 1.5]

    @pytest.mark.parametrize(
        "modes, values, message",
        [
            (np.array([[0.0], [1.0]]), np.array([1.0, 1.0]), "int64 array, got float64"),
            (np.array([0, 1]), np.array([1.0, 1.0]), r"got int64 of shape \(2,\)"),
            (np.zeros((2, 3), dtype=np.int64), np.array([1.0, 1.0]), r"shape \(2, 3\)"),
            (np.array([[0], [1]]), np.array([1, 1]), "float64 array of shape"),
            (np.array([[0], [1]]), np.array([1.0]), r"got float64 of shape \(1,\)"),
            (np.zeros((0, 2), dtype=np.int64), np.zeros(0), "non-empty"),
        ],
    )
    def test_dtypes_and_shapes_checked(self, modes, values, message):
        with pytest.raises(ConfigError, match=message):
            SymbolTable(modes, values)

    @pytest.mark.parametrize(
        "modes, named",
        [([[0], [2], [4], [2]], r"\(2,\)"), ([[0, 1], [2, 3], [4, 5], [2, 3]], r"\(2, 3\)")],
    )
    def test_repeated_mode_named(self, modes, named):
        with pytest.raises(ConfigError, match=rf"mode {named} twice"):
            SymbolTable(np.array(modes), np.ones(4))

    def test_equality_is_identity(self):
        table = table_from_dict({(0,): 1.0, (1,): 2.0})
        assert table == table and table != table_from_dict({(0,): 1.0, (1,): 2.0})
        assert LongRangeOp.custom(table) == LongRangeOp.custom(table)

    def test_custom_op_needs_a_table(self):
        with pytest.raises(ConfigError, match="SymbolTable"):
            LongRangeOp.custom({(0,): 1.0})


class TestOperatorNorm:
    def test_identity_symbol_norm_is_one(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        table = {}
        for m1 in range(-4, 4):
            for m2 in range(-4, 4):
                table[(m1, m2)] = 1.0
        op = LongRangeOp.custom(table_from_dict(table))
        assert impulse_response_norm(multiplier_array(op, g), g) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_laplacian_matches_dense_row_sums(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        G = np.linalg.pinv(-dense_laplacian(g))
        oracle = np.max(np.sum(np.abs(G), axis=1))
        mult = multiplier_array(LongRangeOp.inverse_laplacian(), g)
        assert impulse_response_norm(mult, g) == pytest.approx(oracle, abs=1e-10)

    def test_helmholtz_norm_is_one(self):
        # (I - l^2 Lap_h) is an M-matrix mapping 1 -> 1, so its inverse has
        # nonnegative entries with unit row sums.
        g = PeriodicGrid((16,), (1.0,))
        mult = multiplier_array(LongRangeOp.helmholtz(0.5), g)
        assert impulse_response_norm(mult, g) == pytest.approx(1.0, abs=1e-12)

    def test_independent_of_impulse_position(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        op = LongRangeOp.inverse_laplacian()
        norms = []
        for (i, j) in [(0, 0), (3, 5), (7, 1)]:
            impulse = np.zeros(g.shape)
            impulse[i, j] = 1.0
            out = apply_long_range(op, GridField(g, impulse))
            norms.append(np.sum(np.abs(out.values)))
        assert max(norms) - min(norms) <= 1e-12 * max(norms)

    # The norm the conditions read does not depend on the mesh. The inverse
    # Laplacian's creeps to its limit (N = 64 and 128 in 1D differ by 1.05e-3,
    # 32^2 and 64^2 by 1.43e-3), so it is compared from N = 128 in 1D and 64^2 in 2D.
    @pytest.mark.parametrize("dim, n", [(1, 128), (2, 64)])
    def test_inverse_laplacian_norm_is_mesh_independent(self, dim, n):
        norms = []
        for size in (n, 2 * n):
            g = PeriodicGrid((size,) * dim, (1.0,) * dim)
            norms.append(impulse_response_norm(
                multiplier_array(LongRangeOp.inverse_laplacian(), g), g))
        assert norms[0] == pytest.approx(norms[1], rel=1e-3)

    @pytest.mark.parametrize("op", [LongRangeOp.helmholtz(0.1), LongRangeOp.garnet_film(1.0)],
                             ids=["helmholtz", "garnet_film"])
    @pytest.mark.parametrize("dim, n", [(1, 128), (2, 64)])
    def test_smoothing_operator_norm_is_one_at_every_mesh(self, op, dim, n):
        for size in (n, 2 * n):
            g = PeriodicGrid((size,) * dim, (1.0,) * dim)
            assert impulse_response_norm(multiplier_array(op, g), g) == pytest.approx(1.0, abs=1e-12)

    def test_none_kind_rejected(self):
        g = PeriodicGrid((8,), (1.0,))
        with pytest.raises(ConfigError):
            multiplier_array(LongRangeOp.none(), g)
