import numpy as np
import pytest

from pacok.errors import ConfigError
from pacok.grid import GridField, PeriodicGrid, inner_product_h, mean_h, norm_linf_h
from pacok.spectral import (
    _custom_multiplier,
    LongRangeOp,
    OpKind,
    apply_inv_neg_laplacian,
    apply_laplacian,
    apply_long_range,
    estimate_linf_norm,
    load_symbol_csv,
    multiplier_array,
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
        out = apply_laplacian(GridField.constant(g, 3.2))
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


class TestInverseLaplacian:
    def test_constants_map_to_zero(self):
        g = PeriodicGrid((16,), (1.0,))
        out = apply_inv_neg_laplacian(GridField.constant(g, 5.0))
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
            apply_long_range(LongRangeOp.none(), GridField.constant(g, 1.0))

    def test_helmholtz_preserves_constants(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        op = LongRangeOp.helmholtz(0.3)
        out = apply_long_range(op, GridField.constant(g, 0.7))
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
        op = LongRangeOp.custom(self.full_mode_table(8, lambda m: 1.0))
        a = random_field(g, 28)
        out = apply_long_range(op, a)
        assert np.max(np.abs(out.values - a.values)) <= 1e-14

    def test_missing_mode_raises(self):
        g = PeriodicGrid((8,), (1.0,))
        table = self.full_mode_table(8, lambda m: 1.0)
        del table[(3,)]
        with pytest.raises(ConfigError, match="mode"):
            apply_long_range(LongRangeOp.custom(table), random_field(g, 29))

    def test_uneven_symbol_rejected(self):
        g = PeriodicGrid((8,), (1.0,))
        table = self.full_mode_table(8, lambda m: 1.0)
        table[(3,)] = 2.0
        with pytest.raises(ConfigError, match="even"):
            apply_long_range(LongRangeOp.custom(table), random_field(g, 30))

    def test_negative_symbol_rejected(self):
        with pytest.raises(ConfigError):
            LongRangeOp.custom({(0,): -1.0})

    def test_csv_loader(self, tmp_path):
        path = tmp_path / "symbol.csv"
        path.write_text("# comment\n0,0,1.0\n1,-1,0.5\n")
        table = load_symbol_csv(path)
        assert table == {(0, 0): 1.0, (1, -1): 0.5}

    def test_csv_loader_rejects_garbage(self, tmp_path):
        path = tmp_path / "symbol.csv"
        path.write_text("a,b\n")
        with pytest.raises(ConfigError):
            load_symbol_csv(path)

    @pytest.mark.parametrize(
        "text, table",
        [
            ("0,1.0\n 1 , 0.5 \n# c\n\n-1,0.5\n", {(0,): 1.0, (1,): 0.5, (-1,): 0.5}),
            ("0,0,1.0\n0,0,2.0\n", {(0, 0): 2.0}),
            ("0,1.0\n1,-1,0.5\n", {(0,): 1.0, (1, -1): 0.5}),
            ("1_000,1_0.5\n3,inf\n", {(1000,): 10.5, (3,): np.inf}),
            ("99999999999999999999,1\n", {(99999999999999999999,): 1.0}),
        ],
    )
    def test_csv_loader_reads_like_python(self, tmp_path, text, table):
        path = tmp_path / "symbol.csv"
        path.write_text(text)
        loaded = load_symbol_csv(path)
        assert loaded == table
        assert all(type(m) is int for mode in loaded for m in mode)
        assert all(type(v) is float for v in loaded.values())

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,1.0\n1,2,3,4\n", r":2: expected"),
            ("# c\n0,0,1.0\n\n1,1.5,1.0\n", r":4: malformed"),
            ("0,1.0 # note\n", r":1: malformed"),
            ("0,0,1.0\n0,,1.0\n", r":2: malformed"),
            ("# only a comment\n\n", r"empty symbol table"),
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
    return _custom_multiplier(LongRangeOp.custom(table), grid)


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
    def test_out_of_range_and_other_dimension_entries_ignored(self, sizes):
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        table = random_even_table(sizes, 3)
        expected = loop_custom_multiplier(table, g)
        extra = dict(table)
        n0 = sizes[0]
        rest = (0,) * (len(sizes) - 1)
        extra[(n0 // 2,) + rest] = 7.0           # +n/2 wraps to -n/2: out of range
        extra[(-n0 // 2 - 1,) + rest] = 7.0
        extra[(10**30,) + rest] = 7.0            # beyond int64
        extra[(0,) * (len(sizes) % 2 + 1)] = 9.0  # the other dimension
        extra[(1, 2, 3)] = 9.0
        assert np.array_equal(array_builder(extra, g), expected)
        assert np.array_equal(loop_custom_multiplier(extra, g), expected)

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

    def test_repeated_calls_share_one_read_only_array(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        op = LongRangeOp.custom(random_even_table((8, 8), 6))
        first = multiplier_array(op, g)
        assert multiplier_array(op, g) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_different_tables_never_share_a_cache_entry(self):
        # The op's hash leaves the table out, so these ops collide by design.
        g = PeriodicGrid((6, 10), (1.0, 1.0))
        a = LongRangeOp.custom(random_even_table((6, 10), 7))
        b = LongRangeOp.custom(random_even_table((6, 10), 8))
        assert hash(a) == hash(b) and a != b
        mult_a = multiplier_array(a, g)
        mult_b = multiplier_array(b, g)
        assert np.array_equal(mult_a, loop_custom_multiplier(a.symbol, g))
        assert np.array_equal(mult_b, loop_custom_multiplier(b.symbol, g))
        assert not np.array_equal(mult_a, mult_b)

    def test_invalid_table_is_not_cached(self):
        g = PeriodicGrid((8,), (1.0,))
        table = {(m,): 1.0 for m in range(-4, 4)}
        table[(3,)] = 2.0
        op = LongRangeOp.custom(table)
        for _ in range(2):
            with pytest.raises(ConfigError, match="even"):
                multiplier_array(op, g)


class TestCustomTableNormalisation:
    def test_scalar_and_numpy_modes(self):
        op = LongRangeOp.custom({1: 2, np.int64(-1): 2.0, (0,): np.float64(1.5)})
        assert op.symbol == {(1,): 2.0, (-1,): 2.0, (0,): 1.5}
        assert all(type(m) is int for mode in op.symbol for m in mode)
        assert all(type(v) is float for v in op.symbol.values())

    def test_mixed_dimensions_and_float_modes(self):
        op = LongRangeOp.custom({(1,): 1, (1, -2): 2, (2.7, 0): 3})
        assert op.symbol == {(1,): 1.0, (1, -2): 2.0, (2, 0): 3.0}
        assert all(type(m) is int for mode in op.symbol for m in mode)

    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_first_bad_value_named(self, bad):
        table = {(0,): 1.0, (1,): bad, (2,): -5.0}
        with pytest.raises(ConfigError, match=r"got .* at mode \(1,\)"):
            LongRangeOp.custom(table)


class TestOperatorNorm:
    def test_identity_symbol_norm_is_one(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        table = {}
        for m1 in range(-4, 4):
            for m2 in range(-4, 4):
                table[(m1, m2)] = 1.0
        assert estimate_linf_norm(LongRangeOp.custom(table), g) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_laplacian_matches_dense_row_sums(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        G = np.linalg.pinv(-dense_laplacian(g))
        oracle = np.max(np.sum(np.abs(G), axis=1))
        assert estimate_linf_norm(LongRangeOp.inverse_laplacian(), g) == pytest.approx(
            oracle, abs=1e-10
        )

    def test_helmholtz_norm_is_one(self):
        # (I - l^2 Lap_h) is an M-matrix mapping 1 -> 1, so its inverse has
        # nonnegative entries with unit row sums.
        g = PeriodicGrid((16,), (1.0,))
        assert estimate_linf_norm(LongRangeOp.helmholtz(0.5), g) == pytest.approx(1.0, abs=1e-12)

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

    def test_none_kind_rejected(self):
        g = PeriodicGrid((8,), (1.0,))
        with pytest.raises(ConfigError):
            estimate_linf_norm(LongRangeOp.none(), g)
