import math

import numpy as np
import pytest

from pacok.errors import ConfigError, FieldValueError, GridMismatchError
from pacok.grid import (
    GridField,
    PeriodicGrid,
    inner_product_h,
    load_snapshot,
    norm_l2_h,
    save_snapshot,
)

from oracles import mean_h, norm_linf_h


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return GridField(grid, rng.uniform(-1.0, 1.0, size=grid.shape))


class TestPeriodicGrid:
    def test_geometry_2d(self):
        g = PeriodicGrid((8, 16), (1.0, 2.0))
        assert g.dim == 2
        assert g.spacings == (0.25, 0.25)
        assert g.cell_measure == 0.0625
        assert g.measure == 8.0
        # total measure equals dx * number of cells to machine precision
        assert g.cell_measure * g.num_cells == pytest.approx(g.measure, rel=1e-15)

    def test_num_cells_is_a_python_product(self, monkeypatch):
        # Read once per time step; a product of at most two ints needs no numpy call.
        def no_numpy(*args, **kwargs):
            raise AssertionError("np.prod called")

        monkeypatch.setattr(np, "prod", no_numpy)
        for sizes, cells in (((8,), 8), ((8, 16), 128), ((256, 256), 65536)):
            n = PeriodicGrid(sizes, (1.0,) * len(sizes)).num_cells
            assert type(n) is int and n == cells

    def test_coordinates_cover_half_open_box(self):
        g = PeriodicGrid((8,), (1.0,))
        (x,) = g.coordinates()
        assert x[0] == -1.0
        assert x[-1] == pytest.approx(1.0 - 0.25)

    @pytest.mark.parametrize("sizes", [(7,), (2,), (8, 9), (0,)])
    def test_rejects_bad_sizes(self, sizes):
        with pytest.raises(ConfigError):
            PeriodicGrid(sizes, (1.0,) * len(sizes))

    @pytest.mark.parametrize("sizes, message", [
        ((16.7,), "grid size must be an even integer >= 4, got 16.7"),
        ((2**62,), "grid size (4611686018427387904,) has more points than an array can hold"),
        ((10**23,), "grid size (100000000000000000000000,) has more points than an array can hold"),
        ((2**31, 2**31), "grid size (2147483648, 2147483648) has more points than an array can hold"),
    ], ids=["fraction", "huge", "beyond-int64", "huge-2d"])
    def test_rejects_a_size_that_is_not_an_integer_or_does_not_fit_an_array(self, sizes, message):
        with pytest.raises(ConfigError) as exc_info:
            PeriodicGrid(sizes, (1.0,) * len(sizes))
        assert str(exc_info.value) == message

    def test_a_size_whose_arrays_fit_is_kept(self):
        assert PeriodicGrid((2**58,), (1.0,)).sizes == (2**58,)

    def test_rejects_3d(self):
        with pytest.raises(ConfigError):
            PeriodicGrid((8, 8, 8), (1.0, 1.0, 1.0))

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ConfigError):
            PeriodicGrid((8,), (0.0,))


class TestGridField:
    def test_rejects_nan(self):
        g = PeriodicGrid((4,), (1.0,))
        values = np.zeros(4)
        values[2] = np.nan
        with pytest.raises(FieldValueError):
            GridField(g, values)

    def test_rejects_shape_mismatch(self):
        g = PeriodicGrid((4, 4), (1.0, 1.0))
        with pytest.raises(GridMismatchError):
            GridField(g, np.zeros((4, 5)))

    def test_values_read_only(self):
        g = PeriodicGrid((4,), (1.0,))
        f = GridField(g, np.full(g.shape, 1.0))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_flat_values_accepted(self):
        g = PeriodicGrid((4, 4), (1.0, 1.0))
        f = GridField(g, np.arange(16.0))
        assert np.array_equal(f.values, np.arange(16.0).reshape(4, 4))


class TestInnerProduct:
    def test_constant_fields_give_measure(self):
        g = PeriodicGrid((32, 32), (1.0, 1.0))
        one = GridField(g, np.full(g.shape, 1.0))
        assert inner_product_h(one, one) == pytest.approx(4.0, abs=1e-13)

    def test_zero_field(self):
        g = PeriodicGrid((16,), (1.0,))
        c = GridField(g, np.full(g.shape, 3.7))
        z = GridField(g, np.full(g.shape, 0.0))
        assert inner_product_h(c, z) == 0.0

    def test_sine_quadrature(self):
        # Periodic quadrature of sin^2(pi x) over [-1, 1) is exactly half the
        # measure for any even grid that resolves the mode.  Frozen from the
        # direct-summation oracle: h * fsum(sin^2) = 1.0.
        g = PeriodicGrid((64,), (1.0,))
        (x,) = g.coordinates()
        s = GridField(g, np.sin(np.pi * x))
        oracle = g.cell_measure * math.fsum(v * v for v in s.values)
        assert oracle == pytest.approx(g.measure / 2, abs=1e-13)
        assert abs(inner_product_h(s, s) - 1.0) <= 1e-12

    def test_matches_fsum_oracle(self):
        g = PeriodicGrid((16, 12), (1.5, 1.0))
        a = random_field(g, 2)
        b = random_field(g, 3)
        oracle = g.cell_measure * math.fsum(
            ai * bi for ai, bi in zip(a.values.ravel(), b.values.ravel())
        )
        assert inner_product_h(a, b) == pytest.approx(oracle, rel=1e-14, abs=1e-15)

    def test_grid_mismatch_raises(self):
        a = GridField(PeriodicGrid((8,), (1.0,)), np.full(8, 1.0))
        b = GridField(PeriodicGrid((16,), (1.0,)), np.full(16, 1.0))
        with pytest.raises(GridMismatchError):
            inner_product_h(a, b)

    def test_bilinear_and_symmetric(self):
        g = PeriodicGrid((32, 32), (1.0, 2.0))
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = GridField(g, rng.standard_normal(g.shape))
            b = GridField(g, rng.standard_normal(g.shape))
            c = GridField(g, rng.standard_normal(g.shape))
            al, be = rng.standard_normal(2)
            lhs = inner_product_h(GridField(g, al * a.values + be * b.values), c)
            rhs = al * inner_product_h(a, c) + be * inner_product_h(b, c)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) / scale < 1e-12
            assert inner_product_h(a, b) == pytest.approx(inner_product_h(b, a), rel=1e-12)

    def test_cauchy_schwarz_1000_pairs(self):
        g = PeriodicGrid((16,), (1.0,))
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = GridField(g, rng.standard_normal(g.shape))
            b = GridField(g, rng.standard_normal(g.shape))
            assert abs(inner_product_h(a, b)) <= norm_l2_h(a) * norm_l2_h(b) * (1 + 1e-12)

    def test_pairwise_summation_quality_on_256sq(self):
        g = PeriodicGrid((256, 256), (1.0, 1.0))
        a = random_field(g, 5)
        b = random_field(g, 6)
        lhs = inner_product_h(a, b)
        rhs = inner_product_h(b, a)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestNorms:
    def test_l2_constant(self):
        g = PeriodicGrid((16, 16), (1.0, 1.0))
        assert norm_l2_h(GridField(g, np.full(g.shape, 0.0))) == 0.0
        assert norm_l2_h(GridField(g, np.full(g.shape, 1.0))) == pytest.approx(2.0, abs=1e-13)

    def test_l2_matches_fsum(self):
        g = PeriodicGrid((24,), (2.0,))
        a = random_field(g, 8)
        oracle = math.sqrt(g.cell_measure * math.fsum(v * v for v in a.values.ravel()))
        assert norm_l2_h(a) == pytest.approx(oracle, rel=1e-14)

    def test_linf(self):
        g = PeriodicGrid((8,), (1.0,))
        assert norm_linf_h(GridField(g, np.full(g.shape, -0.3))) == pytest.approx(0.3)
        v = np.zeros(8)
        v[3] = 5.0
        assert norm_linf_h(GridField(g, v)) == 5.0
        a = random_field(g, 9)
        assert norm_linf_h(a) == max(abs(x) for x in a.values)

    def test_mean(self):
        g = PeriodicGrid((32,), (1.0,))
        assert mean_h(GridField(g, np.full(g.shape, 0.7))) == pytest.approx(0.7, abs=1e-14)
        (x,) = g.coordinates()
        assert abs(mean_h(GridField(g, np.sin(np.pi * x)))) <= 1e-14
        a = random_field(g, 10)
        oracle = g.cell_measure * math.fsum(a.values) / g.measure
        assert mean_h(a) == pytest.approx(oracle, rel=1e-13, abs=1e-16)

    def test_recentered_field_has_zero_mean(self):
        g = PeriodicGrid((64, 64), (1.0, 1.0))
        a = random_field(g, 12)
        centered = GridField(g, a.values - mean_h(a))
        assert abs(mean_h(centered)) <= 1e-13 * norm_linf_h(a)


class TestSnapshots:
    def test_round_trip_2d(self, tmp_path):
        g = PeriodicGrid((8, 6), (1.0, 1.5))
        f = random_field(g, 13)
        path = tmp_path / "snap.csv"
        save_snapshot(path, f, t=0.125)
        loaded, t = load_snapshot(path)
        assert t == 0.125
        assert loaded.grid == g
        assert np.array_equal(loaded.values, f.values)

    @pytest.mark.parametrize("sizes", [(4,), (4100,), (8, 6), (128, 66)])
    def test_bytes_match_one_joined_string(self, tmp_path, sizes):
        # The former writer: every value formatted into one list, joined once.
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        rng = np.random.default_rng(len(sizes))
        v = rng.uniform(-1.0, 1.0, size=g.shape) * 10.0 ** rng.integers(-300, 300, size=g.shape)
        v.flat[:4] = (-0.0, 0.0, 1.0, 5e-324)
        f = GridField(g, v)
        path = tmp_path / "snap.csv"
        save_snapshot(path, f, t=0.1)
        header = f"# pacok-grid v1 dim={g.dim} N={','.join(map(str, sizes))} X={','.join('1' for _ in sizes)} t=0.10000000000000001"
        lines = [header] + [f"{x:.17g}" for x in f.values.ravel()]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_header_format(self, tmp_path):
        g = PeriodicGrid((4, 4), (1.0, 1.0))
        path = tmp_path / "snap.csv"
        save_snapshot(path, GridField(g, np.full(g.shape, 0.5)), t=2.0)
        header = path.read_text().splitlines()[0]
        assert header == "# pacok-grid v1 dim=2 N=4,4 X=1,1 t=2"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("nonsense\n1.0\n")
        with pytest.raises(ConfigError):
            load_snapshot(path)

    def test_rejects_truncated_file(self, tmp_path):
        g = PeriodicGrid((4,), (1.0,))
        path = tmp_path / "snap.csv"
        save_snapshot(path, GridField(g, np.full(g.shape, 1.0)))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ConfigError):
            load_snapshot(path)
