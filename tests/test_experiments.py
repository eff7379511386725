import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacok
from pacok.config import RunConfig
from pacok.experiments import (
    RATE_STUDY,
    SOLVATION,
    coarsening_run,
    count_bumps,
    pvism_compare,
    rate_study,
    run_config,
)
from pacok.grid import GridField, PeriodicGrid, load_snapshot
from pacok.stepping import MPP_TOL


def test_import_and_runs_leave_scipy_and_numpy_random_unloaded(tmp_path):
    # scipy is a test dependency only, and the random start draws its values
    # without numpy.random: importing pacok, a coarsening study with its bubble
    # count and a `pacok run` from a random start must load neither.
    src = str(Path(pacok.__file__).resolve().parents[1])
    config = tmp_path / "run.cfg"
    config.write_text("N = 16,16\nX = 1.0,1.0\nT = 0.002\ninitial = random\nblocks = 4\n")
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import pacok, pacok.cli; "
        "from pacok.experiments import coarsening_run; "
        "coarsening_run(1, 'g500', t_end=0.005); "
        "coarsening_run(2, 'g1000_2d', scale='paper', t_end=0.001, tol=0.0); "
        f"assert pacok.cli.main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m.startswith('numpy.random')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"


# numpy's C code may compute lo + range * u as one fused multiply-add where
# the hardware has one; x86-64 builds do not, so there the package's stream
# must equal numpy's bit for bit.
numpy_oracle = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="numpy's uniform is the bitwise oracle on x86-64 only",
)


def assert_is_numpy_stream(sizes, lo, hi, blocks, seed):
    cfg = RunConfig(N=sizes, X=(1.0,) * len(sizes), lo=lo, hi=hi, blocks=blocks, seed=seed)
    field = cfg.build_initial().values
    expected = np.random.default_rng(seed).uniform(lo, hi, (blocks,) * len(sizes))
    for axis, n in enumerate(sizes):
        expected = np.repeat(expected, n // blocks, axis=axis)
    assert field.shape == expected.shape
    assert field.tobytes() == expected.tobytes()


@numpy_oracle
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 + 5, 2**200 + 1])
@pytest.mark.parametrize("lo, hi", [(0.0, 0.8), (-2.5, 1e3), (0.3, 0.3)])
@pytest.mark.parametrize("sizes, blocks", [((64,), 16), ((32, 16), 8)])
def test_random_start_is_the_default_rng_uniform_stream(sizes, blocks, lo, hi, seed):
    assert_is_numpy_stream(sizes, lo, hi, blocks, seed)


@numpy_oracle
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**300),
    ends=st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2),
    dim=st.sampled_from([1, 2]),
    blocks=st.sampled_from([1, 2, 4]),
)
def test_random_start_matches_numpy_for_any_seed_and_range(seed, ends, dim, blocks):
    lo, hi = sorted(ends)
    assert_is_numpy_stream((8,) * dim, lo, hi, blocks, seed)


def scipy_count(mask):
    """Oracle: scipy.ndimage.label, then the labels that meet across a wrap
    seam merged with union-find; 1D counts circular runs by their rises."""
    if mask.ndim == 1:
        if not mask.any():
            return 0
        m = mask.astype(np.int8)
        rises = int(np.sum((m - np.roll(m, 1)) == 1))
        return rises if rises > 0 else 1
    ndimage = pytest.importorskip("scipy.ndimage")
    labels, count = ndimage.label(mask)
    parent = list(range(count + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j in range(mask.shape[1]):
        if mask[0, j] and mask[-1, j]:
            parent[find(labels[-1, j])] = find(labels[0, j])
    for i in range(mask.shape[0]):
        if mask[i, 0] and mask[i, -1]:
            parent[find(labels[i, -1])] = find(labels[i, 0])
    return len({find(label) for label in range(1, count + 1)})


def snake(n):
    """One component winding through every other row of an n x n grid."""
    mask = np.zeros((n, n), dtype=bool)
    mask[: n - 1 : 2, 1:-1] = True
    for i in range(1, n - 2, 2):
        mask[i, -2 if (i // 2) % 2 == 0 else 1] = True
    return mask


class TestCountBumps:
    def test_bubble_across_both_seams_counts_once(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        v = np.zeros(g.shape)
        v[np.ix_([0, 7], [0, 7])] = 1.0
        v[3:5, 3:5] = 1.0
        assert count_bumps(GridField(g, v)) == 2

    def test_run_across_the_1d_seam_counts_once(self):
        g = PeriodicGrid((16,), (1.0,))
        v = np.zeros(g.shape)
        v[[0, 1, 15]] = 1.0
        v[6:9] = 1.0
        assert count_bumps(GridField(g, v)) == 2

    def test_empty_and_full(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        assert count_bumps(GridField(g, np.full(g.shape, 0.0))) == 0
        assert count_bumps(GridField(g, np.full(g.shape, 1.0))) == 1

    @pytest.mark.parametrize("sizes", [(4,), (16,), (50,), (4, 4), (8, 8), (6, 10), (32, 32)])
    def test_matches_scipy_oracle_on_random_masks(self, sizes):
        g = PeriodicGrid(sizes, (1.0,) * len(sizes))
        rng = np.random.default_rng(sum(sizes))
        for density in (0.1, 0.3, 0.5, 0.6, 0.8, 0.95):
            for _ in range(5):
                values = (rng.random(g.shape) < density).astype(float)
                assert count_bumps(GridField(g, values)) == scipy_count(values > 0.5)

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_snake_is_one_component(self, n):
        mask = snake(n)
        g = PeriodicGrid((n, n), (1.0, 1.0))
        assert count_bumps(GridField(g, mask.astype(float))) == scipy_count(mask) == 1
        cut = mask.copy()
        cut[0, n // 2] = False
        assert count_bumps(GridField(g, cut.astype(float))) == scipy_count(cut) == 2

    def test_seams_match_scipy_oracle(self):
        g = PeriodicGrid((8, 8), (1.0, 1.0))
        for mask in (
            np.eye(8, dtype=bool),                  # a diagonal: 4-adjacency keeps it apart
            np.add.outer(range(8), range(8)) % 8 == 7,
            np.isin(np.arange(64).reshape(8, 8) % 8, (0, 7)),   # columns meeting at the seam
            np.isin(np.arange(64).reshape(8, 8) // 8, (0, 7)),  # rows meeting at the seam
        ):
            assert count_bumps(GridField(g, mask.astype(float))) == scipy_count(mask)


def test_successive_difference_rate_is_first_order():
    # Paper claim: the scheme is first order in time.  The successive-difference
    # rates need no benchmark run: 0.82, 0.93, 0.97 at N = 64, eps = 10h.
    setup = replace(RATE_STUDY, N=(64, 64), epsilon=10 * 2.0 / 64)
    result = rate_study(1e-4, 5, 4e-6, setup)
    assert len(result.rates) == 4 and len(result.successive_rates) == 3
    assert 0.9 <= result.successive_rates[-1] <= 1.1


def test_a_shortened_preset_drops_the_snapshot_times_beyond_its_horizon(tmp_path):
    # g500 snapshots at 0, 10, 50 and 100; cut to t = 0.01 only t = 0 is left,
    # and the final state is the second file.
    result = coarsening_run(1, "g500", t_end=0.01, out_dir=str(tmp_path))
    assert (result.config.T, result.config.snapshot_times) == (0.01, (0.0,))
    assert sorted(f.name for f in tmp_path.glob("snap_*.csv")) == ["snap_000.csv", "snap_001.csv"]
    assert load_snapshot(tmp_path / "snap_000.csv")[1] == 0.0
    assert load_snapshot(tmp_path / "snap_001.csv")[1] == result.final.time


@pytest.mark.slow
def test_desk_1d_coarsening_keeps_the_maximum_principle():
    # Paper claim at desk scale: the certified g500 run (100000 steps, about
    # 7 s) keeps phi in [0, 1]; here it stays in [1.4e-10, 0.99982].
    result = coarsening_run(1, "g500", "desk", tol=0.0)
    assert result.report.mpp_ok
    assert result.final.step_index == 100_000
    for record in result.records:
        assert -MPP_TOL <= record.phi_min and record.phi_max <= 1.0 + MPP_TOL


@pytest.fixture(scope="module")
def solvation():
    return pvism_compare(1e-4, 0.5)


def test_solvation_cubic_indicator_stays_in_bounds_and_linear_leaves_them(solvation):
    # Paper claim: with the cubic f the solvation run stays in [0, 1]; with
    # the linear f = s it leaves [0, 1] on both sides (min -0.0106, max 1.0021).
    lo, hi = solvation.cubic_bounds
    assert -MPP_TOL <= lo and hi <= 1.0 + MPP_TOL
    lo, hi = solvation.linear_bounds
    assert lo < -1e-3 and hi > 1.0 + 1e-3


@pytest.mark.parametrize("f", ["cubic", "linear"])
def test_each_half_of_the_solvation_comparison_is_a_run_of_its_config(solvation, f):
    _, state, _ = run_config(replace(SOLVATION, tau=1e-4, T=0.5, f=f))
    final = {"cubic": solvation.cubic_final, "linear": solvation.linear_final}[f]
    assert np.array_equal(state.phi.values, final.phi.values)
    assert (state.step_index, state.time) == (final.step_index, final.time)
