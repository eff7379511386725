"""Two reference runs against the series they wrote when their data was made.

``data/readme_32_series.csv`` is the ``series.csv`` of ``pacok run`` on the
certified 32^2 config of the README, and ``data/g500_t1_series.csv`` the
series of ``coarsening_run(1, "g500", t_end=1.0, tol=0.0)``, which ends with
4 bumps.  A change that keeps the program's results keeps these: ``n`` and
``t`` exactly, every other column within 1e-12 relative.
"""

from pathlib import Path

import pytest

from pacok import cli
from pacok.config import read_series
from pacok.experiments import coarsening_run

DATA = Path(__file__).resolve().parent / "data"

README_32 = """\
epsilon = 0.15625
gamma = 200.0
M = 1000.0
omega = 0.3
kappa = 4500.0
tau = 1e-3
N = 32,32
X = 1.0,1.0
T = 0.02
tol = 0.0
snapshot_times = 0.0,0.01,0.02
"""


def assert_same_series(records, reference):
    expected = read_series(DATA / reference)
    assert [(r.n, r.t) for r in records] == [(r.n, r.t) for r in expected]
    for got, want in zip(records, expected):
        for name in ("phi_min", "phi_max", "energy", "increment"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0)


def test_the_readme_run_writes_its_reference_series(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(README_32)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert_same_series(read_series(out / "series.csv"), "readme_32_series.csv")


def test_a_g500_coarsening_to_t_1_gives_its_reference_series_and_bump_count():
    result = coarsening_run(1, "g500", t_end=1.0, tol=0.0)
    assert result.bump_count == 4
    assert_same_series(result.records, "g500_t1_series.csv")
