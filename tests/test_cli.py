import re
from dataclasses import replace

import pytest

from pacok import cli, experiments


@pytest.fixture
def short_presets(monkeypatch):
    """Presets cut to five steps; everything the conditions depend on is kept."""
    real = experiments.coarsening_preset

    def short(name, scale="desk"):
        preset = real(name, scale)
        return replace(preset, t_end=5 * preset.tau, snapshot_times=(0.0,))

    monkeypatch.setattr(experiments, "coarsening_preset", short)


@pytest.mark.parametrize(
    "dim, preset, bounds, decay",
    [(1, "g500", "yes", "no"), (2, "g1000_2d", "no", "no")],
)
def test_coarsen_reports_certification(short_presets, capsys, dim, preset, bounds, decay):
    assert cli.main(["coarsen", "--dim", str(dim), "--preset", preset]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith(f"preset {preset} (desk): n=5 ")
    match = re.search(r"certified: bounds=(\w+) decay=(\w+)$", line)
    assert match is not None, line
    assert match.groups() == (bounds, decay)


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


# The 128^2 g1000_2d coarsening physics, which the conditions do not certify.
G1000_128 = """\
epsilon = 0.15625
gamma = 1000.0
M = 10000.0
omega = 0.15
kappa = 2000.0
tau = 2e-4
N = 128,128
X = 1.0,1.0
T = 0.004
tol = 0.0
monitor_every = 100
"""


def test_run_blowup_exits_4_with_its_step(tmp_path, capsys):
    # Seed 1 leaves [0, 1] and overflows at step 8, inside the run's kernel.
    path = write_config(tmp_path, G1000_128 + "seed = 1\n")
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: blowup: ")
    assert "step 8" in err


@pytest.mark.parametrize("line", ["scale = desk", "resolution = 64"])
def test_unknown_config_key_exits_2(tmp_path, capsys, line):
    path = write_config(tmp_path, line + "\n")
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    key = line.split(" = ")[0]
    assert f"unknown key '{key}'" in capsys.readouterr().err


def test_check_of_an_uncertified_guarantee_exits_3(tmp_path, capsys):
    # The defaults (1D, kappa = 2000) certify the bounds but not energy decay.
    path = write_config(tmp_path, "tau = 1e-3\n")
    assert cli.main(["check", "--config", path, "--require", "mpp"]) == 0
    assert cli.main(["check", "--config", path, "--require", "both"]) == 3
    assert "requested guarantee 'both' is not satisfied" in capsys.readouterr().err
