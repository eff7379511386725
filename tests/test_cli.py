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
