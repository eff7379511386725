import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pacok
from pacok.errors import ConfigError
from pacok.experiments import count_bumps
from pacok.grid import GridField, PeriodicGrid


def test_import_leaves_scipy_unloaded():
    # scipy costs most of the import time and only count_bumps uses it.
    src = str(Path(pacok.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import pacok, pacok.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


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
        assert count_bumps(GridField.constant(g, 0.0)) == 0
        assert count_bumps(GridField.constant(g, 1.0)) == 1

    def test_threshold_checked(self):
        g = PeriodicGrid((8,), (1.0,))
        with pytest.raises(ConfigError):
            count_bumps(GridField.constant(g, 0.5), threshold=1.0)
