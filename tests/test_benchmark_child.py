"""The names the benchmark's child process binds in the program.

``perfbench/child.py`` times the first call of ``stepping.step``, wraps
``experiments.run`` (which must return ``(state, records)``) and
``check_conditions`` in ``stepping`` and ``experiments``, and calls
``experiments.coarsening_run`` by keyword, reading ``.bump_count``.  These
tests run the child as ``perfbench/run.py`` does, in a fresh process with
its own directory and no PYTHONPATH, untraced and traced, so that a change
to one of those names fails here and not in every benchmark invocation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"

# The certified 2D README run on a 16^2 grid, for five steps.
CERTIFIED_16 = """\
epsilon = 0.15625
gamma = 200.0
M = 1000.0
omega = 0.3
kappa = 4500.0
tau = 1e-3
N = 16,16
X = 1.0,1.0
T = 0.005
tol = 0.0
"""


def invoke(out, spec, traced):
    """Run the child on ``spec`` in ``out``; its result.json."""
    out.mkdir()
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(spec_path), str(out), "1" if traced else "0"],
        cwd=out, env=dict(os.environ, PYTHONPATH=""), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "spans.json").exists() == traced
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    assert result["first_step"] <= result["run_end"]
    return result


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_the_benchmark_child_runs_a_certified_config(tmp_path, traced):
    config = tmp_path / "certified.cfg"
    config.write_text(CERTIFIED_16, encoding="utf-8")
    out = tmp_path / "out"
    result = invoke(out, {"entry": "cli", "argv": ["run", "--config", str(config),
                                                   "--out", str(out)]}, traced)
    assert result["steps"] == 5
    assert result["reports"][0] == [True, True]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_the_benchmark_child_runs_a_coarsening(tmp_path, traced):
    spec = {"entry": "coarsening_run", "save_first_step": True,
            "kwargs": {"dimension": 1, "preset": "g500", "t_end": 0.02, "tol": 0.0,
                       "record_every": 10, "seed": 3}}
    out = tmp_path / "out"
    result = invoke(out, spec, traced)
    assert result["steps"] == 20
    assert isinstance(result["bump_count"], int)
    assert (out / "first_step.npy").exists()
