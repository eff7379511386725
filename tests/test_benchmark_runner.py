"""The names the benchmark's runner binds in its own process.

``perfbench/run.py`` checks every invocation's outputs against the numpy
reference, and for ``custom-op-2d`` its ``prepare`` imports the program:
``PeriodicGrid``, ``LongRangeOp.custom``, ``load_symbol_csv`` and
``multiplier_array`` build the tabulated symbol it compares with the closed
form, and ``pacok.cli.main`` runs the built-in operator its output is checked
against.  These tests load the runner as a module, put its run directories
under ``tmp_path``, and take ``record-2d`` and ``custom-op-2d`` through
``prepare`` and one untraced invocation, so that the output checks (bounds,
decay, snapshot energies against the reference, the custom field against the
built-in one) and those names fail here and not in every benchmark run.
"""

import importlib.util
import signal
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def runner(monkeypatch, tmp_path):
    """perfbench/run.py as a module whose runs go under ``tmp_path``.

    sys.path, which the runner and its ``prepare`` extend, and the SIGALRM
    handler, which each invocation sets, are restored afterwards.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))   # run.py imports reference.py
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RUNS_DIR", str(tmp_path))
    alarm = signal.getsignal(signal.SIGALRM)
    yield module
    signal.signal(signal.SIGALRM, alarm)


@pytest.mark.parametrize("workload", ["record-2d", "custom-op-2d"])
def test_the_benchmark_runner_checks_an_invocation(runner, workload):
    bench = runner.Bench(workload, 3)
    bench.prepare()
    sample = bench.invoke(0, traced=False)   # raises CheckFailed on a wrong output
    assert set(sample) == set(runner.END_TO_END)
    assert all(value > 0 for value in sample.values())
