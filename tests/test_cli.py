import itertools
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pacok import cli, experiments, spectral
from pacok.config import RunConfig, format_config
from pacok.errors import ConfigError
from pacok.grid import load_snapshot


@pytest.fixture
def short_presets(monkeypatch):
    """Presets cut to five steps; everything the conditions depend on is kept."""
    real = experiments.coarsening_preset

    def short(name, scale="desk"):
        preset = real(name, scale)
        return replace(preset, T=5 * preset.tau, snapshot_times=(0.0,))

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


def test_run_of_a_formatted_preset_writes_what_coarsen_writes(tmp_path):
    preset = experiments.coarsening_preset("g500")
    t_end = 5 * preset.tau
    cfg = replace(preset, T=t_end, seed=3,
                  snapshot_times=tuple(t for t in preset.snapshot_times if t <= t_end))
    path = write_config(tmp_path, format_config(cfg))
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "run")]) == 0
    (tmp_path / "coarsen").mkdir()
    experiments.coarsening_run(1, "g500", seed=3, t_end=t_end, out_dir=str(tmp_path / "coarsen"))
    names = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert names == ["series.csv", "snap_000.csv", "snap_001.csv"]
    assert names == sorted(p.name for p in (tmp_path / "coarsen").iterdir())
    for name in names:
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "coarsen" / name).read_bytes()


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


@pytest.mark.parametrize("text, n", [
    # Seed 1 leaves [0, 1] and overflows at step 8, inside the run's kernel.
    (G1000_128 + "seed = 1\n", 8),
    # The starting energy is finite; the first step's is not.
    ("N = 16\nX = 1e60\n", 1),
], ids=["kernel", "first-step"])
def test_run_blowup_exits_4_with_its_step(tmp_path, capsys, text, n):
    path = write_config(tmp_path, text)
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: blowup: ")
    assert f"step {n}" in err


HUGE_1D, HUGE_2D = "N = 16\nX = 1e150\n", "N = 16,16\nX = 1e150,1e150\n"
AT_T0 = "snapshot_times = 0.0\n"


@pytest.mark.parametrize("text", [HUGE_1D, HUGE_2D, HUGE_1D + AT_T0, HUGE_2D + AT_T0],
                         ids=["1d", "2d", "1d-t0", "2d-t0"])
def test_run_from_a_start_whose_energy_is_not_finite_exits_2(tmp_path, capsys, text):
    # The operator's max-norm on such a box overflows the starting energy.
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: config: the starting field's energy is not finite: total = inf\n")
    assert not out.exists()


def test_energy_of_a_snapshot_whose_energy_is_not_finite_exits_2(tmp_path, capsys):
    snap = tmp_path / "snap.csv"
    snap.write_text("# pacok-grid v1 dim=1 N=16 X=1e150 t=0\n" + "0\n1\n" * 8)
    path = write_config(tmp_path, "N = 16\nX = 1e150\n")
    assert cli.main(["energy", "--config", path, "--snapshot", str(snap)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config: the starting field's energy is not finite: total = inf\n"


@pytest.mark.parametrize("line", ["scale = desk", "resolution = 64"])
def test_unknown_config_key_exits_2(tmp_path, capsys, line):
    path = write_config(tmp_path, line + "\n")
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    key = line.split(" = ")[0]
    assert f"unknown key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["out = somewhere", "pvism.solutes = 0.0"])
def test_a_key_that_is_not_a_field_name_exits_2_and_writes_nothing(
    tmp_path, capsys, monkeypatch, line
):
    # A config describes a run, not where it goes: the output directory is --out.
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, "operator = none\n" + line + "\n")
    assert cli.main(["run", "--config", path, "--out", "out"]) == 2
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == f"error: config: {path}: line 2: unknown key '{key}'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


# Configs whose scheme terms or grid overflow, with what the error names.
OVERFLOWS = {
    "kappa": ("N = 16\nkappa = 1e308\ntau = 10.0\nT = 20.0\n", "kappa/epsilon is not finite"),
    "epsilon": ("epsilon = 1e-310\ninitial = constant\ninitial_value = 0.0\n",
                "36/epsilon is not finite"),
    "tau": ("tau = 1e308\nT = 1e308\n", "1 + tau*kappa/epsilon is not finite"),
    "cells": ("N = 4611686018427387904\n", "has more points than an array can hold"),
    "subnormal-tau": ("tau = 1e-310\nT = 1e-300\n", "1/tau is not finite"),
    "bounds-lhs": ("N = 16\nepsilon = 0.1\nkappa = 1e307\ntau = 5.57e-309\nT = 1e-307\n",
                   "1/tau + kappa/epsilon is not finite"),
}


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("text, named", OVERFLOWS.values(), ids=OVERFLOWS)
def test_a_config_that_overflows_exits_2_and_writes_nothing(
    tmp_path, capsys, monkeypatch, command, text, named
):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, text)
    argv = [command, "--config", path] + (["--out", "out"] if command == "run" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config: {path}: ")
    assert named in captured.err and captured.err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def write_flat_table(directory, value):
    """A 16x16 symbol table, ``symbol.csv`` in ``directory``, with every mode at ``value``."""
    lines = (f"{a},{b},{value}\n" for a in range(-8, 8) for b in range(-8, 8))
    (directory / "symbol.csv").write_text("".join(lines))


CUSTOM_16 = ("N = 16,16\nX = 1.0,1.0\noperator = custom\nop_symbol_file = symbol.csv\n"
             "gamma = 1e-300\nT = 0.002\n")

# Configs whose scheme terms overflow only on their grid, which Problem refuses.
GRID_OVERFLOWS = {
    "denominator": ("tau = 1e305\nepsilon = 1.0\nkappa = 0.0\nT = 1e306\n",
                    "1 + tau*kappa/epsilon + tau*epsilon*lambda_max is not finite for tau=1e+305, "
                    "epsilon=1.0, kappa=0.0, lambda_max=65536.0"),
    "volume": ("tau = 1e300\nM = 1e10\ngamma = 0.0\nT = 1e301\n",
               "6*tau*M is not finite for tau=1e+300, M=10000000000.0"),
    "long-range": ("tau = 1e300\nM = 0.0\ngamma = 1e10\nT = 1e301\n",
                   "6*tau*gamma*max|L| is not finite for tau=1e+300, gamma=10000000000.0, max|L|="),
    # 4/h^2 is 1e308, which the stencil's mirror weights double.
    "stencil-weights": ("N = 16\nX = 1.6e-153\n", "2*lambda_max is not finite for lambda_max=1e+308"),
    # The max-norm of a table at 1e308 sums 256 such values.
    "custom": (CUSTOM_16, "cells*max|L| is not finite for cells=256, max|L|=1e+308"),
}


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("text, named", GRID_OVERFLOWS.values(), ids=GRID_OVERFLOWS)
def test_a_scheme_term_that_overflows_on_its_grid_exits_2_with_no_warning(
    tmp_path, capsys, monkeypatch, command, text, named
):
    monkeypatch.chdir(tmp_path)
    if "symbol.csv" in text:
        write_flat_table(tmp_path, "1e308")
    inputs = sorted(p.name for p in tmp_path.iterdir()) + ["run.cfg"]
    path = write_config(tmp_path, text)
    argv = [command, "--config", path] + (["--out", "out"] if command == "run" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config: {named}")
    assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)


@pytest.mark.parametrize("text, norm", [
    (CUSTOM_16, "1.000000e+304"),
    ("N = 16\nX = 1.6e-151\noperator = none\n", "0.000000e+00"),
], ids=["custom", "stencil-weights"])
def test_a_symbol_ten_thousand_times_below_its_overflow_builds_with_no_warning(
    tmp_path, capsys, monkeypatch, text, norm
):
    monkeypatch.chdir(tmp_path)
    write_flat_table(tmp_path, "1e304")
    path = write_config(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["check", "--config", path, "--require", "none"]) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == ["operator", "max-norm", norm]


def test_an_extension_key_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # The clamped extension is retired; the key is unknown like any other.
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, "extension = true\n")
    assert cli.main(["run", "--config", path, "--out", "out"]) == 2
    assert capsys.readouterr().err == f"error: config: {path}: line 1: unknown key 'extension'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("times, named", [("0.5,-1", "0.5"), ("0.005,-1", "-1.0")])
def test_snapshot_time_outside_the_run_exits_2(tmp_path, capsys, times, named):
    path = write_config(tmp_path, f"T = 0.01\nsnapshot_times = {times}\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: config: {path}: snapshot_times must lie in [0, T = 0.01], got {named}\n"
    )
    assert not out.exists()


def test_disk_start_on_a_1d_grid_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "N = 16\ninitial = disk\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith("the disk initial state needs a 2D grid\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "text, named",
    [("seed = -1\n", "seed must be >= 0, got -1"),
     ("lo = -1e308\nhi = 1e308\n", "hi - lo must be finite, got lo=-1e+308, hi=1e+308")],
)
def test_random_start_with_a_negative_seed_or_an_infinite_range_exits_2(
    tmp_path, capsys, text, named
):
    path = write_config(tmp_path, "N = 16\nT = 0.005\n" + text)
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.endswith(f"{named}\n")


def test_coarsen_with_a_negative_seed_exits_2(capsys):
    assert cli.main(["coarsen", "--dim", "1", "--preset", "g500", "--seed", "-3"]) == 2
    assert capsys.readouterr().err == "error: config: seed must be >= 0, got -3\n"


# What a builder needs besides a file's contents, each refused when the config is made.
REFUSED_WHEN_MADE = {
    "custom": ({"operator": "custom"}, "operator = custom needs op_symbol_file"),
    "file": ({"initial": "file"}, "initial = file needs initial_file"),
    "disk-1d": ({"N": (16,), "initial": "disk"}, "the disk initial state needs a 2D grid"),
    "cavity": ({"initial": "cavity"}, "at least one solute position is required"),
    "lo-above-hi": ({"lo": 1.0, "hi": 0.0}, "need lo <= hi, got lo=1.0, hi=0.0"),
    "infinite-range": ({"lo": -1e308, "hi": 1e308},
                       "hi - lo must be finite, got lo=-1e+308, hi=1e+308"),
    "seed": ({"seed": -1}, "seed must be >= 0, got -1"),
    "blocks": ({"blocks": 7}, "blocks=7 does not divide grid size 256"),
}


def config_lines(kwargs):
    return "".join(f"{key} = {','.join(map(str, value)) if isinstance(value, tuple) else value}\n"
                   for key, value in kwargs.items())


@pytest.mark.parametrize("kwargs, message", REFUSED_WHEN_MADE.values(), ids=REFUSED_WHEN_MADE)
def test_what_a_run_refuses_before_reading_a_file_is_refused_when_the_config_is_made(
    tmp_path, capsys, kwargs, message
):
    with pytest.raises(ConfigError) as exc_info:
        RunConfig(**kwargs)
    assert str(exc_info.value) == message
    # So pacok check refuses it as pacok run does, and the run writes nothing.
    path = write_config(tmp_path, config_lines(kwargs))
    out = tmp_path / "out"
    for argv in (["check", "--config", path], ["run", "--config", path, "--out", str(out)]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: config: {path}: {message}\n")
    assert not out.exists()


def test_a_starts_checks_apply_to_that_start_alone(tmp_path, capsys):
    # What a random start refuses, a constant start does not read.
    kwargs = {"initial": "constant", "lo": 1.0, "hi": 0.0, "seed": -1, "blocks": 7,
              "T": 0.005}
    assert RunConfig(**kwargs).build_initial().values.tolist() == [0.5] * 256
    path = write_config(tmp_path, config_lines(kwargs))
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("run finished: n=5 t=0.005 ")


@pytest.mark.parametrize("line, choices", [
    ("f = Cubic", "f must be one of ('cubic', 'linear'), got 'Cubic'"),
    ("initial = Random", "initial must be one of ('random', 'disk', 'constant', 'file', "
                         "'cavity'), got 'Random'"),
], ids=["f", "initial"])
def test_a_choice_that_is_not_one_of_its_choices_exits_2(tmp_path, capsys, line, choices):
    path = write_config(tmp_path, line + "\n")
    assert cli.main(["check", "--config", path]) == 2
    assert capsys.readouterr().err == f"error: config: {path}: {choices}\n"


def test_check_of_an_uncertified_guarantee_exits_3(tmp_path, capsys):
    # The defaults (1D, kappa = 2000) certify the bounds but not energy decay.
    path = write_config(tmp_path, "tau = 1e-3\n")
    assert cli.main(["check", "--config", path, "--require", "mpp"]) == 0
    assert cli.main(["check", "--config", path, "--require", "both"]) == 3
    assert "requested guarantee 'both' is not satisfied" in capsys.readouterr().err


BINARY = b"\x89PNG\r\n\x1a\n\x00\xff\xfe\xc3("   # not UTF-8 text


@pytest.mark.parametrize(
    "command, kind",
    [
        ("check", "symbol table"),
        ("run", "initial file"),
        ("energy", "snapshot"),
        ("check", "config"),
    ],
)
@pytest.mark.parametrize("contents", [None, BINARY], ids=["missing", "binary"])
def test_unreadable_input_file_exits_2_naming_it(tmp_path, capsys, command, kind, contents):
    target = tmp_path / "input.dat"
    if contents is not None:
        target.write_bytes(contents)
    text = {"symbol table": f"operator = custom\nop_symbol_file = {target}\n",
            "initial file": f"N = 8\ninitial = file\ninitial_file = {target}\n"}.get(kind, "")
    config = target if kind == "config" else write_config(tmp_path, text)
    argv = [command, "--config", str(config)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    if command == "energy":
        argv += ["--snapshot", str(target)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: cannot read {target}: ")
    assert ("not UTF-8 text" in err) == (contents is not None)


@pytest.mark.parametrize("command", ["run", "energy"])
def test_non_finite_value_in_an_input_field_exits_2(tmp_path, capsys, command):
    path = tmp_path / "start.csv"
    path.write_text("# pacok-grid v1 dim=1 N=8 X=1 t=0\n" + "0.25\n" * 7 + "nan\n")
    config = write_config(tmp_path, f"N = 8\ninitial = file\ninitial_file = {path}\n")
    argv = {"run": ["run", "--config", config, "--out", str(tmp_path / "out")],
            "energy": ["energy", "--config", config, "--snapshot", str(path)]}[command]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: config: {path}: value 8 is nan, not a finite number\n"
    )


def test_certified_run_from_outside_the_bounds_exits_2(tmp_path, capsys):
    # The defaults certify the bounds; a start at 1.2 is bad input, not a
    # violation by the scheme.
    path = write_config(tmp_path, "initial = constant\ninitial_value = 1.2\nT = 0.01\n")
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: certified bounds need an initial field in [0, 1]")
    assert "min=1.200e+00, max=1.200e+00" in err
    # Without a certificate, the same start runs.
    path = write_config(tmp_path, "initial = constant\ninitial_value = 1.2\nT = 0.01\n"
                                  "f = linear\n")
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0


# The certified 32^2 physics of the CI record.cfg: bounds and decay hold.
RECORD_32 = """\
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
"""


@pytest.mark.parametrize("config, required", [
    # g500 certifies the bounds, not energy decay.
    ("g500", {"mpp": 0, "es": 3}),
    # The solvation comparison's cubic f certifies both; its linear f not the bounds.
    ("SOLVATION", {"both": 0}),
    ("SOLVATION-linear", {"mpp": 3}),
    ("RECORD_32", {"both": 0}),
], ids=["g500", "SOLVATION", "SOLVATION-linear", "RECORD_32"])
def test_check_certifies_what_each_study_config_promises(tmp_path, config, required):
    text = {"g500": format_config(experiments.coarsening_preset("g500")),
            "SOLVATION": format_config(experiments.SOLVATION),
            "SOLVATION-linear": format_config(experiments.SOLVATION) + "f = linear\n",
            "RECORD_32": RECORD_32}[config]
    path = write_config(tmp_path, text)
    for guarantee, code in required.items():
        assert cli.main(["check", "--config", path, "--require", guarantee]) == code


def test_certified_2d_run_writes_its_snapshots_and_each_gives_its_recorded_energy(
    tmp_path, capsys
):
    # Bounds and decay are enforced every step of this run.
    path = write_config(tmp_path, RECORD_32 + "snapshot_times = 0.0,0.01,0.02\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "series.csv", "snap_000.csv", "snap_001.csv", "snap_002.csv"]
    rows = [row.split(",") for row in (out / "series.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(21))
    capsys.readouterr()
    for snapshot, n in (("snap_000.csv", 0), ("snap_001.csv", 10), ("snap_002.csv", 20)):
        assert cli.main(["energy", "--config", path, "--snapshot", str(out / snapshot)]) == 0
        total = capsys.readouterr().out.splitlines()[1].split(",")[-1]
        assert float(total) == float(rows[n][4])


@pytest.mark.parametrize("lines", ["initial = disk\nN = 64,64\n", "initial = constant\n"],
                         ids=["disk-64", "constant"])
def test_the_disk_and_constant_starts_run_to_T(tmp_path, capsys, lines):
    path = write_config(tmp_path, RECORD_32 + lines)
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("run finished: n=20 t=0.02 ")


def test_the_inverse_laplacian_as_a_custom_symbol_runs_as_the_built_in_operator(tmp_path):
    # The 32^2 stencil symbol's reciprocal, with the zero mode 0, written as text.
    n, h = 32, 2.0 / 32
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    axis = 4 / h**2 * np.sin(np.pi * np.abs(m) / n) ** 2
    lam = axis[:, None] + axis[None, :]
    symbol = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0)
    table = tmp_path / "symbol.csv"
    table.write_text("".join(f"{a},{b},{value!r}\n" for (a, b), value in zip(
        itertools.product(m.tolist(), repeat=2), symbol.ravel().tolist())))
    finals = []
    for lines in ("", f"operator = custom\nop_symbol_file = {table}\n"):
        out = tmp_path / f"out{len(finals)}"
        path = write_config(tmp_path, RECORD_32 + lines)
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
        finals.append(load_snapshot(str(out / "snap_000.csv"))[0].values)
    assert np.max(np.abs(finals[0] - finals[1])) <= 1e-10


def test_certified_run_from_a_start_outside_the_bounds_writes_nothing(tmp_path, capsys):
    text = RECORD_32 + "initial = constant\ninitial_value = 1.5\n" + AT_T0
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert "certified bounds need an initial field in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_snapshot_of_a_run_gives_its_recorded_energy(tmp_path, capsys):
    path = write_config(tmp_path, "N = 16\nT = 0.005\nsnapshot_times = 0.005\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["energy", "--config", path, "--snapshot", str(out / "snap_000.csv")]) == 0
    total = float(capsys.readouterr().out.splitlines()[1].split(",")[-1])
    recorded = float((out / "series.csv").read_text().splitlines()[-1].split(",")[4])
    assert total == recorded


def test_energy_of_a_solvation_snapshot_gives_its_recorded_energy(tmp_path, capsys):
    path = write_config(tmp_path, "N = 64\nX = 5.0\noperator = none\npvism_solutes = 0.0\n"
                                  "gamma = 0.0\nM = 0.0\nomega = 0.5\nT = 0.005\n"
                                  "snapshot_times = 0.005\nf = linear\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["energy", "--config", path, "--snapshot", str(out / "snap_000.csv")]) == 0
    total = float(capsys.readouterr().out.splitlines()[1].split(",")[-1])
    recorded = float((out / "series.csv").read_text().splitlines()[-1].split(",")[4])
    assert total == recorded


def test_converge_prints_successive_rates_beside_the_benchmark_rates(tmp_path, capsys):
    argv = ["converge", "--eps-factors", "4", "--n", "16", "--levels", "4", "--base-tau", "1e-3",
            "--bench-tau", "6.25e-5", "--t-end", "0.004", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[1].split() == ["tau", "error", "rate", "successive"]
    rows = (tmp_path / "rates.csv").read_text().splitlines()
    assert rows[0] == "eps,tau,error,rate,successive_rate"
    cells = [row.split(",") for row in rows[1:]]
    # A rate sits on the row of the smallest step it uses.
    assert [(c[3] != "", c[4] != "") for c in cells] == [
        (False, False), (True, False), (True, True), (True, True)]
    for line, c in zip(printed[2:6], cells):
        assert line.split()[2:] == [c[3] or "---", c[4] or "---"]


def test_converge_prints_each_header_with_its_step_count_before_its_study_runs(
    monkeypatch, capsys
):
    real, seen = experiments.rate_study, []

    def spy(*args):
        seen.append(capsys.readouterr().out)
        return real(*args)

    monkeypatch.setattr(experiments, "rate_study", spy)
    argv = ["converge", "--eps-factors", "4,6", "--n", "16", "--levels", "2", "--base-tau", "1e-3",
            "--bench-tau", "2.5e-4", "--t-end", "0.004"]
    assert cli.main(argv) == 0
    # 4 + 8 steps at tau = 1e-3 and 5e-4, 16 for the benchmark.
    assert seen[0] == "eps = 4h (N = 16, T = 0.004, 28 steps)\n"
    table, header = seen[1].rstrip("\n").rsplit("\n", 1)
    assert table.split("\n")[0].split() == ["tau", "error", "rate", "successive"]
    assert header == "eps = 6h (N = 16, T = 0.004, 28 steps)"


def test_converge_flags_replace_the_values_of_the_scale(monkeypatch, capsys):
    real, seen = experiments.rate_study, []

    def spy(base_tau, levels, bench_tau, setup):
        seen.append((base_tau, levels, bench_tau, setup.N, setup.T, setup.epsilon))
        return real(base_tau, levels, bench_tau, setup)

    monkeypatch.setattr(experiments, "rate_study", spy)
    argv = ["converge", "--scale", "desk", "--levels", "2", "--n", "16", "--base-tau", "1e-3",
            "--t-end", "0.004", "--bench-tau", "1e-4"]
    assert cli.main(argv) == 0
    # The desk widths, 10h and 20h, on the 16-point grid.
    assert seen == [(1e-3, 2, 1e-4, (16, 16), 0.004, 1.25), (1e-3, 2, 1e-4, (16, 16), 0.004, 2.5)]
    assert "eps = 10h (N = 16, T = 0.004, 52 steps)" in capsys.readouterr().out


@pytest.mark.parametrize("flag, message", [
    ("--n", "grid size must be an even integer >= 4, got 0"),
    ("--bench-tau", "the time step must be positive and finite, got tau=0.0"),
])
def test_converge_with_a_scale_and_a_zero_flag_exits_2(flag, message, capsys):
    assert cli.main(["converge", "--scale", "desk", flag, "0"]) == 2
    assert capsys.readouterr().err == f"error: config: {message}\n"


def test_converge_with_a_benchmark_step_no_finer_than_the_steps_exits_2(capsys):
    argv = ["converge", "--eps-factors", "4", "--n", "16", "--levels", "2", "--base-tau", "1e-3",
            "--bench-tau", "5e-4", "--t-end", "0.004"]
    assert cli.main(argv) == 2
    assert "benchmark step must be below 0.0005, got 0.0005" in capsys.readouterr().err


def test_converge_with_levels_that_halve_the_step_to_zero_exits_2(capsys):
    # 1e-3 / 2**1999 underflows to 0, and 2**1999 itself is beyond any float.
    argv = ["converge", "--eps-factors", "4", "--n", "16", "--levels", "2000"]
    assert cli.main(argv) == 2
    assert "benchmark step must be below 0.0, got 4e-06" in capsys.readouterr().err


@pytest.mark.parametrize("t_end", ["nan", "inf"])
def test_converge_with_a_horizon_that_is_not_finite_exits_2(t_end, capsys):
    argv = ["converge", "--eps-factors", "4", "--n", "8", "--t-end", t_end]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: config: T must be positive and finite, got {t_end}\n"


@pytest.mark.parametrize("t_max", ["nan", "inf"])
def test_pvism_with_a_time_that_is_not_finite_exits_2(t_max, capsys):
    assert cli.main(["pvism", "--t-max", t_max]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config: T must be positive and finite, got {t_max}\n"


@pytest.mark.parametrize("factors, bad", [("abc", "abc"), ("4,x2", "x2"), ("4,,2", ""),
                                          ("4, nan", "nan"), ("0", "0"), ("-1", "-1"),
                                          ("inf", "inf")])
def test_converge_with_a_factor_that_is_not_a_positive_number_exits_2(factors, bad, capsys):
    assert cli.main(["converge", "--eps-factors", factors, "--n", "16"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config: --eps-factors: {bad!r} is not a positive number\n"


@pytest.mark.parametrize("n", [0, -2, 3])
def test_converge_with_a_grid_size_that_is_not_an_even_integer_of_at_least_4_exits_2(n, capsys):
    assert cli.main(["converge", "--eps-factors", "4", "--n", str(n)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config: grid size must be an even integer >= 4, got {n}\n"


def test_pvism_with_a_step_count_that_is_not_finite_exits_2(capsys):
    assert cli.main(["pvism", "--tau", "1e-10", "--t-max", "1e300"]) == 2
    err = capsys.readouterr().err
    assert err == "error: config: the step count to t = 1e+300 with tau = 1e-10 is not finite\n"


def test_pvism_with_a_subnormal_step_exits_2_naming_its_reciprocal(capsys):
    assert cli.main(["pvism", "--tau", "1e-320", "--t-max", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: config: 1/tau is not finite for epsilon=0.48828125, kappa=2000.0, tau=1e-320\n"
    )


@pytest.mark.parametrize("bench_tau", ["0", "-1e-4"])
def test_converge_with_a_step_that_is_not_positive_exits_2(bench_tau, capsys):
    argv = ["converge", "--eps-factors", "4", "--n", "16", f"--bench-tau={bench_tau}"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: config: the time step must be positive and finite, got tau={float(bench_tau)!r}\n"
    )


@pytest.mark.parametrize("base_tau", ["0", "-5e-4", "nan"])
def test_converge_with_a_base_step_that_is_not_positive_and_finite_names_it(base_tau, capsys):
    argv = ["converge", "--eps-factors", "4", "--n", "8", "--levels", "2", "--t-end", "0.002",
            f"--base-tau={base_tau}"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: config: the base step must be positive and finite, "
        f"got base_tau={float(base_tau)!r}\n"
    )


@pytest.mark.parametrize("operator, stencils", [("inverse_laplacian", 2), ("custom", 1)])
def test_run_builds_the_multiplier_once(tmp_path, monkeypatch, operator, stencils):
    # Each function is counted wherever a pacok module binds it.  The stencil
    # symbol is built for the solve and, for the inverse Laplacian, for its
    # multiplier.
    calls = {}
    for name in ("multiplier_array", "stencil_symbol"):
        real = getattr(spectral, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("pacok")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    table = tmp_path / "symbol.csv"
    table.write_text("".join(f"{a},{b},1.0\n" for a in range(-4, 4) for b in range(-4, 4)))
    path = write_config(tmp_path, f"N = 8,8\nX = 1.0,1.0\nT = 0.003\noperator = {operator}\n"
                                  f"op_symbol_file = {table}\n")
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert calls == {"multiplier_array": 1, "stencil_symbol": stencils}


def test_run_with_a_repeated_table_mode_exits_2_and_leaves_no_out_dir(tmp_path, capsys):
    symbol = tmp_path / "symbol.csv"
    symbol.write_text("0,1.0\n1,1.0\n0,2.0\n")
    path = write_config(tmp_path, f"operator = custom\nop_symbol_file = {symbol}\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert "mode (0,) twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["--t-max", "inf"], ["--tau", "0"], ["--tau", "1e-320", "--t-max", "0.5"]]
)
def test_pvism_that_exits_2_leaves_no_out_dir(tmp_path, capsys, argv):
    out = tmp_path / "pv"
    assert cli.main(["pvism", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: config: ")
    assert not out.exists()


def test_run_of_the_printed_solvation_config_writes_the_cubic_equilibrium(tmp_path, capsys):
    path = write_config(tmp_path, format_config(replace(experiments.SOLVATION, T=0.5)))
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "run")]) == 0
    assert cli.main(["pvism", "--t-max", "0.5", "--out", str(tmp_path / "pv")]) == 0
    snapshots = sorted((tmp_path / "run").glob("snap_*.csv"))
    assert snapshots[-1].read_text() == (tmp_path / "pv" / "equilibrium_cubic.csv").read_text()


def test_run_from_a_cavity_without_solutes_exits_2_and_leaves_no_out_dir(tmp_path, capsys):
    path = write_config(tmp_path, "initial = cavity\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(": at least one solute position is required\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "lines",
    ["operator = inverse_laplacian\n", "operator = custom\nop_symbol_file = {table}\n",
     "operator = none\n", "operator = none\npvism_solutes = 0.0,2.0\nX = 5.0\n"],
    ids=["inverse_laplacian", "custom", "none", "pvism"],
)
def test_check_prints_the_operator_norm_the_conditions_use(tmp_path, capsys, lines):
    from pacok.config import load_config

    table = tmp_path / "symbol.csv"
    table.write_text("".join(f"{m},{1.0 / (1.0 + m * m)!r}\n" for m in range(-16, 16)))
    path = write_config(tmp_path, "N = 32\n" + lines.format(table=table))
    assert cli.main(["check", "--config", path, "--require", "none"]) == 0
    cfg = load_config(path)
    expected = cfg.build_problem(cfg.build_grid()).op_norm
    assert capsys.readouterr().out.splitlines()[0].split() == ["operator", "max-norm",
                                                                f"{expected:.6e}"]


@pytest.mark.parametrize("argv, config, flags", [
    (["pvism"], "SOLVATION", {"tau": "tau", "t_max": "T"}),
    (["converge"], "RATE_STUDY", {"t_end": "T"}),
], ids=["pvism", "converge"])
def test_study_flags_default_to_the_values_of_their_config(monkeypatch, argv, config, flags):
    # Each study default lives in its config: changing the config changes the flag.
    moved = replace(getattr(experiments, config), tau=3e-5, T=0.25)
    monkeypatch.setattr(experiments, config, moved)
    args = cli.build_parser().parse_args(argv)
    assert {flag: getattr(args, flag) for flag in flags} == {
        flag: getattr(moved, field) for flag, field in flags.items()}


@pytest.mark.parametrize("argv, names", [
    (["norm"], ("run", "check", "energy", "converge", "coarsen", "pvism")),
    (["coarsen", "--dim", "1", "--preset", "g750"], tuple(experiments.PRESET_GAMMAS)),
    (["converge", "--scale", "laptop"], tuple(experiments.RATE_STUDY_SCALES)),
], ids=["command", "preset", "scale"])
def test_an_unknown_choice_exits_2_listing_the_choices(argv, names, capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(argv)
    assert exc_info.value.code == 2
    assert f"(choose from {', '.join(map(repr, names))})" in capsys.readouterr().err


@pytest.mark.parametrize("lines, message", [
    ("X = 1e-170\n", "half extent 1e-170 on 256 points makes 4/h^2 zero or not finite"),
    ("X = 1e160\n", "half extent 1e+160 on 256 points makes 4/h^2 zero or not finite"),
    ("operator = helmholtz\nop_gamma_len = 1e160\n", "helmholtz length 1e+160 has no finite square"),
], ids=["tiny-extent", "huge-extent", "huge-helmholtz-length"])
def test_check_with_an_extreme_length_exits_2(tmp_path, capsys, lines, message):
    path = write_config(tmp_path, lines)
    assert cli.main(["check", "--config", path]) == 2
    assert message in capsys.readouterr().err


def test_energy_of_a_snapshot_on_a_tiny_box_exits_2(tmp_path, capsys):
    snap = tmp_path / "snap.csv"
    snap.write_text("# pacok-grid v1 dim=1 N=4 X=1e-300 t=0\n" + "0.5\n" * 4)
    assert cli.main(["energy", "--snapshot", str(snap)]) == 2
    assert "half extent 1e-300 on 4 points" in capsys.readouterr().err


def test_solutes_with_an_operator_exit_2_naming_both_keys(tmp_path, capsys):
    path = write_config(tmp_path, format_config(experiments.SOLVATION) + "operator = helmholtz\n")
    assert cli.main(["check", "--config", path]) == 2
    assert capsys.readouterr().err.endswith(
        ": pvism_solutes needs operator = none, not helmholtz\n")
