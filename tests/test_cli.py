import re
import sys
from dataclasses import replace

import pytest

from pacok import cli, experiments, spectral
from pacok.config import format_config


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


@pytest.mark.parametrize("times, named", [("0.5,-1", "0.5"), ("0.005,-1", "-1.0")])
def test_snapshot_time_outside_the_run_exits_2(tmp_path, capsys, times, named):
    path = write_config(tmp_path, f"T = 0.01\nsnapshot_times = {times}\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: config: {path}: snapshot_times must lie in [0, T = 0.01], got {named}\n"
    )
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
    assert cli.main(["pvism", "--tau", "1e-320", "--t-max", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err == "error: config: the step count to t = 0.5 with tau = 1e-320 is not finite\n"


@pytest.mark.parametrize("bench_tau", ["0", "-1e-4"])
def test_converge_with_a_step_that_is_not_positive_exits_2(bench_tau, capsys):
    argv = ["converge", "--eps-factors", "4", "--n", "16", f"--bench-tau={bench_tau}"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: config: the time step must be positive and finite, got tau={float(bench_tau)!r}\n"
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


@pytest.mark.parametrize(
    "lines",
    ["operator = inverse_laplacian\n", "operator = custom\nop_symbol_file = {table}\n",
     "operator = none\n", "operator = none\npvism_solutes = 0.0,2.0\nX = 5.0\n"],
    ids=["inverse_laplacian", "custom", "none", "pvism"],
)
def test_norm_prints_the_operator_norm_the_conditions_use(tmp_path, capsys, lines):
    from pacok.config import load_config
    from pacok.stepping import check_conditions

    table = tmp_path / "symbol.csv"
    table.write_text("".join(f"{m},{1.0 / (1.0 + m * m)!r}\n" for m in range(-16, 16)))
    path = write_config(tmp_path, "N = 32\n" + lines.format(table=table))
    assert cli.main(["norm", "--config", path]) == 0
    cfg = load_config(path)
    expected = check_conditions(cfg.build_problem(cfg.build_grid())).op_norm
    assert float(capsys.readouterr().out) == expected


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
        ": pvism.solutes needs operator = none, not helmholtz\n")
