"""Config text and series files: round trips, and the inputs they refuse."""

import math
import struct
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pacok.config import (
    SERIES_HEADER,
    RunConfig,
    format_config,
    parse_config,
    read_series,
    write_series,
)
from pacok.errors import ConfigError
from pacok.experiments import (
    PRESET_GAMMAS,
    RATE_STUDY_SCALES,
    SOLVATION,
    coarsening_preset,
    convergence_setups,
    rate_study_steps,
)
from pacok.grid import GridField, PeriodicGrid, save_snapshot
from pacok.stepping import StepRecord

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)
# Half extents whose spacing keeps 4/h^2 finite and positive at every drawn N.
extents = st.floats(1e-140, 1e150)
# Strings a config file can hold: no '#', no line break, no whitespace at either end.
writable = st.text(st.characters(exclude_characters="#", exclude_categories=("Cs",))).filter(
    lambda s: s == s.strip() and len(s.splitlines()) <= 1
)


@st.composite
def configs(draw):
    dim = draw(st.sampled_from((1, 2)))
    T = draw(positive)
    operator = draw(st.sampled_from(
        ("inverse_laplacian", "helmholtz", "garnet_film", "custom", "none")))
    return RunConfig(
        epsilon=draw(positive),
        gamma=draw(nonnegative),
        M=draw(nonnegative),
        omega=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        kappa=draw(nonnegative),
        tau=draw(positive),
        N=tuple(2 * n for n in draw(st.lists(st.integers(2, 2**20), min_size=dim, max_size=dim))),
        X=tuple(draw(st.lists(extents, min_size=dim, max_size=dim))),
        T=T,
        tol=draw(nonnegative),
        f=draw(st.sampled_from(("cubic", "linear"))),
        extension=draw(st.booleans()),
        operator=operator,
        op_gamma_len=draw(finite),
        op_delta=draw(finite),
        op_symbol_file=draw(writable),
        # Solutes come only without an operator.
        pvism_solutes=tuple(draw(st.lists(finite, max_size=3 if operator == "none" else 0))),
        seed=draw(st.integers(-2**70, 2**70)),
        initial=draw(st.sampled_from(("random", "disk", "constant", "file"))),
        initial_value=draw(finite),
        initial_file=draw(writable),
        blocks=draw(st.integers(1, 2**40)),
        lo=draw(finite),
        hi=draw(finite),
        snapshot_times=tuple(draw(st.lists(st.floats(0.0, T), max_size=4))),
        monitor_every=draw(st.integers(1, 2**40)),
        out=draw(writable),
    )


@settings(max_examples=200, deadline=None)
@given(configs())
@example(RunConfig())
def test_parse_reads_back_what_format_writes(cfg):
    assert parse_config(format_config(cfg)) == cfg


@pytest.mark.parametrize("scale", ["desk", "paper"])
@pytest.mark.parametrize("name", list(PRESET_GAMMAS))
def test_every_coarsening_preset_is_a_valid_config_that_reads_back(name, scale):
    preset = coarsening_preset(name, scale)
    assert parse_config(format_config(preset)) == preset


def test_format_writes_the_shortest_text_of_each_float():
    lines = format_config(coarsening_preset("g500")).splitlines()
    assert {"omega = 0.3", "hi = 0.8", "op_gamma_len = 0.1", "gamma = 500.0"} <= set(lines)


@pytest.mark.parametrize(
    "make, message",
    [(lambda: RunConfig(f="Cubic"), "f must be one of ('cubic', 'linear'), got 'Cubic'"),
     (lambda: RunConfig(operator="helmholz"), "operator must be one of ('inverse_laplacian', "
      "'helmholtz', 'garnet_film', 'custom', 'none'), got 'helmholz'"),
     (lambda: RunConfig(initial="Random"), "initial must be one of ('random', 'disk', "
      "'constant', 'file'), got 'Random'"),
     (lambda: RunConfig(T=math.inf), "T must be positive and finite, got inf"),
     (lambda: RunConfig(tol=-1.0), "tol must be >= 0, got -1.0"),
     (lambda: replace(RunConfig(), snapshot_times=(20.0,)),
      "snapshot_times must lie in [0, T = 10.0], got 20.0"),
     (lambda: RunConfig(pvism_solutes=(0.0,)),
      "pvism.solutes needs operator = none, not inverse_laplacian")],
    ids=["f", "operator", "initial", "T", "tol", "replace", "solutes"],
)
def test_a_config_made_in_python_is_checked_as_a_file_is(make, message):
    with pytest.raises(ConfigError) as exc_info:
        make()
    assert str(exc_info.value) == message


def test_the_solvation_comparison_is_a_config_that_reads_back():
    assert parse_config(format_config(SOLVATION)) == SOLVATION
    assert "operator = none" in format_config(SOLVATION).splitlines()


@pytest.mark.parametrize("scale, rows", [
    ("desk", [("10h", 128, 0.15625, 11200), ("20h", 128, 0.3125, 11200)]),
    ("paper", [("5h", 256, 0.0390625, 26200), ("10h", 256, 0.078125, 26200),
               ("20h", 256, 0.15625, 26200)]),
])
def test_rate_study_scales_keep_their_rows(scale, rows):
    # pacok converge's defaults: 5 levels from tau = 1e-4.
    n, factors, bench_tau = RATE_STUDY_SCALES[scale]
    got = [(label, setup.N, setup.epsilon, rate_study_steps(1e-4, 5, bench_tau, setup))
           for label, setup in convergence_setups(n, factors)]
    assert got == [(label, (n, n), eps, steps) for label, n, eps, steps in rows]


def test_initial_file_on_another_box_is_refused_naming_both_grids(tmp_path):
    path = str(tmp_path / "start.csv")
    save_snapshot(path, GridField.constant(PeriodicGrid((16,), (2.0,)), 0.5), t=0.0)
    cfg = RunConfig(N=(16,), initial="file", initial_file=path)
    with pytest.raises(ConfigError) as exc_info:
        cfg.build_initial(cfg.build_grid())
    assert str(exc_info.value) == (
        "initial_file grid N = (16,), X = (2.0,) does not match the config's "
        "N = (16,), X = (1.0,)"
    )


@pytest.mark.parametrize(
    "key, value",
    [("out", "runs#1"), ("out", " spaced "), ("out", "runs\n"), ("initial_file", "a\nb"),
     ("op_symbol_file", "a\rb"), ("out", "tab\t")],
)
def test_format_refuses_a_string_it_cannot_write_back(key, value):
    with pytest.raises(ConfigError, match=f"{key} = "):
        format_config(replace(RunConfig(), **{key: value}))


def bits(record):
    return (record.n,) + tuple(
        struct.pack("<d", x)
        for x in (record.t, record.phi_min, record.phi_max, record.energy, record.increment)
    )


records = st.lists(st.builds(StepRecord, st.integers(0, 2**62), finite, finite, finite, finite,
                             finite))
EDGE = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0)


@settings(max_examples=100, deadline=None)
@given(records)
@example([StepRecord(n, *(EDGE[(n + k) % len(EDGE)] for k in range(5))) for n in range(7)])
def test_series_reads_back_bit_for_bit(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("series") / "series.csv"
    write_series(path, rows)
    assert [bits(r) for r in read_series(path)] == [bits(r) for r in rows]


@pytest.mark.parametrize(
    "contents, message",
    [
        (None, "cannot read .*: No such file"),
        (b"\xff\xfe\x00garbage", "cannot read .*: not UTF-8 text"),
        (b"n,t,min,max\n", "expected header"),
        (f"{SERIES_HEADER}\n0,0,0,0,0\n".encode(), ":2: expected 6 columns"),
        (f"{SERIES_HEADER}\n0,0,0,0,x,0\n".encode(), ":2: malformed row"),
    ],
)
def test_read_series_refuses_bad_files(tmp_path, contents, message):
    path = tmp_path / "series.csv"
    if contents is not None:
        path.write_bytes(contents)
    with pytest.raises(ConfigError, match=message):
        read_series(path)
