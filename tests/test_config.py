"""Config text and series files: round trips, and the inputs they refuse."""

import math
import re
import struct
import typing
from dataclasses import fields, replace

import numpy as np
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
    RATE_STUDY,
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
# Widths, stabilizers and steps that keep 36/eps, kappa/eps, 1 + tau*kappa/eps,
# 36*tau/eps, 1/tau and 1/tau + kappa/eps finite.
widths = st.floats(1e-100, 1e100)
stabilizers = st.floats(0.0, 1e100)
steps = st.floats(1e-300, 1e100)
# Strings a config file can hold: no '#', no line break, no whitespace at either end.
writable = st.text(st.characters(exclude_characters="#", exclude_categories=("Cs",))).filter(
    lambda s: s == s.strip() and len(s.splitlines()) <= 1
)


non_finite = st.sampled_from((math.nan, math.inf, -math.inf))


@st.composite
def config_fields(draw):
    """The fields of a RunConfig that it accepts."""

    # What a start needs: a disk a 2D grid, a cavity solutes (so no operator), a file its
    # name; a random start lo <= hi with a finite hi - lo, a seed >= 0 and blocks dividing N.
    initial = draw(st.sampled_from(("random", "disk", "constant", "file", "cavity")))
    dim = 2 if initial == "disk" else 1 if initial == "cavity" else draw(st.sampled_from((1, 2)))
    T = draw(positive)
    operator = "none" if initial == "cavity" else draw(st.sampled_from(
        ("inverse_laplacian", "helmholtz", "garnet_film", "custom", "none")))
    N = tuple(2 * n for n in draw(st.lists(st.integers(2, 2**20), min_size=dim, max_size=dim)))
    if initial == "random":
        ends = st.lists(finite, min_size=2, max_size=2)
        lo, hi = sorted(draw(ends.filter(lambda e: math.isfinite(e[1] - e[0]))))
        common = math.gcd(*N)
        small = [b for b in range(1, math.isqrt(common) + 1) if common % b == 0]
        blocks = draw(st.sampled_from(small + [common // b for b in small]))
        seed = draw(st.integers(0, 2**70))
    else:
        lo, hi = draw(finite), draw(finite)
        blocks, seed = draw(st.integers(1, 2**40)), draw(st.integers(-2**70, 2**70))
    nonempty = writable.filter(bool)
    return dict(
        epsilon=draw(widths),
        gamma=draw(nonnegative),
        M=draw(nonnegative),
        omega=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        kappa=draw(stabilizers),
        tau=draw(steps),
        N=N,
        X=tuple(draw(st.lists(extents, min_size=dim, max_size=dim))),
        T=T,
        tol=draw(nonnegative),
        f=draw(st.sampled_from(("cubic", "linear"))),
        operator=operator,
        op_gamma_len=draw(finite),
        op_delta=draw(finite),
        op_symbol_file=draw(nonempty if operator == "custom" else writable),
        # Solutes come only without an operator.
        pvism_solutes=tuple(draw(st.lists(finite, min_size=int(initial == "cavity"),
                                          max_size=3 if operator == "none" else 0))),
        seed=seed,
        initial=initial,
        initial_value=draw(finite),
        initial_file=draw(nonempty if initial == "file" else writable),
        blocks=blocks,
        lo=lo,
        hi=hi,
        snapshot_times=tuple(draw(st.lists(st.floats(0.0, T), max_size=4))),
        monitor_every=draw(st.integers(1, 2**40)),
    )


@settings(max_examples=200, deadline=None)
@given(config_fields().map(lambda kwargs: RunConfig(**kwargs)))
@example(RunConfig())
@example(RunConfig(seed=10**4299))
@example(RunConfig(seed=10**4300 - 1))   # the most digits Python writes by default
def test_parse_reads_back_what_format_writes(cfg):
    assert parse_config(format_config(cfg)) == cfg


# Values of each item type beyond those config_fields draws.  A config line holds some of
# them (an int in a float field, when a float holds it exactly) and not others: a float
# that is not finite, a bool, a numpy scalar, a float in an int field, a string with a
# '#', a line break or whitespace at either end.
UNUSUAL = {
    float: st.one_of(non_finite, st.booleans(), finite.map(np.float64), st.integers()),
    int: st.one_of(st.booleans(), st.floats(), st.integers(-2**63, 2**63 - 1).map(np.int64)),
    str: st.one_of(st.text(), st.builds("{}{}{}".format, st.text(max_size=3),
                                        st.sampled_from("#\n\r\t \x85"), st.text(max_size=3))),
}
HINTS = typing.get_type_hints(RunConfig)


@st.composite
def unusual_fields(draw):
    """Accepted fields with some values drawn from UNUSUAL instead, and the names of those.

    Each item of a list field may be unusual, and the list may come as a Python list.
    """
    kwargs = draw(config_fields())
    names = draw(st.lists(st.sampled_from(sorted(kwargs)), min_size=1, unique=True))
    for name in names:
        hint = HINTS[name]
        if typing.get_origin(hint) is tuple:
            unusual = UNUSUAL[typing.get_args(hint)[0]]
            items = [draw(st.one_of(st.just(item), unusual)) for item in kwargs[name]]
            kwargs[name] = draw(st.sampled_from((tuple, list)))(items)
        else:
            kwargs[name] = draw(UNUSUAL[hint])
    return kwargs, names


def names_one_of(message, names):
    # The grid's own check names X by what it holds, a half extent.
    words = names + ["half extent"] * ("X" in names)
    return any(re.search(rf"(?<!\w){re.escape(word)}(?!\w)", message) for word in words)


@settings(max_examples=300, deadline=None)
@given(unusual_fields())
@example(({"operator": "garnet_film", "op_delta": math.nan}, ["op_delta"]))
@example(({"tol": math.nan}, ["tol"]))
@example(({"op_gamma_len": math.inf}, ["op_gamma_len"]))
@example(({"initial_value": math.inf}, ["initial_value"]))
@example(({"T": 3, "X": (2,), "pvism_solutes": (-1, 0.5), "operator": "none"},
          ["T", "X", "pvism_solutes"]))
@example(({"T": 2**53 + 1}, ["T"]))
@example(({"X": (10**400,)}, ["X"]))
@example(({"N": (256.0,)}, ["N"]))
@example(({"epsilon": "0.1"}, ["epsilon"]))
def test_every_config_the_constructor_accepts_reads_back(drawn):
    kwargs, names = drawn
    try:
        cfg = RunConfig(**kwargs)
    except ConfigError as exc:
        assert names_one_of(str(exc), names), (str(exc), names)
        return
    assert parse_config(format_config(cfg)) == cfg


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "key", ["tol", "op_gamma_len", "op_delta", "initial_value", "lo", "hi", "pvism_solutes"])
def test_a_float_that_is_not_finite_is_refused_naming_its_field(key, value):
    kwargs = {"operator": "none", key: (0.0, value)} if key == "pvism_solutes" else {key: value}
    with pytest.raises(ConfigError) as exc_info:
        RunConfig(**kwargs)
    assert str(exc_info.value) == f"{key} must be finite, got {value!r}"


@pytest.mark.parametrize("kwargs, message", [
    ({"T": math.nan}, "T must be positive and finite, got nan"),
    ({"snapshot_times": (math.nan,)}, "snapshot_times must lie in [0, T = 10.0], got nan"),
    ({"epsilon": math.nan}, "epsilon must be positive, got nan"),
    ({"gamma": math.inf}, "gamma must be finite and >= 0, got inf"),
    ({"tol": -math.inf}, "tol must be >= 0, got -inf"),
    ({"X": (math.nan,)}, "half extent must be positive and finite, got nan"),
], ids=["T", "snapshot_times", "epsilon", "gamma", "tol", "X"])
def test_a_field_with_its_own_check_keeps_its_message_for_a_float_that_is_not_finite(
    kwargs, message
):
    with pytest.raises(ConfigError) as exc_info:
        RunConfig(**kwargs)
    assert str(exc_info.value) == message


def test_no_config_value_is_a_bool():
    # A bool word is no value of any key: for a float key it is a malformed float.
    assert not any(isinstance(value, bool) for value in vars(RunConfig()).values())
    with pytest.raises(ConfigError) as exc_info:
        parse_config("tol = true\n")
    assert str(exc_info.value) == "line 1: key 'tol' expects float, got 'true'"


@pytest.mark.parametrize("scale", ["desk", "paper"])
@pytest.mark.parametrize("name", list(PRESET_GAMMAS))
def test_every_coarsening_preset_is_a_valid_config_that_reads_back(name, scale):
    preset = coarsening_preset(name, scale)
    assert parse_config(format_config(preset)) == preset


def test_a_bracketed_list_is_refused_naming_its_key():
    # A list is what format_config writes: items separated by commas, nothing around them.
    with pytest.raises(ConfigError) as exc_info:
        parse_config("N = [8,8]\n")
    assert str(exc_info.value) == "line 1: key 'N' expects int, got '[8'"


@pytest.mark.parametrize("value", ["true", "false"])
def test_the_retired_extension_is_an_unknown_key_whatever_its_value(value):
    # Not a field either, so RunConfig cannot be given it in Python.
    with pytest.raises(ConfigError) as exc_info:
        parse_config(f"N = 16\nextension = {value}\n")
    assert str(exc_info.value) == "line 2: unknown key 'extension'"
    assert "extension" not in {f.name for f in fields(RunConfig)}
    with pytest.raises(TypeError):
        RunConfig(extension=value == "true")


def test_format_writes_the_shortest_text_of_each_float():
    lines = format_config(coarsening_preset("g500")).splitlines()
    assert {"omega = 0.3", "hi = 0.8", "op_gamma_len = 0.1", "gamma = 500.0"} <= set(lines)


TOO_LONG = "an int too long to write as text (more than 4300 digits)"


@pytest.mark.parametrize(
    "make, message",
    [(lambda: RunConfig(f="Cubic"), "f must be one of ('cubic', 'linear'), got 'Cubic'"),
     (lambda: RunConfig(operator="helmholz"), "operator must be one of ('inverse_laplacian', "
      "'helmholtz', 'garnet_film', 'custom', 'none'), got 'helmholz'"),
     (lambda: RunConfig(initial="Random"), "initial must be one of ('random', 'disk', "
      "'constant', 'file', 'cavity'), got 'Random'"),
     (lambda: RunConfig(T=math.inf), "T must be positive and finite, got inf"),
     (lambda: RunConfig(tol=-1.0), "tol must be >= 0, got -1.0"),
     (lambda: replace(RunConfig(), snapshot_times=(20.0,)),
      "snapshot_times must lie in [0, T = 10.0], got 20.0"),
     (lambda: RunConfig(pvism_solutes=(0.0,)),
      "pvism_solutes needs operator = none, not inverse_laplacian"),
     # Values that a config line cannot hold, or not read back equal.
     (lambda: RunConfig(seed=True), "seed must be an int, got True"),
     (lambda: RunConfig(monitor_every=2.5), "monitor_every must be an int, got 2.5"),
     (lambda: RunConfig(N=[256]), "N must be a tuple, got [256]"),
     (lambda: RunConfig(N=(np.int64(256),)), "N must be an int, got np.int64(256)"),
     (lambda: RunConfig(gamma=np.float64(0.1)),
      "gamma must be a float or an int that a float holds exactly, got np.float64(0.1)"),
     (lambda: RunConfig(tol=True),
      "tol must be a float or an int that a float holds exactly, got True"),
     (lambda: RunConfig(T=2**53 + 1),
      "T must be a float or an int that a float holds exactly, got 9007199254740993"),
     # Python writes an int of at most sys.get_int_max_str_digits() digits as text.
     (lambda: RunConfig(seed=10**5000), f"seed must be an int, got {TOO_LONG}"),
     (lambda: RunConfig(blocks=10**5000), f"blocks must be an int, got {TOO_LONG}"),
     (lambda: RunConfig(monitor_every=10**5000), f"monitor_every must be an int, got {TOO_LONG}"),
     (lambda: RunConfig(N=(10**5000,)), f"N must be an int, got {TOO_LONG}"),
     (lambda: RunConfig(N=[10**5000]), f"N must be a tuple, got a list holding {TOO_LONG}"),
     (lambda: RunConfig(T=-10**5000),
      f"T must be a float or an int that a float holds exactly, got {TOO_LONG}")],
    ids=["f", "operator", "initial", "T", "tol", "replace", "solutes", "bool-seed",
         "float-monitor_every", "list-N", "int64-N", "float64-gamma", "bool-tol", "inexact-T",
         "long-seed", "long-blocks", "long-monitor_every", "long-N", "list-long-N", "long-T"],
)
def test_a_config_made_in_python_is_checked_as_a_file_is(make, message):
    with pytest.raises(ConfigError) as exc_info:
        make()
    assert str(exc_info.value) == message


def test_every_key_is_its_field_name():
    names = [f.name for f in fields(RunConfig)]
    for cfg in (RATE_STUDY, SOLVATION):
        assert [line.split(" = ")[0] for line in format_config(cfg).splitlines()] == names
    assert parse_config("operator = none\npvism_solutes = 0.0\n").pvism_solutes == (0.0,)


def test_the_solvation_comparison_is_a_config_that_reads_back():
    assert parse_config(format_config(SOLVATION)) == SOLVATION
    assert {"operator = none", "pvism_solutes = 0.0"} <= set(format_config(SOLVATION).splitlines())


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


def test_disk_start_is_the_tanh_disk_holding_omega():
    # A disk at the origin of area omega |T| (|T| = 2 here), its radius padded
    # by 0.1, with a tanh interface of width eps/3.
    cfg = RunConfig(N=(32, 16), X=(1.0, 0.5), omega=0.2, epsilon=0.1, initial="disk")
    x = -1.0 + (2.0 / 32) * np.arange(32)
    y = -0.5 + (1.0 / 16) * np.arange(16)
    r = np.sqrt(x[:, None] ** 2 + y[None, :] ** 2)
    r0 = math.sqrt(0.2 * 2.0 / math.pi) + 0.1
    expected = 0.5 + 0.5 * np.tanh((r0 - r) / (0.1 / 3.0))
    np.testing.assert_allclose(cfg.build_initial().values, expected,
                               rtol=0.0, atol=1e-15)


def test_initial_file_on_another_box_is_refused_naming_both_grids(tmp_path):
    path = str(tmp_path / "start.csv")
    save_snapshot(path, GridField(PeriodicGrid((16,), (2.0,)), np.full(16, 0.5)), t=0.0)
    cfg = RunConfig(N=(16,), initial="file", initial_file=path)
    with pytest.raises(ConfigError) as exc_info:
        cfg.build_initial()
    assert str(exc_info.value) == (
        "initial_file grid N = (16,), X = (2.0,) does not match the config's "
        "N = (16,), X = (1.0,)"
    )


@pytest.mark.parametrize(
    "key, value",
    [("initial_file", "runs#1"), ("op_symbol_file", " spaced "), ("initial_file", "runs\n"),
     ("initial_file", "a\nb"), ("op_symbol_file", "a\rb"), ("op_symbol_file", "tab\t")],
)
def test_a_string_a_config_line_cannot_hold_is_refused_when_the_config_is_made(key, value):
    message = (f"{key} must be a string with no '#', no line break and no whitespace at "
               f"either end, got {value!r}")
    for make in (lambda: RunConfig(**{key: value}), lambda: replace(RunConfig(), **{key: value})):
        with pytest.raises(ConfigError) as exc_info:
            make()
        assert str(exc_info.value) == message


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
