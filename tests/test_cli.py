"""End-to-end checks for the experiment runner.

Exit statuses, config validation diagnostics, and the reproducibility
contract (fixed field order, 17-digit floats) are all part of the
interface, so they get tested like any other behavior.
"""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiperturb import cli
from semiperturb.cli import (
    _SUBCOMMANDS,
    SUBCOMMANDS,
    build_parser,
    deterministic_json,
    emit_convergence,
    load_config,
    main,
)


# ---------------------------------------------------------------------------
# serialization helpers


def test_deterministic_json_layout():
    doc = {"schema": 1, "value": 0.1, "flag": True, "name": "x",
           "items": [1.0, None]}
    text = deterministic_json(doc)
    assert json.loads(text) == doc
    # insertion order is the field order
    assert text.index('"schema"') < text.index('"value"') < text.index('"flag"')
    assert "0.10000000000000001" in text


def test_deterministic_json_rejects_non_finite():
    with pytest.raises(ValueError):
        deterministic_json({"x": float("inf")})
    with pytest.raises(TypeError):
        deterministic_json({"x": object()})


def test_emit_convergence_orders():
    rows = [(4e-3, 1.6e-5), (2e-3, 4e-6), (1e-3, 1e-6)]
    buf = io.StringIO()
    emit_convergence(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "dt,error,order"
    assert lines[1].endswith(",")  # no order for the first level
    for line in lines[2:]:
        order = float(line.split(",")[2])
        assert math.isclose(order, 2.0, abs_tol=1e-12)


def test_emit_convergence_exact_marker():
    rows = [(4e-3, 1e-4), (2e-3, 0.0), (1e-3, 0.0)]
    buf = io.StringIO()
    emit_convergence(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[2].split(",")[2] == "exact"
    assert lines[3].split(",")[2] == "exact"
    # a floor marks every row at or below it exact, and a coarser error
    # below it is taken at the floor
    buf = io.StringIO()
    emit_convergence([(4e-3, 1e-12), (2e-3, 4e-10), (1e-3, 1e-10)], buf,
                     floor=1e-10)
    orders = [line.split(",")[2]
              for line in buf.getvalue().strip().splitlines()[1:]]
    assert orders[0] == orders[2] == "exact"
    assert float(orders[1]) == math.log(1e-10 / 4e-10) / math.log(2.0)


def test_emit_convergence_preconditions():
    with pytest.raises(ValueError):
        emit_convergence([(4e-3, 1e-4), (2e-3, 1e-5)], io.StringIO())
    with pytest.raises(ValueError):
        emit_convergence([(1e-3, 1e-4), (2e-3, 1e-5), (4e-3, 1e-6)],
                         io.StringIO())
    # a negative error would read as exact: it, NaN and inf are refused
    for bad in (-1e-4, math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            emit_convergence([(4e-3, bad), (2e-3, 1e-5), (1e-3, 1e-6)],
                             io.StringIO())


# ---------------------------------------------------------------------------
# config resolution


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dt": 0.005, "seed": 7}))
    args = build_parser().parse_args(
        ["matrix-demo", "--config", str(path), "--dt", "0.01"])
    cfg = load_config(args)
    assert cfg["dt"] == 0.01
    assert cfg["seed"] == 7
    assert cfg["profile"] == "fast"


def test_unknown_config_key_exit_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bogus": 1}))
    code = main(["matrix-demo", "--config", str(path),
                 "--out", str(tmp_path)])
    assert code == 2


def test_bad_values_exit_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"atoms": [[0.0]]}))
    assert main(["transport-demo", "--config", str(path),
                 "--out", str(tmp_path)]) == 2
    assert main(["matrix-demo", "--dt", "-0.5", "--out", str(tmp_path)]) == 2
    path.write_text("not json")
    assert main(["matrix-demo", "--config", str(path),
                 "--out", str(tmp_path)]) == 2


def test_non_finite_values_exit_2(tmp_path, capsys):
    # json.load accepts NaN and Infinity; the config layer must not
    path = tmp_path / "cfg.json"
    path.write_text('{"atoms": [[0.0, NaN]]}')
    assert main(["transport-demo", "--config", str(path),
                 "--out", str(tmp_path)]) == 2
    assert "atoms:" in capsys.readouterr().err
    path.write_text('{"t_values": [Infinity]}')
    assert main(["matrix-demo", "--config", str(path),
                 "--out", str(tmp_path)]) == 2
    assert "t_values:" in capsys.readouterr().err
    # a NaN profile coefficient and an infinite initial slope
    path.write_text('{"g": {"breakpoints": [-1, 0, 1], '
                    '"pieces": [[0], [NaN, 1], [2, -1], [0]]}}')
    assert main(["transport-demo", "--config", str(path),
                 "--out", str(tmp_path)]) == 2
    assert "g: non-finite value nan" in capsys.readouterr().err
    path.write_text('{"initial": {"breakpoints": [-1, 0, 1], '
                    '"pieces": [[0], [1, Infinity], [1, -1], [0]]}}')
    assert main(["transport-demo", "--config", str(path),
                 "--out", str(tmp_path)]) == 2
    assert "initial: non-finite value inf" in capsys.readouterr().err
    assert not list(tmp_path.glob("*-report.json"))


@pytest.mark.parametrize("sub, config", [
    ("transport-demo", {"t": 10 ** 400}),
    ("transport-demo", {"atoms": [[-10 ** 400, 1]]}),
    ("matrix-demo", {"matrix": [[10 ** 400]], "perturbation": [[0]]}),
], ids=["time", "atom", "matrix"])
def test_integer_past_the_float_range_exits_2(tmp_path, capsys, sub,
                                              config):
    # json.load reads a long integer exactly; refused by name, not an
    # OverflowError traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([sub, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: {next(iter(config))}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config, numbers", [
    (["transport-demo", "--grid-spacing", "0.3"], {}, ("0.2", "0.3")),
    (["admissibility", "--grid-spacing", "0.5"], {}, ("0.2", "0.5")),
    (["implemented-demo"], {"t": 0.3333}, ("0.3333", "0.001")),
    (["matrix-demo", "--dt", "0.3"], {}, ("0.5", "0.3")),
], ids=["transport-spacing", "admissibility-spacing", "implemented-t",
        "matrix-dt"])
def test_off_lattice_time_is_a_config_error(tmp_path, capsys, argv, config,
                                            numbers):
    # a time the configured step does not divide: refused by name, no
    # traceback and no report
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(argv + ["--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "not a multiple" in err[0]
    assert all(v in err[0] for v in numbers)
    assert not list(tmp_path.glob("*-report.json"))


@pytest.mark.parametrize("subcommand, dt", [
    ("matrix-demo", "0.001"), ("implemented-demo", "0.001"),
    ("transport-demo", "0.002"), ("convergence", "0.004"),
])
def test_t0_below_one_step_is_a_config_error(tmp_path, capsys, subcommand,
                                             dt):
    # no full segment fits in t0: one named line, not a ZeroDivisionError
    assert main([subcommand, "--t0", "1e-12", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: t0=1e-12 is shorter than one step "
                   f"dt={dt}"]
    assert not list(tmp_path.glob("*-report.json"))


def test_steps_past_the_ceiling_are_a_config_error(tmp_path, capsys):
    # t = 0.5 is 5e299 steps of dt = 1e-300: refused by name before any
    # table or segment list is built, not an OverflowError
    assert main(["matrix-demo", "--t0", "1e-300", "--dt", "1e-300",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: t 0.5 is 5e+299 steps of dt=1e-300, "
                   "past the ceiling of 10000000 steps"]
    assert not list(tmp_path.glob("*-report.json"))


@pytest.mark.parametrize("config, numbers", [
    ({"atoms": [[1e300, 1.0]]}, ("nodes", "0.002")),
    ({"grid_spacing": 1e-9, "t": 1e-8}, ("nodes", "1e-09")),
], ids=["far-atom", "fine-spacing"])
def test_grid_past_the_ceiling_is_a_config_error(tmp_path, capsys,
                                                 capped_address_space,
                                                 config, numbers):
    # refused by name before any grid is allocated: no traceback, no report
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["transport-demo", "--config", str(path),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: grid of ")
    assert "exceeds the ceiling" in err[0]
    assert all(v in err[0] for v in numbers)
    assert not list(tmp_path.glob("*-report.json"))


def test_convergence_needs_three_levels(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"spacings": [4e-3, 2e-3]}))
    assert main(["convergence", "--config", str(path),
                 "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# each subcommand offers only the inputs it reads

# a valid value for each shared flag
_SHARED = {"--tol": "1e-3", "--seed": "1", "--dt": "1e-3",
           "--grid-spacing": "1e-3", "--t0": "0.2", "--profile": "fast"}
_OFFERED = {
    "matrix-demo": ["--tol", "--seed", "--dt", "--t0", "--profile"],
    "transport-demo": ["--tol", "--grid-spacing", "--t0", "--profile"],
    "implemented-demo": ["--tol", "--seed", "--dt", "--t0", "--profile"],
    "admissibility": ["--grid-spacing", "--t0", "--profile"],
    "convergence": ["--tol", "--t0", "--profile"],
}
_UNREAD = [(sub, flag) for sub in SUBCOMMANDS for flag in _SHARED
           if flag not in _OFFERED[sub]]


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_help_lists_only_the_flags_read(capsys, sub):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    flags = re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, re.M)
    assert flags == ["--config", "--out"] + _OFFERED[sub]


@pytest.mark.parametrize("sub, flag", _UNREAD)
def test_unread_flag_exits_2(tmp_path, capsys, sub, flag):
    with pytest.raises(SystemExit) as exc:
        main([sub, flag, _SHARED[flag], "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("sub, flag", _UNREAD)
def test_unread_config_key_exits_2(tmp_path, capsys, sub, flag):
    key = flag[2:].replace("-", "_")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: 1}))
    assert main([sub, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() \
        == [f"config error: {key}: unknown field for {sub}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, words", [
    ({"matrix": "abc", "perturbation": "x"},
     "matrix: expected a square list of rows"),
    ({"matrix": [[-1, 0], [0]], "perturbation": [[0, 0], [0, 0]]},
     "matrix: expected a square list of rows"),
    ({"matrix": [[-1, "x"], [0, -1]], "perturbation": [[0, 0], [0, 0]]},
     "matrix: row 0 has non-numeric value 'x'"),
    ({"matrix": [[-1, 0], [0, -1]], "perturbation": [[0, True], [0, 0]]},
     "perturbation: row 0 has non-numeric value True"),
    ({"t_values": [True]},
     "t_values: expected a number, got True"),
], ids=["not-a-list", "ragged", "string-entry", "bool-entry", "bool-time"])
def test_malformed_matrix_demo_config_exits_2(tmp_path, capsys, config,
                                              words):
    # refused by name: not a ValueError traceback, and t = True is not
    # run as t = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["matrix-demo", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {words}"]
    assert not (tmp_path / "out").exists()


# strings that some key reads as a valid choice
_CHOICES = {"fast", "full", "canonical", "sawtooth", "tent"}
_BAD_SCALAR = st.one_of(
    st.booleans(),
    st.text(max_size=6).filter(lambda s: s not in _CHOICES),
    st.just(math.nan),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-9),
)
# a bad scalar, or a nonempty list of them for the keys that read lists
_BAD_VALUE = st.one_of(_BAD_SCALAR,
                       st.lists(_BAD_SCALAR, min_size=1, max_size=3))
_ALL_KEYS = sorted({key for _, _, keys in _SUBCOMMANDS.values()
                    for key in keys})


@st.composite
def _refused_configs(draw):
    """(subcommand, config, the field its error names): one key the
    subcommand does not read, or one key it reads with a value of the
    wrong type or out of range."""
    sub = draw(st.sampled_from(SUBCOMMANDS))
    keys = _SUBCOMMANDS[sub][2]
    if draw(st.booleans()):
        key = draw(st.sampled_from([k for k in _ALL_KEYS if k not in keys])
                   | st.from_regex(r"[a-z_][a-z0-9_]{0,12}", fullmatch=True)
                   .filter(lambda k: k not in keys))
        return sub, {key: draw(st.integers(0, 3))}, key
    key = draw(st.sampled_from(keys))
    # matrix and perturbation alone are refused under matrix's name
    return sub, {key: draw(_BAD_VALUE)}, \
        "matrix" if key == "perturbation" else key


@settings(max_examples=150, deadline=None, database=None)
@given(case=_refused_configs())
def test_every_refused_config_exits_2_by_name(tmp_path_factory, case):
    # invalid by construction, so no draw runs a study or allocates
    sub, config, field = case
    tmp = tmp_path_factory.mktemp("cfg")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([sub, "--config", str(path), "--out", str(tmp / "out")])
    lines = err.getvalue().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"config error: {field}: ")
    assert not (tmp / "out").exists()


# atoms at k/10, |k| <= 40: those below -3 lie left of the window, so the
# grid's left edge follows them
_ATOM = st.tuples(st.integers(-40, -31) | st.integers(-40, 40),
                  st.sampled_from([0.25, -0.25, 0.5, -0.5])).map(
    lambda kw: [kw[0] / 10, kw[1]])


@st.composite
def _valid_configs(draw):
    """(subcommand, config) for transport-demo or admissibility, every
    value valid by construction."""
    sub = draw(st.sampled_from(["transport-demo", "admissibility"]))
    config = {"grid_spacing": draw(st.sampled_from([1e-2, 5e-3])),
              "t0": draw(st.sampled_from([0.1, 0.2])),
              "atoms": draw(st.lists(_ATOM, min_size=1, max_size=2)),
              "g": draw(st.sampled_from(["canonical", "sawtooth"]))}
    if sub == "transport-demo":
        config["t"] = draw(st.sampled_from([0.1, 0.2, 0.4]))
    return sub, config


@settings(max_examples=40, deadline=None, database=None)
@given(case=_valid_configs())
def test_every_valid_config_ends_in_a_report_or_a_named_refusal(
        tmp_path_factory, case):
    # a report (exit 0 or 1), one engine-refused line (exit 1) or one
    # config-error line (exit 2); never a traceback
    sub, config = case
    tmp = tmp_path_factory.mktemp("cfg")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([sub, "--config", str(path), "--out", str(tmp / "out")])
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("config error: ")
    elif lines:
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("engine refused the configuration: ")
    else:
        report = json.loads((tmp / "out" / f"{sub}-report.json").read_text())
        assert code == (0 if report["passed"] else 1)


# ---------------------------------------------------------------------------
# subcommand runs


def _report(tmp_path, name):
    with open(tmp_path / f"{name}-report.json") as fh:
        return json.load(fh)


def test_matrix_demo_defaults_pass(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_values": [0.5], "dt": 0.005}))
    code = main(["matrix-demo", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    report = _report(tmp_path, "matrix-demo")
    assert report["schema"] == 1
    assert report["passed"] is True
    gaps = [c for c in report["checks"] if c["name"].startswith("oracle-gap")]
    assert gaps and all(c["measured"] <= 1e-6 for c in gaps)
    csv = (tmp_path / "matrix-demo-gaps.csv").read_text().splitlines()
    assert csv[0] == "system,t,gap"


def test_matrix_demo_explicit_pair(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "matrix": [[-1.0, 0.0], [0.0, -2.0]],
        "perturbation": [[0.0, 0.1], [0.1, 0.0]],
        "t_values": [0.5], "dt": 0.005}))
    assert main(["matrix-demo", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    report = _report(tmp_path, "matrix-demo")
    assert any(c["name"] == "guard-explicit" for c in report["checks"])

    cfg.write_text(json.dumps({"matrix": [[-1.0, 0.0], [0.0, -2.0]],
                               "perturbation": [[0.0]]}))
    assert main(["matrix-demo", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2


def test_transport_demo_zero_measure_identity(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"atoms": []}))
    code = main(["transport-demo", "--config", str(cfg),
                 "--out", str(tmp_path)])
    assert code == 0
    report = _report(tmp_path, "transport-demo")
    gap = [c for c in report["checks"] if c["name"] == "oracle-gap"][0]
    assert gap["measured"] < 1e-12
    state = (tmp_path / "transport-demo-state.csv").read_text().splitlines()
    assert state[0] == "x,value"
    assert len(state) > 100


def test_transport_demo_guard_failure_exit_1(tmp_path):
    # canonical guard product is 2 t0, so t0 = 0.5 saturates it
    code = main(["transport-demo", "--t0", "0.5", "--out", str(tmp_path)])
    assert code == 1
    report = _report(tmp_path, "transport-demo")
    assert report["passed"] is False
    assert report["checks"][0]["name"] == "guard"
    assert not (tmp_path / "transport-demo-state.csv").exists()


def test_admissibility_pass_and_fail(tmp_path):
    assert main(["admissibility", "--out", str(tmp_path)]) == 0
    good = _report(tmp_path, "admissibility")
    assert good["config"]["report"]["admissible"] is True

    assert main(["admissibility", "--t0", "0.3", "--out", str(tmp_path)]) == 1
    bad = _report(tmp_path, "admissibility")
    failed = [c for c in bad["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["smallness-analytic"]
    assert math.isclose(failed[0]["measured"], 0.6, abs_tol=1e-12)
    assert bad["config"]["report"]["smallness_pass"] is False


def test_admissibility_without_regularizer_says_so(tmp_path):
    # the sawtooth has no regularizer: the landing cross-check cannot run,
    # and the report must not list it as passed
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"g": "sawtooth"}))
    assert main(["admissibility", "--config", str(path),
                 "--out", str(tmp_path)]) == 0
    report = _report(tmp_path, "admissibility")
    assert [c["name"] for c in report["checks"]] \
        == ["smallness-analytic", "smallness-observed"]
    assert report["config"]["regularized_cross_check"] \
        == "not run: g has no regularizer"

    assert main(["admissibility", "--out", str(tmp_path)]) == 0
    stock = _report(tmp_path, "admissibility")
    assert stock["checks"][0]["name"] == "lands-in-state-space"
    assert "regularized_cross_check" not in stock["config"]


def test_admissibility_route_that_does_not_land_is_reported(tmp_path):
    # weight 30 sends the regularized route out of the state space: the
    # report names the outcome with the curvature that tripped it, holds
    # no inf, and is written whole
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"atoms": [[0, 30]]}))
    assert main(["admissibility", "--config", str(path),
                 "--out", str(tmp_path)]) == 1
    text = (tmp_path / "admissibility-report.json").read_text()
    report = json.loads(text, parse_constant=pytest.fail)
    landing = report["config"]["report"]["landing"]
    assert landing["outcome"] == "did not land"
    assert landing["curvature"] > landing["threshold"] > 0
    check = report["checks"][0]
    assert check["name"] == "lands-in-state-space"
    assert check["pass"] is False
    assert (check["measured"], check["bound"]) \
        == (landing["curvature"], landing["threshold"])
    assert report["config"]["report"]["lands_in_state_space"] is False


def test_implemented_demo_passes(tmp_path):
    code = main(["implemented-demo", "--out", str(tmp_path)])
    assert code == 0
    report = _report(tmp_path, "implemented-demo")
    names = [c["name"] for c in report["checks"]]
    for expected in ("perturbed-vs-exponential", "extract-lift-roundtrip",
                     "non-multiplicative-rejected", "comparison-equality",
                     "pseudoresolvent", "hille-yosida", "euler-decreasing"):
        assert expected in names
    euler = (tmp_path / "implemented-demo-euler.csv").read_text().splitlines()
    assert euler[0] == "n,residual"
    residuals = [float(line.split(",")[1]) for line in euler[1:]]
    assert residuals == sorted(residuals, reverse=True)


def test_convergence_run_and_orders(tmp_path):
    code = main(["convergence", "--out", str(tmp_path)])
    assert code == 0
    report = _report(tmp_path, "convergence")
    for c in report["checks"]:
        assert c["measured"] >= 1.8
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "dt,error,order"
    assert len(lines) == 4


def test_convergence_at_the_roundoff_floor_passes(tmp_path, capsys):
    # the engine is exact here: every gap is 8.9e-16, below the floor of
    # refinement_study, so no order is taken from them (measured 0 and
    # FAIL before the floor)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "atoms": [[0.5, 1.0]],
        "g": {"breakpoints": [3], "pieces": [[0], [1]]},
        "t": 0.5, "spacings": [4e-3, 2e-3, 1e-3]}))
    code = main(["convergence", "--config", str(cfg), "--out",
                 str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0 and "FAIL" not in out
    report = _report(tmp_path, "convergence")
    assert max(report["config"]["gaps"]) < 1e-10
    assert [c["name"] for c in report["checks"]] \
        == ["order-level1-exact", "order-level2-exact"]
    # the CSV marks exact the rows the checks read as exact, and the
    # first row, which no check judges, by the same rule
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == ["exact"] * 3


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_values": [0.5], "dt": 0.005}))
    for out in (a, b):
        assert main(["matrix-demo", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
    assert ((a / "matrix-demo-report.json").read_bytes()
            == (b / "matrix-demo-report.json").read_bytes())
    assert ((a / "matrix-demo-gaps.csv").read_bytes()
            == (b / "matrix-demo-gaps.csv").read_bytes())


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_report_round_trip(tmp_path, monkeypatch, sub):
    # the report as built in memory, caught at its top-level rendering
    payloads = []
    render = cli.deterministic_json

    def caught(obj, indent=0):
        if indent == 0:
            payloads.append(obj)
        return render(obj, indent)

    monkeypatch.setattr(cli, "deterministic_json", caught)
    assert main([sub, "--profile", "fast", "--out", str(tmp_path)]) == 0
    monkeypatch.undo()
    assert len(payloads) == 1
    text = (tmp_path / f"{sub}-report.json").read_text()
    assert text == render(payloads[0]) + "\n"
    assert json.loads(text) == payloads[0]
    assert render(json.loads(text)) + "\n" == text
