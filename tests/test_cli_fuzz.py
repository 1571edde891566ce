"""CLI fuzz test: mutated flags and CSV inputs never end in a traceback.

Each example starts from a valid ``estimate``, ``infer``, ``sensitivity``
or ``cic`` command line and a small valid panel file, mutates some flag
values and some CSV bytes, and runs ``cli.main`` in this process.  Every
run must exit 0, 1, 2 or 3 (argparse's own usage errors exit 2) and print
no traceback.  Table tests run ``simulate``, every other subcommand on a
committed panel, and ``infer`` and ``sensitivity`` in summary mode, with
every flag they read set to each of a list of awkward values, and check
the output and the warnings as well as the exit code.  Nothing here
starts a worker process.
"""

from __future__ import annotations

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antebounds.cli import main
from golden_simulate import LONG_CSV, WIDE_CSV

WIDE = ["unit_id,y0,y1,d,stratum"] + [
    f"u{i},{0.1 * i:.3f},{0.3 + 0.17 * i + 0.4 * (i % 2):.3f},{i % 2},{'AB'[i % 3 == 0]}"
    for i in range(12)
]
LONG = ["unit_id,t,y,d"] + [
    row
    for i in range(12)
    for row in (
        f"u{i},0,{0.05 * i:.3f},{i % 2}",
        f"u{i},1,{0.2 + 0.11 * i + 0.3 * (i % 2):.3f},{i % 2}",
    )
]

# command -> (valid argv after the command, the file layout it reads)
BASE = {
    "estimate": (["--pi", "const:0.4", "--format", "json"], "wide"),
    "infer": (
        ["--pi", "const:0.4", "--sign-mu", "pos", "--sign-tau", "neg", "--format", "json"], "wide"
    ),
    "sensitivity": (
        ["--pi-grid", "0,0.3,0.6", "--epsilon-grid", "0,0.5", "--format", "json"], "wide"
    ),
    "cic": (["--q", "0.25,0.5,0.75", "--pi", "0.3", "--format", "json"], "long"),
}

TOKENS = st.one_of(
    st.sampled_from([
        "", "0", "1", "-1", "0.5", "0.999", "1e308", "-1e308", "1e-320", "nan", "inf", "-inf",
        "const:0.4", "const:1", "const:nan", "const:-0.1", "const:", "treatment-ratio", "stratum",
        "pos", "neg", "zero", "wide", "long", "text", "json", "identity", "indicator:0.5",
        "indicator:x", "0,0.5,1", ",", "0,,0.9", "0.1,nan", "m=1", "se=0", "se=-1", "n=5",
        "m=nan", "x=1", "=", "--", "-", "--bogus", "--format",
    ]),
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=8),
)
FLAGS = st.sampled_from([
    "--pi", "--g", "--sign-mu", "--sign-tau", "--epsilon", "--layout", "--format", "--alpha",
    "--pi-grid", "--epsilon-grid", "--q", "--input", "--summary", "--auto-flip-sign",
])


@st.composite
def argv_mutations(draw, base: list[str]) -> list[str]:
    argv = list(base)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["replace", "drop", "append", "append_pair"]))
        if kind == "replace" and argv:
            argv[draw(st.integers(0, len(argv) - 1))] = draw(TOKENS)
        elif kind == "drop" and argv:
            del argv[draw(st.integers(0, len(argv) - 1))]
        elif kind == "append":
            argv.append(draw(st.one_of(FLAGS, TOKENS)))
        else:
            argv += [draw(FLAGS), draw(TOKENS)]
    return argv


CELLS = st.sampled_from(
    ["", "nan", "inf", "-inf", "1e400", "x", "2", "-1", "0", "1", "A", '"', "1,2"]
)


@st.composite
def csv_mutations(draw, lines: list[str]) -> str:
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["cell", "drop", "blank", "dup", "truncate", "header"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if kind == "cell" and lines:
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(CELLS)
            lines[i] = ",".join(cells)
        elif kind == "drop" and lines:
            del lines[i]
        elif kind == "blank":
            lines.insert(i, "")
        elif kind == "dup" and lines:
            lines.insert(i, lines[i])
        elif kind == "truncate" and lines:
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif kind == "header" and lines:
            lines[0] = draw(st.sampled_from(["", "unit_id,y0,y1", "a,b,c,d", "unit_id,t,y,d,d"]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(BASE)))
    flags, layout = BASE[command]
    csv_text = draw(csv_mutations(WIDE if layout == "wide" else LONG))
    prefix = [command]
    if command in ("infer", "sensitivity") and draw(st.booleans()):
        prefix += ["--summary", "m=0.013", "se=0.0046"]
        if command == "infer":
            flags = flags + ["--pi", "const:0.5"]
    else:
        prefix += ["--input", "{csv}"]
        if layout == "long" and command != "cic":
            prefix += ["--layout", "long"]
    return csv_text, draw(argv_mutations(prefix + flags))


@pytest.mark.parametrize("flags", [["--pi", "banana"], ["--pi", "const:0.5"], ["--epsilon", "0.2"]])
def test_sensitivity_rejects_infer_only_flags(capsys, flags):
    argv = ["sensitivity", "--summary", "m=0.013", "se=0.0046", "--pi-grid", "0.1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + flags)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# a prefix of a longer flag is not read as that flag
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scenario", "benchmark", "--lambda", "0.3"],
        ["estimate", "--input", "panel.csv", "--pi", "const:0.4", "--form", "json"],
        ["infer", "--input", "panel.csv", "--pi", "const:0.4", "--sign-m", "pos"],
        ["cic", "--input", "panel.csv", "--q", "0.5", "--pi", "0.3", "--form", "json"],
    ],
)
def test_abbreviated_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "panel.csv"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_run_exits_in_contract_without_traceback(csv_path, invocation):
    csv_text, argv = invocation
    csv_path.write_text(csv_text, encoding="utf-8")
    argv = [str(csv_path) if tok == "{csv}" else tok for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue(), (argv, csv_text, err.getvalue())


def _no_constants(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _run_in_contract(argv: list[str]) -> tuple[int, dict | None]:
    """Run ``argv`` and check the exit contract: no Python warning, no
    traceback or internal error; exit 0 or 1 prints strict JSON and nothing
    on stderr; any other exit prints nothing on stdout and one typed error
    line on stderr (argparse's usage text aside).  Returns the exit code and
    the parsed report (None on an error exit)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    where = (argv, code, out[:200], err)
    assert raised == [], where
    assert "internal error" not in err and "Traceback" not in err, where
    if code in (0, 1):
        assert err == "", where
        return code, json.loads(out, parse_constant=_no_constants)
    assert code in (2, 3) and out == "", where
    lines = err.splitlines()
    typed = len(lines) == 1 and lines[0].startswith(("error:", "numerical failure:"))
    usage = code == 2 and lines[-1].startswith(f"antebounds {argv[0]}: error:")
    assert typed or usage, where
    return code, None


# ``simulate``: every flag a scenario reads, at each awkward value.  A
# threshold verdict (exit 1) still prints its report.
SIMULATE_COMMON = [
    "--n", "--seed", "--mu", "--tau", "--p-treat", "--noise-sd", "--noise-rho",
    "--noise-dist", "--delta", "--coverage-threshold",
]
SIMULATE_FLAGS = {
    "benchmark": ["--lambda-grid", "--pi", "--alpha", "--reps", "--workers"],
    "imperfect": ["--lam", "--epsilon"],
    "toy": ["--toy-alpha", "--toy-power"],
    "staggered": ["--lam", "--cohort-shares", "--periods", "--e", "--s", "--tpost"],
    "identity": ["--lam", "--tau1", "--tau2", "--reps"],
}
SIMULATE_VALUES = ["", ",", "nan", "inf", "-inf", "-1", "0", "1e400", "1e308", "abc"]


@pytest.mark.parametrize(
    "scenario,flag",
    [(s, f) for s, flags in SIMULATE_FLAGS.items() for f in SIMULATE_COMMON + flags],
)
def test_simulate_flag_values_keep_the_exit_contract(scenario, flag):
    for value in SIMULATE_VALUES:
        argv = ["simulate", "--scenario", scenario, "--n", "24", "--reps", "4",
                "--lambda-grid", "0", "--workers", "1", flag, value]
        code, report = _run_in_contract(argv)
        if report is not None:
            results = report["results"]
            verdict = results.get("verdict", "pass" if results.get("passed") else "fail")
            assert (code == 1) == (verdict == "fail"), (flag, value, code)


@st.composite
def simulate_settings(draw) -> list[str]:
    """A ``simulate`` command line with its draw settings at joint extremes:
    samples small enough to have no treated or no control unit, and noise
    small enough to make a standard error 0."""
    scenario = draw(st.sampled_from(sorted(SIMULATE_FLAGS)))
    extreme = lambda values: draw(st.sampled_from(values))
    return [
        "simulate", "--scenario", scenario, "--workers", "1", "--lambda-grid", "0",
        "--n", str(draw(st.integers(4, 12))), "--reps", str(draw(st.integers(2, 4))),
        "--seed", str(draw(st.integers(0, 2**32))),
        "--p-treat", extreme(["0.001", "0.01", "0.3", "0.5", "0.99", "0.999"]),
        "--noise-sd", extreme(["1e-300", "1e-12", "1", "1e150"]),
        "--lam", extreme(["0", "0.5", "1"]),
    ]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(simulate_settings())
def test_simulate_joint_settings_keep_the_exit_contract(argv):
    code, report = _run_in_contract(argv)
    if report is not None:
        results = report["results"]
        verdict = results.get("verdict", "pass" if results.get("passed") else "fail")
        assert (code == 1) == (verdict == "fail"), argv


# ``infer`` and ``sensitivity`` in summary mode: every flag they read, at
# each awkward value.  A key of --summary is set through its own token; the
# value of --pi goes after ``const:``.  Neither command has a threshold, so
# exit 1 never occurs, and a sensitivity report has a row for every point
# of the requested grids.
SUMMARY_ARGV = {
    "infer": ["--pi", "const:0.4", "--format", "json"],
    "sensitivity": ["--pi-grid", "0,0.3", "--epsilon-grid", "0,0.5", "--format", "json"],
}
SUMMARY_FLAGS = {
    "infer": ["m", "se", "n", "--pi", "--epsilon", "--alpha", "--sign-mu", "--sign-tau"],
    "sensitivity": ["m", "se", "n", "--pi-grid", "--epsilon-grid", "--alpha", "--sign-mu",
                    "--sign-tau"],
}
SUMMARY_VALUES = SIMULATE_VALUES + ["1e-320", "0.9", "-0.5"]


def _summary_argv(command: str, flag: str, value: str) -> list[str]:
    summary = {"m": "0.013", "se": "0.0046"}
    argv = [command, *SUMMARY_ARGV[command]]
    if flag in ("m", "se", "n"):
        summary[flag] = value
    else:
        argv += [flag, f"const:{value}" if flag == "--pi" else value]
    return argv + ["--summary", *(f"{k}={v}" for k, v in summary.items())]


@pytest.mark.parametrize(
    "command,flag", [(c, f) for c, flags in SUMMARY_FLAGS.items() for f in flags]
)
def test_summary_flag_values_keep_the_exit_contract(command, flag):
    for value in SUMMARY_VALUES:
        argv = _summary_argv(command, flag, value)
        code, report = _run_in_contract(argv)
        assert code != 1, argv
        if report is None:
            continue
        results, config = report["results"], report["manifest"]["config"]
        if command == "sensitivity":
            # an empty --epsilon-grid is accepted on purpose: it means none
            points = len(config["pi_grid"]) * len(config["epsilon_grid"] or [None])
            assert points > 0 and len(results["rows"]) == points, argv
        else:
            cs = results["confidence_set"]
            assert cs["lower"] <= cs["upper"], argv


@pytest.mark.parametrize(
    "command,grid", [("sensitivity", ["--pi-grid", "0,0.9"]), ("infer", ["--pi", "const:0.9"])]
)
def test_overflowing_width_keeps_the_exit_contract(command, grid):
    # 1e308 / (1 - 0.9) overflows float64: one error line, no numpy warning
    argv = [command, "--summary", "m=1e308", "se=1", "--sign-tau", "pos", *grid,
            "--format", "json"]
    code, report = _run_in_contract(argv)
    assert (code, report) == (2, None)


# ``estimate``, ``infer`` and ``sensitivity`` on a committed panel, and
# ``cic`` on the same panel in long layout: every flag that takes a value,
# at each awkward value.  The value of --pi goes after ``const:`` (except
# for cic, whose --pi is a number) and that of --g after ``indicator:``.
PANEL_ARGV = {
    "estimate": ["--input", WIDE_CSV, "--pi", "const:0.4"],
    "infer": ["--input", WIDE_CSV, "--pi", "const:0.4"],
    "sensitivity": ["--input", WIDE_CSV, "--pi-grid", "0,0.3", "--epsilon-grid", "0,0.5"],
    "cic": ["--input", LONG_CSV, "--q", "0.25,0.5", "--pi", "0.3"],
}
_CONTRAST_FLAGS = ["--input", "--layout", "--g", "--sign-mu", "--sign-tau", "--format"]
PANEL_FLAGS = {
    "estimate": _CONTRAST_FLAGS + ["--pi", "--epsilon"],
    "infer": _CONTRAST_FLAGS + ["--pi", "--epsilon", "--alpha"],
    "sensitivity": _CONTRAST_FLAGS + ["--alpha", "--pi-grid", "--epsilon-grid"],
    "cic": ["--input", "--q", "--pi", "--sign-mu", "--sign-tau", "--format"],
}


# The awkward values each flag accepts on purpose; every other value is an
# error exit.  All of them lie in the flag's domain.
_UNIT = {"0", "1e-320", "0.9"}  # a cap or a wrong-anticipation rate in [0, 1)
PANEL_ACCEPTED = {
    **{key: _UNIT for key in [("estimate", "--pi"), ("infer", "--pi"), ("cic", "--pi"),
                              ("estimate", "--epsilon"), ("infer", "--epsilon"),
                              ("sensitivity", "--pi-grid")]},
    # an empty --epsilon-grid means no epsilon grid
    ("sensitivity", "--epsilon-grid"): _UNIT | {""},
    ("infer", "--alpha"): {"0.9"},  # alpha in (0.5, 1)
    ("sensitivity", "--alpha"): {"0.9"},
    ("cic", "--q"): {"1e-320", "0.9"},  # quantile levels in (0, 1)
    # any finite indicator threshold; one outside the outcomes' range
    # (0.167 to 2.17) makes every g(y) equal, so the point contrast is 0, and
    # the standard error is 0 too: a numerical failure (exit 3) where an
    # SE is needed
    ("estimate", "--g"): {"-1", "0", "1e308", "1e-320", "0.9", "-0.5"},
    ("infer", "--g"): {"0.9"},
    ("sensitivity", "--g"): {"0.9"},
}


def _panel_argv(command: str, flag: str, value: str) -> list[str]:
    if flag == "--pi" and command != "cic":
        value = f"const:{value}"
    elif flag == "--g":
        value = f"indicator:{value}"
    return [command, *PANEL_ARGV[command], "--format", "json", flag, value]


@pytest.mark.parametrize(
    "command,flag", [(c, f) for c, flags in PANEL_FLAGS.items() for f in flags]
)
def test_panel_flag_values_keep_the_exit_contract(command, flag):
    for value in SUMMARY_VALUES:
        argv = _panel_argv(command, flag, value)
        code, report = _run_in_contract(argv)
        assert (code == 0) == (value in PANEL_ACCEPTED.get((command, flag), ())), argv
        assert code in (0, 2) or (code == 3 and flag == "--g"), argv
        if report is None:
            continue
        results, config = report["results"], report["manifest"]["config"]
        if command == "sensitivity":
            points = len(config["pi_grid"]) * len(config["epsilon_grid"] or [None])
            assert len(results["rows"]) == points, argv
        elif command == "cic":
            assert len(results["rows"]) == len(config["q"]), argv
        else:
            interval = results["interval"]
            assert interval["lower"] <= interval["upper"], argv
