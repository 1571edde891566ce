"""CLI fuzz test: mutated flags and CSV inputs never end in a traceback.

Each example starts from a valid ``estimate``, ``infer``, ``sensitivity``
or ``cic`` command line and a small valid panel file, mutates some flag
values and some CSV bytes, and runs ``cli.main`` in this process.  Every
run must exit 0, 1, 2 or 3 (argparse's own usage errors exit 2) and print
no traceback.  Nothing here starts a worker process.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antebounds.cli import main

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
