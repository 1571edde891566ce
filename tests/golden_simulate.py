"""Golden CLI runs: the argv table and a writer.

Each case runs ``cli.main`` in this process and keeps its stdout, stderr
and exit code under ``tests/golden/<command>/``; ``test_golden.py`` runs
the same cases and compares the bytes.  Inputs the cases read live in
``tests/golden/inputs/``.  Regenerate the files by hand, only when a
change to the output is intended and named in CHANGES.md:

    PYTHONPATH=src python tests/golden_simulate.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from antebounds.cli import main

GOLDEN_ROOT = Path(__file__).parent / "golden"
STRATA_CSV = str(GOLDEN_ROOT / "inputs" / "strata.csv")

_SMALL = ["--n", "60", "--reps", "40"]
_SUMMARY = ["--summary", "m=0.013", "se=0.0046"]
_GRIDS = ["--pi-grid", "0,0.1,0.5,0.9", "--epsilon-grid", "0,0.25,1"]

# name -> argv; the first argv element names the directory of the files
CASES = {
    # simulate: every scenario, benchmark on 1 and 2 workers, a
    # falsification run, a threshold failure (student_t, exit 1), a typed
    # usage error and a same-sign regime
    "benchmark_w1": ["simulate", "--scenario", "benchmark", *_SMALL, "--workers", "1"],
    "benchmark_w2": ["simulate", "--scenario", "benchmark", *_SMALL, "--workers", "2"],
    "benchmark_student_t": [
        "simulate", "--scenario", "benchmark", *_SMALL, "--noise-dist", "student_t",
        "--lambda-grid", "0.1,0.3", "--pi", "0.3", "--alpha", "0.9",
    ],
    "benchmark_falsify": [
        "simulate", "--scenario", "benchmark", *_SMALL, "--lambda-grid", "0,0.7",
        "--falsify",
    ],
    "benchmark_unfalsified_violation": [
        "simulate", "--scenario", "benchmark", *_SMALL, "--lambda-grid", "0,0.7",
    ],
    "imperfect": ["simulate", "--scenario", "imperfect", "--n", "400", "--seed", "5"],
    "toy": ["simulate", "--scenario", "toy", "--n", "400", "--seed", "6"],
    "staggered": ["simulate", "--scenario", "staggered", "--n", "400", "--seed", "7"],
    "identity": ["simulate", "--scenario", "identity", *_SMALL, "--seed", "8"],
    "benchmark_same_sign": [
        "simulate", "--scenario", "benchmark", *_SMALL, "--mu", "0.3", "--tau", "0.2",
        "--seed", "9",
    ],
    # estimate: per-stratum sets from a committed panel, with the flags
    # that each stratum reads
    "stratum_json": ["estimate", "--input", STRATA_CSV, "--pi", "stratum", "--format", "json"],
    "stratum_text": ["estimate", "--input", STRATA_CSV, "--pi", "stratum"],
    "stratum_epsilon_json": [
        "estimate", "--input", STRATA_CSV, "--pi", "stratum", "--epsilon", "0.3",
        "--format", "json",
    ],
    "stratum_contradiction_text": [
        "estimate", "--input", STRATA_CSV, "--pi", "stratum", "--sign-mu", "neg",
    ],
    "stratum_flip_json": [
        "estimate", "--input", STRATA_CSV, "--pi", "stratum", "--sign-mu", "neg",
        "--auto-flip-sign", "--format", "json",
    ],
    # infer in summary mode: both sign regimes, imperfect anticipation, a
    # known-zero tau, a sign contradiction, an overflowing width and a
    # usage error
    "summary_opposite_json": ["infer", *_SUMMARY, "--pi", "const:0.5", "--format", "json"],
    "summary_same_text": ["infer", *_SUMMARY, "--pi", "const:0.5", "--sign-tau", "pos"],
    "summary_imperfect_json": [
        "infer", *_SUMMARY, "--pi", "const:0.3", "--epsilon", "0.25", "--sign-tau", "pos",
        "--format", "json",
    ],
    "summary_zero_tau_json": [
        "infer", *_SUMMARY, "--pi", "const:0.5", "--sign-tau", "zero", "--format", "json",
    ],
    "summary_contradiction_text": [
        "infer", "--summary", "m=-0.013", "se=0.0046", "--pi", "const:0.5",
    ],
    "summary_overflow": [
        "infer", "--summary", "m=1e308", "se=1", "--pi", "const:0.9", "--sign-tau", "pos",
    ],
    "summary_needs_const_pi": ["infer", *_SUMMARY, "--pi", "treatment-ratio"],
    # sensitivity in summary mode: both sign regimes with an epsilon grid,
    # JSON and text, an unsorted pi grid with a sign contradiction, and an
    # overflowing width
    "sweep_opposite_json": ["sensitivity", *_SUMMARY, *_GRIDS, "--format", "json"],
    "sweep_opposite_text": ["sensitivity", *_SUMMARY, *_GRIDS],
    "sweep_same_json": ["sensitivity", *_SUMMARY, *_GRIDS, "--sign-tau", "pos", "--format", "json"],
    "sweep_same_text": ["sensitivity", *_SUMMARY, *_GRIDS, "--sign-tau", "pos"],
    "sweep_contradiction_text": [
        "sensitivity", "--summary", "m=-0.5", "se=0.2", "--pi-grid", "0.9,0,0.3",
    ],
    "sweep_overflow": [
        "sensitivity", "--summary", "m=1e308", "se=1", "--pi-grid", "0,0.9",
        "--sign-tau", "pos",
    ],
}


def golden_dir(name: str) -> Path:
    return GOLDEN_ROOT / CASES[name][0]


def run_case(argv: list[str]) -> tuple[int, bytes, bytes]:
    """(exit code, stdout bytes, stderr bytes) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def write_goldens() -> None:
    codes: dict[Path, dict[str, int]] = {}
    for name, argv in CASES.items():
        where = golden_dir(name)
        where.mkdir(parents=True, exist_ok=True)
        code, out, err = run_case(argv)
        (where / f"{name}.stdout").write_bytes(out)
        (where / f"{name}.stderr").write_bytes(err)
        codes.setdefault(where, {})[name] = code
    for where, by_name in codes.items():
        (where / "exit_codes.json").write_text(json.dumps(by_name, indent=2) + "\n")


if __name__ == "__main__":
    write_goldens()
