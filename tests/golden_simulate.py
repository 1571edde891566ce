"""Golden runs of ``antebounds simulate``: the argv table and a writer.

Each case runs ``cli.main`` in this process and keeps its stdout, stderr
and exit code under ``tests/golden/simulate/``; ``test_golden.py`` runs
the same cases and compares the bytes.  Regenerate the files by hand,
only when a change to the output is intended and named in CHANGES.md:

    PYTHONPATH=src python tests/golden_simulate.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from antebounds.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden" / "simulate"

_SMALL = ["--n", "60", "--reps", "40"]

# name -> argv; every scenario, benchmark on 1 and 2 workers, a
# falsification run, a threshold failure (student_t, exit 1) and a typed
# usage error
CASES = {
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
}


def run_case(argv: list[str]) -> tuple[int, bytes, bytes]:
    """(exit code, stdout bytes, stderr bytes) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def write_goldens() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, argv in CASES.items():
        code, out, err = run_case(argv)
        (GOLDEN_DIR / f"{name}.stdout").write_bytes(out)
        (GOLDEN_DIR / f"{name}.stderr").write_bytes(err)
        codes[name] = code
    (GOLDEN_DIR / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    write_goldens()
