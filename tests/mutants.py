"""Mutation check: does the test suite notice a deliberate fault?

Run by hand from the root of the repository (pytest does not collect this
file):

    python tests/mutants.py          # every mutant
    python tests/mutants.py 3 7      # the mutants with these indices

Each mutant replaces one piece of text, which must occur exactly once, in
one source file.  It is applied to a fresh copy of ``src/``, ``tests/``,
``demos/`` and ``pyproject.toml`` in a temporary directory, where the
tests in ``TESTS`` run with a fixed ``--hypothesis-seed`` and stop at the
first failure.  A mutant is killed when a test fails and survives when
every test passes; a survivor needs a test that kills it, or a note in
CHANGES.md on why it is equivalent to the original.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PANEL = "src/antebounds/panel.py"
CIC = "src/antebounds/cic.py"
BOUNDS = "src/antebounds/bounds.py"
INFERENCE = "src/antebounds/inference.py"
CLI = "src/antebounds/cli.py"
TESTS = [
    "tests/test_panel.py",
    "tests/test_loader_oracle.py",
    "tests/test_metamorphic.py",
    "tests/test_cic.py",
    "tests/test_golden.py",
    "tests/test_bounds.py",
    "tests/test_inference.py",
    "tests/test_cli.py",
]
SEED = "20260808"

# (file, old text, new text, the fault it plants)
MUTANTS = [
    # the column kinds: each whole-chunk check, and the table that pairs
    # it with its row parser
    (PANEL, "if not np.isfinite(values).all():", "if not np.isfinite(values[1:]).all():",
     "the float check skips the first row of a chunk"),
    (PANEL, "if not _BINARY.issuperset(column):", "if not _BINARY.issuperset(column[1:]):",
     "the flag check skips the first row of a chunk"),
    (PANEL, '"".join(filter(None, column)).encode()',
     '"".join(filter(None, column[1:])).encode()',
     "the text check skips the first row of a chunk"),
    (PANEL, '"treatment": (_flag_column,', '"treatment": (_float_column,',
     "a treatment is checked as a number, so 1.0 passes"),
    (PANEL, 'partial(_parse_binary, what="period")', 'partial(_parse_binary, what="treatment")',
     "a bad period is named as a treatment"),
    # the generator: the rows before a faulty one, then its fault
    (PANEL, "                if k:\n", "                if False:\n",
     "the rows before a faulty row are dropped"),
    (PANEL, "yield [check(column[:k])", "yield [check(column[: k - 1])",
     "the row just before a faulty row is dropped"),
    (PANEL, "parse(raw, row_num + k, name)", "parse(raw, row_num + k + 1, name)",
     "a row fault names the next row"),
    (PANEL, "zip(parsers, values, names)", "zip(parsers[::-1], values[::-1], names[::-1])",
     "a row's fields are tried last to first"),
    (PANEL, '("d", "treatment"), ("unit_id", "text")]\n',
     '("d", "treatment"), ("unit_id", "float")]\n',
     "a long unit_id is read as a number"),
    # the long layout's pairing
    (PANEL, "np.unique(2 * code + t, return_index=True)",
     "np.unique(code + t, return_index=True)",
     "(unit, period) keys of neighbouring units collide"),
    (PANEL, "bad = dup | (d != d[first][code])", "bad = dup",
     "a treatment change within a unit passes"),
    (PANEL, "        bad |= s != s[first][code]\n", "        pass\n",
     "a stratum change within a unit passes"),
    (PANEL, "    if bad.any():\n",
     "    if fault is not None:\n        raise fault\n    if bad.any():\n",
     "the fault that ended the read beats an earlier pairing fault"),
    (PANEL, "k = int(bad.argmax())", "k = len(bad) - 1 - int(bad[::-1].argmax())",
     "the last pairing fault is named, not the first"),
    (PANEL, "if len(code) < 2 * len(ids):", "if len(code) < 2 * len(ids) - 1:",
     "one unit missing a period passes"),
    # the changes-in-changes assembly
    (CIC, "root = phi_u if regime.s == 1 else phi_l",
     "root = phi_u if regime.sign_mu == 1 else phi_l",
     "the magnitude root follows the sign of mu, not the product of the signs"),
    (CIC, "root, pt_u)", "root, pt_l)",
     "the cap takes the wrong probability-route bound"),
    (CIC, "lo = max(-math.inf if root", "lo = max(math.inf if root",
     "an absent root floors the interval at +inf"),
    (CIC, "    elif regime.sign_tau == -1:\n", "    else:\n",
     "a known-zero anticipatory effect takes the negative branch"),
    (CIC, "    if lo <= hi:\n", "    if lo < hi:\n",
     "a point interval is reported as empty"),
    # the interval, the confidence set and the CLI's exit routing
    (BOUNDS, "den1 = 1.0 + s * pi * epsilon", "den1 = 1.0 - s * pi * epsilon",
     "the imperfect-anticipation factor takes the wrong sign"),
    (BOUNDS, "if not (0.0 <= pi < 1.0):", "if not (0.0 <= pi <= 1.0):",
     "pi = 1, an unbounded set, passes the check"),
    (INFERENCE, "se_ext = se * np.maximum(fa, fb)", "se_ext = se * np.minimum(fa, fb)",
     "the confidence set extends by the smaller endpoint SE"),
    (INFERENCE, "if abs(t_tilde) > tstar(alpha)", "if t_tilde > tstar(alpha)",
     "a large negative t is not robustly rejected"),
    (INFERENCE, "return (se_b, se_a) if m_hat * fa > m_hat * fb else (se_a, se_b)",
     "return (se_a, se_b)", "the endpoint SEs are not sorted with the endpoints"),
    (INFERENCE, "    if (1.0 + alpha) / 2.0 == 1.0:\n", "    if False:\n",
     "an alpha that rounds (1 + alpha)/2 to 1 passes"),
    (CLI, 'print(f"numerical failure: {exc}", file=sys.stderr)\n        return EXIT_NUMERICAL',
     'print(f"numerical failure: {exc}", file=sys.stderr)\n        return EXIT_USAGE',
     "a numerical failure exits as a usage error"),
    (CLI, "return min(requested, cpu_count or 1)", "return requested",
     "more workers than CPUs are started"),
    (CLI, "        if not math.isfinite(out[key]):\n", "        if False:\n",
     "a non-finite --summary value passes"),
]


def run_mutant(index: int) -> tuple[str, str]:
    """(``killed`` or ``survived``, the first failing test or '')."""
    path, old, new, _ = MUTANTS[index]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests", "demos"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / path
        text = target.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"mutant {index}: its text occurs {text.count(old)} times in {path}")
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
             f"--hypothesis-seed={SEED}", *TESTS],
            cwd=work, env=env, capture_output=True, text=True,
        )
    if result.returncode == 0:
        return "survived", ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", result.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"pytest exit {result.returncode}"


def main(argv: list[str]) -> int:
    indices = [int(a) for a in argv] or range(len(MUTANTS))
    survivors = 0
    for index in indices:
        path, _, _, reason = MUTANTS[index]
        verdict, test = run_mutant(index)
        survivors += verdict == "survived"
        line = f"{index:2d} {verdict:8s} {Path(path).name}: {reason}"
        print(line + (f"  [{test}]" if test else ""), flush=True)
    print(f"{len(indices) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
