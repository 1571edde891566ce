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
SIMULATE = "src/antebounds/simulate.py"
TESTS = [
    "tests/test_panel.py",
    "tests/test_loader_oracle.py",
    "tests/test_metamorphic.py",
    "tests/test_cic.py",
    "tests/test_golden.py",
    "tests/test_bounds.py",
    "tests/test_inference.py",
    "tests/test_cli.py",
    "tests/test_simulate.py",
    "tests/test_phi_oracle.py",
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
    (PANEL, "(_codes(table, uid) + entries)", "(_codes(table, uid) + entries - 1)",
     "the chunk offset of the entry codes is off by one"),
    (PANEL, 'if (repeats != packed[rep[later]]).any() or (repeats == "").any():',
     'if False:', "the ids of a hash tie are not compared"),
    (PANEL, 'or (repeats == "").any():', ":",
     "a missing id and an empty one that share a hash are one unit"),
    (PANEL, "np.minimum.reduceat(order, starts)", "order[starts]",
     "any entry of a run of equal hashes stands for it, not the first"),
    (PANEL, "    ids = packed[is_first]\n    del packed\n"
     "    code = (np.cumsum(is_first, dtype=np.int32) - 1)[rep][entry]\n",
     "    by_hash = np.argsort(np.fromiter(map(hash, packed[is_first].tolist()), np.int64))\n"
     "    ids = packed[is_first][by_hash]\n    del packed\n"
     "    number = np.empty(len(ids), dtype=np.int32)\n"
     "    number[by_hash] = np.arange(len(ids), dtype=np.int32)\n"
     "    code = number[np.cumsum(is_first) - 1][rep][entry]\n",
     "units are ordered by hash, not by first entry"),
    (PANEL, "key = 2 * code + t", "key = code + t",
     "(unit, period) keys of neighbouring units collide"),
    (PANEL, "np.minimum.at(slot, key,", "np.maximum.at(slot, key,",
     "the last row of a (unit, period), not the first, is kept"),
    (PANEL, "first = np.minimum(slot[0::2], slot[1::2])", "first = slot[0::2]",
     "a unit's t=0 row, not its first, sets its treatment and stratum"),
    (PANEL, "bad = dup | (d != d[first][code])", "bad = dup",
     "a treatment change within a unit passes"),
    (PANEL, "        bad |= s != s[first][code]\n", "        pass\n",
     "a stratum change within a unit passes"),
    (PANEL, "    if bad.any():\n",
     "    if fault is not None:\n        raise fault\n    if bad.any():\n",
     "the fault that ended the read beats an earlier pairing fault"),
    (PANEL, "k = int(bad.argmax())", "k = len(bad) - 1 - int(bad[::-1].argmax())",
     "the last pairing fault is named, not the first"),
    (PANEL, "if n < 2 * len(ids):", "if n < 2 * len(ids) - 1:",
     "one unit missing a period passes"),
    # the wide layout's repeated ids
    (PANEL, '    if not ids:\n        raise fault or PanelFormatError("no data rows")\n',
     '    if fault is not None or not ids:\n        raise fault or PanelFormatError("no data rows")\n',
     "the fault that ended a wide read beats an earlier repeated id"),
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
    # the one DID contrast: its weights, group sizes, overflow check, and
    # the rows of a staggered contrast
    (BOUNDS, "np.copyto(w, d)", "np.subtract(1.0, d, out=w)",
     "the treated and control weights are swapped"),
    (BOUNDS, ".sum(axis=-1) / n1\n", ".sum(axis=-1) / n0\n",
     "the treated mean divides by the control count"),
    (BOUNDS, ".sum(axis=-1) / n0\n", ".sum(axis=-1) / n1\n",
     "the control mean divides by the treated count"),
    (BOUNDS, "    if not np.isfinite(m).all():\n", "    if False:\n",
     "an overflowing contrast passes"),
    (BOUNDS, "rows = cohort | panel.cohort_mask(math.inf)", "rows = cohort | ~cohort",
     "a staggered contrast compares against every other unit, not the never-treated"),
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
    # the simulation harness: the shared draw, the toy model and the
    # coverage engine's contrasts
    (SIMULATE, "a * tau0, None if tau1 is None else a * tau1",
     "a * (tau0 if tau1 is None else tau1), None if tau1 is None else a * tau0",
     "the shared draw swaps the post-treatment model's t=0 and t=1 shifts"),
    (SIMULATE, "u <= cfg.toy_alpha * cfg.p_treat", "u < cfg.toy_alpha * cfg.p_treat",
     "a toy unit whose threshold equals the signal level does not anticipate"),
    (SIMULATE, "np.subtract(y1, y0, out=dy[row])", "np.subtract(y0, y1, out=dy[row])",
     "the coverage engine's outcome changes are reversed"),
    (SIMULATE, "min(start + REPLICATION_BLOCK, reps), cfg.tau1",
     "start + REPLICATION_BLOCK, cfg.tau1",
     "the identity check's last block draws past its replications"),
    (SIMULATE, "reps), cfg.tau1, cfg.tau2)", "reps), cfg.tau2, cfg.tau1)",
     "the identity check swaps the t=0 and t=1 shifts"),
    # the sensitivity sweep
    (BOUNDS, "r.cs_lower <= 0.0 <=", "r.cs_lower < 0.0 <=",
     "a confidence set whose lower end is zero does not contain it"),
    (BOUNDS, "0.0 <= r.cs_upper", "0.0 < r.cs_upper",
     "a confidence set whose upper end is zero does not contain it"),
    (BOUNDS, "-math.inf if pe[1] is None", "math.inf if pe[1] is None",
     "a grid point with no epsilon sorts after those with one"),
    # the magnitude-route root
    (CIC, "np.clip(w_cand[i], 0.0, big)", "np.clip(w_cand[i], -big, big)",
     "a candidate root just across zero keeps the wrong sign"),
    (CIC, "    if off.any():\n", "    if False:\n",
     "a midpoint rounded across a sample value keeps its unchecked rank"),
    (CIC, "if abs(residual(w)) <= tol:", "if True:",
     "the first in-segment candidate is returned unverified"),
    # the one control map
    (CIC, 'self.control_t0.values, y, side="right"', 'self.control_t0.values, y, side="left"',
     "the control map counts the control values below y, not at or below it"),
    (CIC, 'idx = np.searchsorted(self.values, y, side="right")',
     'idx = np.searchsorted(self.values, y, side="left")',
     "the cdf counts the values below y, not at or below it"),
    (CIC, "if p > 0.0 else -math.inf", "if p >= 0.0 else -math.inf",
     "the counterfactual quantile reads Q01 at level zero, not -inf"),
    # the overflow checks of the cic and infer reports
    (CIC, "    if not math.isfinite(big):\n", "    if False:\n",
     "an overflowing pooled data range makes every root tolerance inf"),
    (CLI, '"m_q": _jsonable(res.m_q),', '"m_q": res.m_q,',
     "an unbounded m(q) is written as the non-standard JSON constant Infinity"),
    (CLI, "    if not math.isfinite(t_tilde):\n", "    if False:\n",
     "an overflowing t-statistic is written as Infinity"),
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
