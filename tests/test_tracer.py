"""The traced benchmark's wrappers still find every function they name,
and still count what they measure."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cn_oracle

ROOT = Path(__file__).resolve().parent.parent
PATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))


def test_tracer_installs():
    # spans.install looks up each traced function by name, so removing or
    # renaming one breaks `perfbench/run.py --trace 1` with an AttributeError
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'perfbench'); import spans; spans.install(spans.Tracer())"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=PATH),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_tstar(tmp_path):
    # an opposite-sign summary `infer` solves t* once with solve_monotone;
    # the wrapper must still see each of its gap's evaluations, as many as
    # the reference bisection makes (38 at alpha 0.95)
    out = tmp_path / "spans.json"
    argv = ["infer", "--summary", "m=0.013", "se=0.0046", "--pi", "const:0.5", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "perfbench/spans.py", "--out", str(out), "--", *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=PATH),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(out.read_text())
    assert [span[0] for span in traced["spans"]].count("numerics.solve_monotone") == 1
    gap, lo, hi, tol = cn_oracle.tstar_problem(0.95)
    calls = []
    cn_oracle.bisect(lambda t: calls.append(t) or gap(t), lo, hi, tol)
    assert traced["counts"]["numerics.solve_monotone.evals"] == len(calls)
