"""The traced benchmark's wrappers still find every function they name."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    # spans.install looks up each traced function by name, so removing or
    # renaming one breaks `perfbench/run.py --trace 1` with an AttributeError
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'perfbench'); import spans; spans.install(spans.Tracer())"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
