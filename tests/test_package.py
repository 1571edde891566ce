"""Importing the package leaves numpy's BLAS with no worker threads."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the thread count read after both imports, in a fresh interpreter
PROBE = (
    "import json, os, sys, antebounds, numpy; "
    "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None; "
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))"
)


def probe(**env_overrides) -> tuple:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env.update(env_overrides)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


def test_blas_threads_default_to_one():
    setting, tasks = probe()
    assert setting == "1"
    if sys.platform == "linux":
        assert tasks == 1  # the main thread alone: no OpenBLAS worker


def test_user_setting_is_kept():
    assert probe(OPENBLAS_NUM_THREADS="2")[0] == "2"

