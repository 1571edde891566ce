"""Package-wide checks: importing the package leaves numpy's BLAS with no
worker threads, and every name it exports exists."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import antebounds

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


def test_every_name_in_a_modules_all_exists():
    for info in pkgutil.iter_modules(antebounds.__path__):
        module = importlib.import_module(f"antebounds.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], info.name


def test_the_package_imports_only_exported_names():
    tree = ast.parse(Path(antebounds.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"antebounds.{node.module}")
        unlisted = [a.name for a in node.names if a.name not in module.__all__]
        assert unlisted == [], node.module
