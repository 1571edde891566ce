"""Every function in ``src/antebounds/`` is reached by a shipped path.

The shipped paths are the golden CLI cases and the demos.  They run in
this process under ``sys.setprofile``; a function or method defined in the
package that none of them calls fails the test, unless the allow-list
below names it with its reason.  An allow-list entry that is reached, or
that names no function, fails too, so the list cannot go stale.  Pool
workers that ``simulate --workers 2`` spawns are not traced; the 1-worker
cases reach the same code in this process.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import runpy
import sys
from pathlib import Path

import antebounds
from golden_simulate import CASES, run_case

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(antebounds.__file__).resolve().parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The goldens read only well-formed files; the loader and exit-code tests
# feed the faulty ones.
_BAD_ROW = "names the first faulty row of a chunk, so only a malformed file reaches it"
_ORACLE = (
    "wrapped by name in perfbench/spans.py, and the tests' oracle; "
    "waits for ROADMAP item 1, which moves it to tests/ with the tracer's names"
)
ALLOWED = {
    "panel._parse_float": _BAD_ROW,
    "panel._parse_binary": _BAD_ROW,
    "panel._parse_text": _BAD_ROW,
    "panel._transpose": (
        "reads a chunk that csv must parse (a quote, CR or NUL in it); no golden file has one"
    ),
    "panel.PanelFormatError.__init__": "raised only on malformed input",
    "bounds.IdentifiedInterval.as_tuple": "public API, used in the README's example",
    "inference.ConfidenceSet.as_tuple": "public API, used in the README's example",
    "panel.group_stats": _ORACLE,
    "panel.GroupStats.n": _ORACLE,
    "panel.GroupStats.p_hat": _ORACLE,
    "panel.GroupStats.diff_in_diff": _ORACLE,
    "inference.bound_variances": _ORACLE,
}


def _functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> 'module.qualname' of every function and
    method defined in the package, nested ones included."""
    found = {}

    def walk(code, path: Path, prefix: str) -> None:
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue  # lambdas, comprehensions and generator expressions
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                qualname = prefix + const.co_name
                found[(str(path), const.co_firstlineno, const.co_name)] = qualname
                walk(const, path, qualname + ".<locals>.")
            else:
                walk(const, path, prefix + const.co_name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path, path.stem + ".")
    return found


def _reached() -> set[tuple[str, int, str]]:
    """(file, first line, name) of every code object called while the
    goldens and the demos run."""
    codes: dict[int, object] = {}

    def profile(frame, event, arg):
        code = frame.f_code
        codes[id(code)] = code

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        for argv in CASES.values():
            run_case(argv)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for demo in DEMOS:
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    paths = {name: str(Path(name).resolve()) for name in {c.co_filename for c in codes.values()}}
    return {(paths[c.co_filename], c.co_firstlineno, c.co_name) for c in codes.values()}


def test_every_function_is_reached_or_allowed():
    assert DEMOS
    functions = _functions()
    reached = {functions[key] for key in _reached() if key in functions}
    defined = set(functions.values())
    unreached = sorted(defined - reached - ALLOWED.keys())
    assert not unreached, f"reached by no golden case or demo: {unreached}"
    unknown = sorted(ALLOWED.keys() - defined)
    assert not unknown, f"allow-listed, but no such function: {unknown}"
    stale = sorted(ALLOWED.keys() & reached)
    assert not stale, f"allow-listed, but reached: {stale}"
