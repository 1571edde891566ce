"""Byte identity of CLI runs against the committed golden files.

The cases and the writer live in ``golden_simulate.py``; a failure names
the first run whose exit code, stdout or stderr differs, and the offset of
the first differing byte.
"""

from __future__ import annotations

import json

import pytest

from golden_simulate import CASES, GOLDEN_ROOT, golden_dir, run_case


def _first_difference(got: bytes, want: bytes) -> int | None:
    if got == want:
        return None
    return next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
    )


def _check_command(command: str) -> None:
    names = [name for name, argv in CASES.items() if argv[0] == command]
    codes = json.loads((GOLDEN_ROOT / command / "exit_codes.json").read_text())
    assert sorted(codes) == sorted(names), "golden files and cases disagree"
    for name in names:
        code, out, err = run_case(CASES[name])
        assert code == codes[name], f"run {name!r}: exit {code}, golden {codes[name]}"
        for stream, got in (("stdout", out), ("stderr", err)):
            want = (golden_dir(name) / f"{name}.{stream}").read_bytes()
            offset = _first_difference(got, want)
            assert offset is None, (
                f"run {name!r}: {stream} differs from the golden file at byte {offset} "
                f"(got {got[offset:offset + 40]!r}, golden {want[offset:offset + 40]!r})"
            )


def test_simulate_goldens_byte_identical():
    _check_command("simulate")


@pytest.mark.parametrize("command", ["estimate", "infer", "sensitivity", "cic"])
def test_command_goldens_byte_identical(command):
    _check_command(command)
