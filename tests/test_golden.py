"""Byte identity of ``simulate`` runs against the committed golden files.

The cases and the writer live in ``golden_simulate.py``; a failure names
the first run whose exit code, stdout or stderr differs, and the offset of
the first differing byte.
"""

from __future__ import annotations

import json

from golden_simulate import CASES, GOLDEN_DIR, run_case


def _first_difference(got: bytes, want: bytes) -> int | None:
    if got == want:
        return None
    return next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
    )


def test_simulate_goldens_byte_identical():
    codes = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())
    assert sorted(codes) == sorted(CASES), "golden files and cases disagree"
    for name, argv in CASES.items():
        code, out, err = run_case(argv)
        assert code == codes[name], f"run {name!r}: exit {code}, golden {codes[name]}"
        for stream, got in (("stdout", out), ("stderr", err)):
            want = (GOLDEN_DIR / f"{name}.{stream}").read_bytes()
            offset = _first_difference(got, want)
            assert offset is None, (
                f"run {name!r}: {stream} differs from the golden file at byte {offset} "
                f"(got {got[offset:offset + 40]!r}, golden {want[offset:offset + 40]!r})"
            )
