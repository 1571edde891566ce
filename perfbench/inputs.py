"""Seeded input panels for the benchmark workloads.

The benchmark owns this generator on purpose: the package's own simulator
may change (for example its unit ids), and a workload must keep reading
the same bytes for the same seed across commits.  Each input is recorded
by its SHA-256 so two runs can be shown to have read identical data.

Both panels follow the two-period anticipation design: half the units are
treated, a share ``lam`` of the treated anticipates and shifts its
pre-period outcome by ``tau``, the treated gain ``mu`` after treatment,
and unit noise is correlated across the two periods.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TREND = 0.5
NOISE_RHO = 0.5


@dataclass(frozen=True)
class Panel:
    """Generated outcomes, kept in memory for the output checks."""

    y0: np.ndarray
    y1: np.ndarray
    d: np.ndarray


def draw_panel(seed: int, n: int, mu: float, tau: float, lam: float) -> Panel:
    rng = np.random.default_rng(seed)
    d = (rng.random(n) < 0.5).astype(np.int64)
    anticipates = (d == 1) & (rng.random(n) < lam)
    common = rng.standard_normal(n)
    idio = rng.standard_normal((n, 2))
    noise = np.sqrt(NOISE_RHO) * common[:, None] + np.sqrt(1.0 - NOISE_RHO) * idio
    base = d.astype(float)
    y0 = base + noise[:, 0] + anticipates * tau
    y1 = base + TREND + noise[:, 1] + d * mu
    return Panel(y0=y0, y1=y1, d=d)


def write_wide(path: Path, panel: Panel) -> None:
    """``unit_id,y0,y1,d``, one row per unit; floats round-trip exactly."""
    lines = ["unit_id,y0,y1,d"]
    for i, (a, b, t) in enumerate(zip(panel.y0.tolist(), panel.y1.tolist(), panel.d.tolist())):
        lines.append(f"u{i:07d},{a!r},{b!r},{t}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_long(path: Path, panel: Panel) -> None:
    """``unit_id,t,y,d``, two rows per unit (t=0 then t=1)."""
    lines = ["unit_id,t,y,d"]
    for i, (a, b, t) in enumerate(zip(panel.y0.tolist(), panel.y1.tolist(), panel.d.tolist())):
        lines.append(f"u{i:07d},0,{a!r},{t}")
        lines.append(f"u{i:07d},1,{b!r},{t}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
