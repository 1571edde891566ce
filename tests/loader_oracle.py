"""Row-by-row reference for the two-period CSV loader.

This is the loader as it was before it read by column: one
``csv.DictReader`` dict per row, Python ``float`` calls per field, and a
per-unit record dict in the long layout.  A repeated wide id is named
with its row, as the loader checks the ids itself.  The property tests in
``test_loader_oracle.py`` require the column-wise loader to return an
equal panel, or to raise a ``PanelFormatError`` with the same message,
on every input.
"""

from __future__ import annotations

import csv

import numpy as np

from antebounds.panel import (
    PanelFormatError,
    TwoPeriodPanel,
    _open_reader,
    _parse_binary,
    _parse_float,
    _require_columns,
)


def load_two_period(source, layout: str = "wide") -> TwoPeriodPanel:
    reader, _ = _open_reader(source)
    if layout == "wide":
        return _load_wide(reader)
    return _load_long(reader)


def _load_wide(reader: csv.DictReader) -> TwoPeriodPanel:
    _require_columns(reader, ("unit_id", "y0", "y1", "d"))
    has_stratum = "stratum" in (reader.fieldnames or ())
    ids, y0s, y1s, ds, strata = [], [], [], [], []
    for row_num, row in enumerate(reader, start=2):
        ids.append(row["unit_id"])
        y0s.append(_parse_float(row["y0"], row_num, "y0"))
        y1s.append(_parse_float(row["y1"], row_num, "y1"))
        ds.append(_parse_binary(row["d"], row_num, "d", "treatment"))
        if has_stratum:
            strata.append(row["stratum"])
    if not ids:
        raise PanelFormatError("no data rows")
    seen: set = set()
    for row_num, uid in enumerate(ids, start=2):
        if uid in seen:
            raise PanelFormatError(
                f"unit_id {uid!r} repeats an earlier unit_id", row=row_num, field="unit_id"
            )
        seen.add(uid)
    return TwoPeriodPanel(
        unit_ids=tuple(ids),
        y0=np.array(y0s),
        y1=np.array(y1s),
        d=np.array(ds),
        strata=tuple(strata) if has_stratum else None,
    )


def _load_long(reader: csv.DictReader) -> TwoPeriodPanel:
    _require_columns(reader, ("unit_id", "t", "y", "d"))
    has_stratum = "stratum" in (reader.fieldnames or ())
    records: dict = {}
    order: list = []
    for row_num, row in enumerate(reader, start=2):
        uid = row["unit_id"]
        t_raw = row["t"]
        if t_raw not in ("0", "1"):
            raise PanelFormatError(
                f"period must be 0 or 1, got {t_raw!r}", row=row_num, field="t"
            )
        t = int(t_raw)
        y = _parse_float(row["y"], row_num, "y")
        d = _parse_binary(row["d"], row_num, "d", "treatment")
        stratum = row["stratum"] if has_stratum else None
        if uid not in records:
            records[uid] = {"y": {}, "d": d, "stratum": stratum}
            order.append(uid)
        rec = records[uid]
        if t in rec["y"]:
            raise PanelFormatError(
                f"duplicate (unit, period) for unit {uid!r} at t={t}", row=row_num
            )
        if rec["d"] != d:
            raise PanelFormatError(
                f"treatment not constant within unit {uid!r}", row=row_num, field="d"
            )
        if has_stratum and rec["stratum"] != stratum:
            raise PanelFormatError(
                f"stratum not constant within unit {uid!r}", row=row_num, field="stratum"
            )
        rec["y"][t] = y
    if not order:
        raise PanelFormatError("no data rows")
    ids, y0s, y1s, ds, strata = [], [], [], [], []
    for uid in order:
        rec = records[uid]
        if set(rec["y"]) != {0, 1}:
            have = sorted(rec["y"])
            raise PanelFormatError(
                f"missing period for unit {uid!r}: have t={have}, need both 0 and 1"
            )
        ids.append(uid)
        y0s.append(rec["y"][0])
        y1s.append(rec["y"][1])
        ds.append(rec["d"])
        strata.append(rec["stratum"])
    return TwoPeriodPanel(
        unit_ids=tuple(ids),
        y0=np.array(y0s),
        y1=np.array(y1s),
        d=np.array(ds),
        strata=tuple(strata) if has_stratum else None,
    )
