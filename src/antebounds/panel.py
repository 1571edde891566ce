"""Panel containers, outcome transformations, and group-by-period statistics.

Panels are immutable after construction and safe to share across threads.
CSV loading accepts both wide (one row per unit) and long (one row per
unit-period) two-period layouts.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import InitVar, dataclass
from functools import cached_property, partial
from itertools import chain, count, filterfalse, islice, repeat
from typing import Iterator, Sequence

import numpy as np
from numpy.dtypes import StringDType

__all__ = [
    "PanelFormatError",
    "GTransform",
    "TwoPeriodPanel",
    "CohortPanel",
    "GroupStats",
    "load_two_period",
    "group_stats",
    "treatment_ratio",
]

class PanelFormatError(ValueError):
    """Input data violates the panel contract; names the offending row/field."""

    def __init__(self, message: str, row: object = None, field: str | None = None):
        detail = message
        if row is not None:
            detail += f" (row: {row!r}"
            detail += f", field: {field})" if field else ")"
        elif field:
            detail += f" (field: {field})"
        super().__init__(detail)
        self.row = row
        self.field = field


@dataclass(frozen=True)
class GTransform:
    """Measurable outcome transformation selecting the parameter family.

    ``identity`` targets the plain average effect; ``indicator(u)`` maps
    y -> 1{y <= u} (ties at u count, the cutoff is included) and targets
    distributional effects.
    """

    kind: str
    threshold: float | None = None

    @staticmethod
    def identity() -> "GTransform":
        return GTransform(kind="identity")

    @staticmethod
    def indicator(threshold: float) -> "GTransform":
        if not math.isfinite(threshold):
            raise ValueError(f"indicator threshold must be finite, got {threshold}")
        return GTransform(kind="indicator", threshold=float(threshold))

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.kind == "identity":
            return y
        if self.kind == "indicator":
            return (y <= self.threshold).astype(float)
        raise ValueError(f"unknown GTransform kind {self.kind!r}")

    @np.errstate(over="ignore")
    def change(self, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
        """Each unit's g(y1) - g(y0), an overflow left for the contrast to name."""
        return self.apply(y1) - self.apply(y0)

    def describe(self) -> str:
        if self.kind == "indicator":
            return f"indicator(u={self.threshold})"
        return self.kind


def _first_repeat(ids: Sequence, hashes: np.ndarray | None = None) -> int | None:
    """Index of the first id equal to an earlier one, or None when the ids
    are distinct; a range is, by construction.

    Sorts the ids' hashes (``hashes`` if given, sorted in place), 8 bytes
    an id, in place of building a set of them.  Equal ids hash equal, so
    if no two adjacent hashes tie, no two ids are equal; only a tie falls
    back to comparing the ids themselves.
    """
    if isinstance(ids, range):
        return None
    if hashes is None:
        hashes = np.fromiter(map(hash, ids), dtype=np.int64, count=len(ids))
    hashes.sort()
    if not (hashes[1:] == hashes[:-1]).any():
        return None
    seen: set = set()
    for k, uid in enumerate(ids):
        if uid in seen:
            return k
        seen.add(uid)
    return None


def _check_distinct(
    ids: Sequence, hashes: np.ndarray | None = None, row: int | None = None
) -> None:
    """Raise naming the first id that repeats an earlier one, and its row
    when ``row``, the row number of ``ids[0]``, is given."""
    k = _first_repeat(ids, hashes)
    if k is None:
        return
    message = f"unit_id {ids[k]!r} repeats an earlier unit_id"
    if row is None:
        raise PanelFormatError(message)
    raise PanelFormatError(message, row=row + k, field="unit_id")


@dataclass(frozen=True)
class TwoPeriodPanel:
    """Unit-level outcomes for the two-period design.

    Holds the observed outcomes at t=0 and t=1 and the treatment indicator.
    Anticipation status is deliberately absent: it is unobservable and only
    synthetic data-generating processes know it.  ``unit_ids`` holds
    distinct labels; a ``range`` (as generated panels use) is taken as
    distinct without a check.  Loaded panels hold their ids and strata
    as packed text arrays (numpy ``StringDType``, a missing field as
    None), whose items index as ``str``.  The 0/1 treatment indicator is
    kept as ``uint8``.
    """

    unit_ids: Sequence
    y0: np.ndarray
    y1: np.ndarray
    d: np.ndarray
    strata: Sequence | None = None
    # set by the loader, which has already checked the ids are distinct
    _ids_distinct: InitVar[bool] = False

    def __post_init__(self, _ids_distinct: bool) -> None:
        object.__setattr__(self, "y0", np.asarray(self.y0, dtype=float))
        object.__setattr__(self, "y1", np.asarray(self.y1, dtype=float))
        d = np.asarray(self.d)
        n = len(self.unit_ids)
        if not (self.y0.shape == self.y1.shape == d.shape == (n,)):
            raise PanelFormatError("panel columns must have one entry per unit")
        if self.strata is not None and len(self.strata) != n:
            raise PanelFormatError("stratum column must have one entry per unit")
        if not _ids_distinct:
            _check_distinct(self.unit_ids)
        if not (np.isfinite(self.y0).all() and np.isfinite(self.y1).all()):
            raise PanelFormatError("outcomes must be finite reals")
        # d as given, before any cast could truncate it; two comparisons,
        # not np.isin, which sorts
        if not ((d == 0) | (d == 1)).all():
            raise PanelFormatError("treatment indicator must be 0 or 1", field="d")
        object.__setattr__(self, "d", d.astype(np.uint8, copy=False))
        if self.n_treated < 1 or self.n_control < 1:
            raise PanelFormatError(
                "panel needs at least one treated and one control unit"
            )

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    @property
    def n_treated(self) -> int:
        return int(self.d.sum())

    @property
    def n_control(self) -> int:
        return self.n - self.n_treated

    @cached_property
    def _stratum_index(self) -> tuple[dict, np.ndarray]:
        """Stratum label -> code in first-appearance order, and each unit's
        code; built in one pass and kept, so every stratum mask after the
        first is one numpy comparison.  The labels are read from the
        column once, since each read of a packed column makes new str."""
        index: dict = {}
        return index, _codes(index, list(self.strata))

    def stratum_labels(self) -> tuple:
        """Distinct stratum labels in first-appearance order; a single
        implicit stratum when no stratum column was provided."""
        if self.strata is None:
            return ("<all>",)
        return tuple(self._stratum_index[0])

    def stratum_mask(self, label) -> np.ndarray:
        """Boolean mask of the units in stratum ``label``."""
        if self.strata is None:
            if label == "<all>":
                return np.ones(self.n, dtype=bool)
            raise KeyError(f"panel has no stratum column (asked for {label!r})")
        index, codes = self._stratum_index
        if label not in index:
            raise KeyError(f"no units in stratum {label!r}")
        return codes == index[label]


@dataclass(frozen=True)
class CohortPanel:
    """Multi-period outcomes with first-treatment cohorts.

    ``outcomes`` is (n_units, T) with periods 1..T; ``cohorts`` holds the
    first treatment period per unit, ``inf`` for never-treated.
    ``unit_ids`` holds distinct labels, as in :class:`TwoPeriodPanel`.
    """

    unit_ids: Sequence
    outcomes: np.ndarray
    cohorts: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", np.asarray(self.outcomes, dtype=float))
        object.__setattr__(self, "cohorts", np.asarray(self.cohorts, dtype=float))
        n = len(self.unit_ids)
        if self.outcomes.ndim != 2 or self.outcomes.shape[0] != n:
            raise PanelFormatError("outcomes must be an (n_units, T) matrix")
        if self.outcomes.shape[1] < 2:
            raise PanelFormatError("cohort panel needs at least two periods")
        _check_distinct(self.unit_ids)
        if not np.isfinite(self.outcomes).all():
            raise PanelFormatError("outcomes must be finite reals")
        finite = self.cohorts[np.isfinite(self.cohorts)]
        if ((finite < 1) | (finite > self.n_periods) | (finite != np.floor(finite))).any():
            raise PanelFormatError("cohorts must be integer periods in 1..T or inf")
        if not np.isinf(self.cohorts).any():
            raise PanelFormatError("cohort panel needs at least one never-treated unit")

    @property
    def n_periods(self) -> int:
        return int(self.outcomes.shape[1])

    def outcomes_at(self, period: int) -> np.ndarray:
        if not 1 <= period <= self.n_periods:
            raise ValueError(f"period {period} outside 1..{self.n_periods}")
        return self.outcomes[:, period - 1]

    def cohort_mask(self, e: float) -> np.ndarray:
        if math.isinf(e):
            return np.isinf(self.cohorts)
        return self.cohorts == e

    def cohort_share_up_to(self, e: int) -> float:
        """Share of units first treated at or before period e."""
        return float((self.cohorts <= e).mean())


@dataclass(frozen=True)
class GroupStats:
    """Group-by-period means, variances, and cross-period covariances.

    ``delta[d, t]`` is the sample mean of the transformed outcome in
    treatment group d at period t; variances and covariances use the
    n_d - 1 denominator.
    """

    delta: np.ndarray
    sigma2: np.ndarray
    cov: np.ndarray
    n0: int
    n1: int

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    @property
    def p_hat(self) -> float:
        return self.n1 / self.n

    def diff_in_diff(self) -> float:
        return float(
            (self.delta[1, 1] - self.delta[1, 0]) - (self.delta[0, 1] - self.delta[0, 0])
        )


def group_stats(panel: TwoPeriodPanel, g: GTransform) -> GroupStats:
    """Means, variances, and covariances of g(y) by group and period.

    Requires at least two units per group so the n-1 denominators are
    defined.
    """
    g0 = g.apply(panel.y0)
    g1 = g.apply(panel.y1)
    delta = np.zeros((2, 2))
    sigma2 = np.zeros((2, 2))
    cov = np.zeros(2)
    counts = [panel.n_control, panel.n_treated]
    for d in (0, 1):
        mask = panel.d == d
        nd = counts[d]
        if nd < 2:
            raise ValueError(
                f"insufficient group size: group d={d} has {nd} unit(s), need >= 2"
            )
        a0 = g0[mask]
        a1 = g1[mask]
        delta[d, 0] = a0.mean()
        delta[d, 1] = a1.mean()
        sigma2[d, 0] = ((a0 - delta[d, 0]) ** 2).sum() / (nd - 1)
        sigma2[d, 1] = ((a1 - delta[d, 1]) ** 2).sum() / (nd - 1)
        cov[d] = ((a1 - delta[d, 1]) * (a0 - delta[d, 0])).sum() / (nd - 1)
    return GroupStats(delta=delta, sigma2=sigma2, cov=cov, n0=counts[0], n1=counts[1])


def treatment_ratio(panel: TwoPeriodPanel, stratum=None) -> float:
    """Empirical treatment share n1/n, or its share within ``stratum``."""
    if stratum is None:
        return panel.n_treated / panel.n
    return float(panel.d[panel.stratum_mask(stratum)].mean())


def _parse_float(raw: str, row_num: int, field: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise PanelFormatError(
            f"non-numeric value {raw!r}", row=row_num, field=field
        ) from None
    if not math.isfinite(value):
        raise PanelFormatError(f"non-finite value {raw!r}", row=row_num, field=field)
    return value


def _parse_binary(raw: str, row_num: int, field: str, what: str) -> int:
    """A 0/1 field such as the treatment ``d`` or the period ``t``; ``what``
    names it in the message."""
    if raw not in ("0", "1"):
        raise PanelFormatError(f"{what} must be 0 or 1, got {raw!r}", row=row_num, field=field)
    return int(raw)


def _parse_text(raw: str | None, row_num: int, field: str) -> None:
    """Reject a lone surrogate, which a str source can hold but a packed
    text column, stored as UTF-8, cannot."""
    if raw is not None and not raw.isascii():
        try:
            raw.encode()
        except UnicodeEncodeError:
            raise PanelFormatError(
                f"lone surrogate in {raw!r}", row=row_num, field=field
            ) from None


def _open_reader(source) -> tuple[csv.DictReader, Iterator[str]]:
    """A DictReader that has read the header, and the line iterator it
    reads from, positioned at the first line after the header.  For a
    text stream, and a str or bytes source, which is read as one, the
    iterator is the stream itself.  Bytes are decoded as UTF-8, after a
    byte-order mark if there is one."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise PanelFormatError(f"input is not UTF-8: {exc}") from None
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = iter(source)
    reader = csv.DictReader(lines)
    try:
        fieldnames = reader.fieldnames
    except csv.Error as exc:
        raise PanelFormatError(f"unreadable CSV row: {exc}", row=1) from None
    if fieldnames is None:
        raise PanelFormatError("empty input: no header row")
    return reader, lines


def _require_columns(reader: csv.DictReader, required: Sequence[str]) -> None:
    have = set(reader.fieldnames or ())
    missing = [c for c in required if c not in have]
    if missing:
        raise PanelFormatError(f"missing column(s): {', '.join(missing)}")


def load_two_period(source, layout: str = "wide") -> TwoPeriodPanel:
    """Load a two-period panel from CSV text (stream, path contents, or str).

    Wide layout: header ``unit_id,y0,y1,d[,stratum]``, one row per unit.
    Long layout: header ``unit_id,t,y,d[,stratum]`` with t in {0,1}, exactly
    one row per (unit, period), and d constant within unit.

    The file is read CHUNK_ROWS rows at a time and parsed column by column;
    the first fault in row order is reported, with its row number counting
    the header as row 1 and skipping blank lines; a repeated wide unit_id
    is a fault of its row, after the row's other fields.  A wide load's
    peak memory is the parsed columns plus one chunk of lines, or plus one
    column while it is joined.

    A long load keeps no Python string per unit.  While it reads, it keeps
    each row's period, outcome, treatment and entry code, and for each
    entry, an id distinct within its chunk, the id's hash and packed text;
    after the read it groups the entries into units by their hashes.  It
    peaks while it reads, with one chunk of lines alive, or while it groups
    the entries.  Both peaks are least when each unit's rows fall in one
    chunk, so that a unit is one entry: a file sorted by unit has that
    chunk locality, a file sorted by period does not.
    """
    if layout not in ("wide", "long"):
        raise ValueError(f"layout must be 'wide' or 'long', got {layout!r}")
    reader, lines = _open_reader(source)
    if layout == "wide":
        return _load_wide(reader, lines)
    return _load_long(reader, lines)


# Rows parsed per chunk: large enough that per-chunk numpy calls cost
# little, small enough that the chunk's lines and field strings stay near
# 2 MiB whatever the file size.  Larger chunks parse no faster and raise
# the peak in proportion to their size.
CHUNK_ROWS = 8192

_BINARY = frozenset(("0", "1"))

# Unit ids and strata are kept packed: up to 15 UTF-8 bytes inline in 16
# bytes an item, longer ones in the array's own arena, in place of one
# Python str an item.  A field beyond the end of a short row is None.
_TEXT = StringDType(na_object=None)


def _column_chunks(reader: csv.DictReader, lines: Iterator[str], names: Sequence[str]):
    """Yield ``(row number of the first row, columns)`` for the named
    columns, CHUNK_ROWS rows at a time.

    A chunk that csv would read as plain comma-separated lines is split
    on commas (``_split_on_commas``).  From the first chunk that is not,
    csv reads the rest of the input, since a quoted field may span lines.
    Either way the result matches csv.DictReader: blank rows are skipped
    and not numbered, a repeated header name reads its last column, and a
    field beyond the end of a short row reads as None.
    """
    where = {name: j for j, name in enumerate(reader.fieldnames)}
    index = [where[name] for name in names]
    # each line a text stream yields but its last ends in its line break
    from_stream = isinstance(lines, io.TextIOBase)
    row_num = 2
    while True:
        chunk = list(islice(lines, CHUNK_ROWS))
        if not chunk:
            return
        columns = _split_on_commas(chunk, index, from_stream)
        if columns is None:
            break
        yield row_num, columns
        row_num += len(columns[0])
    rows_in = csv.reader(chain(chunk, lines))
    del chunk
    while True:
        rows: list = []
        fault = None
        try:
            # extend keeps the rows read before a failing one
            rows.extend(islice(rows_in, CHUNK_ROWS))
        except csv.Error as exc:
            fault = exc
        if not rows and fault is None:
            return
        if not all(rows):
            rows = list(filter(None, rows))
        if rows:
            yield row_num, _transpose(rows, index)
            row_num += len(rows)
        if fault is not None:
            # raised after the rows before it are checked, so that a fault
            # in an earlier row is the one reported
            raise PanelFormatError(f"unreadable CSV row: {fault}", row=row_num)


# Every byte but the comma, newline, quote, CR and NUL, the ones csv treats
# specially in a line.
_PLAIN_BYTES = bytes(sorted(set(range(256)) - set(b',\n"\r\0')))


def _split_on_commas(chunk: list, index: Sequence[int], from_stream: bool) -> list | None:
    """The indexed columns of ``chunk``, a list of lines, split on commas;
    or None when csv must read it.  A chunk that is split is emptied, so
    that its lines are freed before the fields are built.

    A chunk is split only when csv would read each line as its
    comma-separated parts: the lines hold no quote, CR or NUL; each line
    but the last ends in its only newline; every line has the same number
    of commas, at least one (so no line is blank); and no line is longer
    than the csv field size limit.  Lines ``from_stream`` end in their
    line break, which must be the newline when no CR is in them, so only
    other sources' line ends are checked.
    """
    try:
        text = "".join(chunk)
    except TypeError:  # not all lines are str; csv names the fault
        return None
    # the special characters of the text in order, as bytes (UTF-8 keeps
    # ASCII bytes out of every other character's encoding)
    marks = text.encode("utf-8", "surrogatepass").translate(None, _PLAIN_BYTES)
    commas = marks.find(b"\n")
    if commas < 0:
        commas = len(marks)
    n = len(chunk)
    expected = (b"," * commas + b"\n") * n
    if not chunk[-1].endswith("\n"):
        expected = expected[:-1]
    if not commas or marks != expected:
        return None
    # with the newline count right, this puts each newline at a line's end
    if not from_stream and not all(map(str.endswith, islice(chunk, n - 1), repeat("\n"))):
        return None
    if max(map(len, chunk)) > csv.field_size_limit():
        return None
    chunk.clear()
    flat = text.replace("\n", ",").split(",")
    del text
    width = commas + 1
    del flat[n * width :]  # the empty field after a final newline
    return [flat[j::width] if j < width else [None] * n for j in index]


def _transpose(rows: list, index: Sequence[int]) -> list:
    widths = set(map(len, rows))
    if len(widths) == 1:
        (width,) = widths
        flat = list(chain.from_iterable(rows))
        return [flat[j::width] if j < width else [None] * len(rows) for j in index]
    return [[r[j] if j < len(r) else None for r in rows] for j in index]


def _float_column(column: list) -> np.ndarray:
    values = np.fromiter(map(float, column), dtype=float, count=len(column))
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return values


def _flag_column(column: list) -> np.ndarray:
    if not _BINARY.issuperset(column):
        raise ValueError("not a 0/1 flag")
    return np.frombuffer("".join(column).encode(), dtype=np.uint8) - ord("0")


def _text_column(column: list) -> list:
    """The column as given, once no field in it holds a lone surrogate."""
    "".join(filter(None, column)).encode()
    return column


def _text(column: list) -> np.ndarray:
    # not np.fromiter: with numpy 2.4.6, concatenating a StringDType array
    # that np.fromiter built can crash the interpreter
    return np.array(column, dtype=_TEXT)


# Each column kind: a check of a whole chunk's column, which returns it
# typed or raises ValueError or TypeError, and the parser of one field,
# which names the fault; a check passes exactly when each field parses.
_KINDS = {
    "float": (_float_column, _parse_float),
    "treatment": (_flag_column, partial(_parse_binary, what="treatment")),
    "period": (_flag_column, partial(_parse_binary, what="period")),
    "text": (_text_column, _parse_text),
}


def _parsed_chunks(reader: csv.DictReader, lines: Iterator[str], spec: Sequence[tuple]):
    """Yield, CHUNK_ROWS rows at a time, the columns that ``spec``, a
    sequence of ``(column name, kind)`` pairs, names, each typed by its
    kind's check.

    A chunk that holds a faulty row is yielded up to that row, and then
    the row's fault is raised, its fields tried in ``spec`` order: every
    fault comes after the rows before it, as in ``_column_chunks``.
    """
    names, kinds = zip(*spec)
    checks, parsers = zip(*map(_KINDS.__getitem__, kinds))
    for row_num, columns in _column_chunks(reader, lines, names):
        try:
            typed = [check(column) for check, column in zip(checks, columns)]
        except (TypeError, ValueError):  # UnicodeEncodeError is a ValueError
            pass
        else:
            yield typed
            continue
        for k, values in enumerate(zip(*columns)):
            try:
                for parse, raw, name in zip(parsers, values, names):
                    parse(raw, row_num + k, name)
            except PanelFormatError as err:
                if k:
                    yield [check(column[:k]) for check, column in zip(checks, columns)]
                raise err
        raise RuntimeError("a column check failed on a chunk whose rows all parse")


def _load_wide(reader: csv.DictReader, lines: Iterator[str]) -> TwoPeriodPanel:
    _require_columns(reader, ("unit_id", "y0", "y1", "d"))
    has_stratum = "stratum" in (reader.fieldnames or ())
    spec = [("unit_id", "text"), ("y0", "float"), ("y1", "float"), ("d", "treatment")]
    spec += [("stratum", "text")] if has_stratum else []
    ids, hashes, y0s, y1s, ds, strata = [], [], [], [], [], []
    fault = None
    try:
        for uid, y0, y1, d, *stratum in _parsed_chunks(reader, lines, spec):
            # hashed while the ids are still str, for the distinct check
            hashes.append(np.fromiter(map(hash, uid), dtype=np.int64, count=len(uid)))
            ids.append(_text(uid))
            strata += map(_text, stratum)
            y0s.append(y0)
            y1s.append(y1)
            ds.append(d)
    except PanelFormatError as err:  # raised after the rows before it
        fault = err
    if not ids:
        raise fault or PanelFormatError("no data rows")
    unit_ids = np.concatenate(ids)
    del ids
    # a repeated id in the rows before a fault is the earlier fault
    _check_distinct(unit_ids, np.concatenate(hashes), row=2)
    del hashes
    if fault is not None:
        raise fault
    # each column joined and its chunks freed before the next is joined
    y0 = np.concatenate(y0s)
    del y0s
    y1 = np.concatenate(y1s)
    del y1s
    d = np.concatenate(ds)
    del ds
    strata = np.concatenate(strata) if has_stratum else None
    return TwoPeriodPanel(unit_ids, y0, y1, d, strata, _ids_distinct=True)


def _codes(table: dict, keys: list) -> np.ndarray:
    """Index of each key in ``table``, adding unseen keys in first-appearance
    order."""
    table.update(zip(dict.fromkeys(filterfalse(table.__contains__, keys)), count(len(table))))
    return np.fromiter(map(table.__getitem__, keys), dtype=np.intp, count=len(keys))


def _group_entries(hashes: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """For each entry, the index of the first entry with the same id; the
    entries are given by their ids' hashes and packed ids.

    Sorts the hashes, in place, and takes the first entry of each run of
    equal ones; then compares each entry's packed id with that entry's.
    Only when two ids that share a hash differ, or an id that repeats is
    empty or missing (a missing id compares equal to an empty one), are
    the entries grouped by the ids themselves.
    """
    order = np.argsort(hashes).astype(np.int32)
    hashes.sort()
    run = np.ones(len(hashes), dtype=bool)
    run[1:] = hashes[1:] != hashes[:-1]
    starts = np.flatnonzero(run)
    del run
    # every entry of a run gets the run's smallest entry index
    rep = np.empty_like(order)
    rep[order] = np.repeat(np.minimum.reduceat(order, starts), np.diff(starts, append=len(order)))
    del order
    later = rep != np.arange(len(rep), dtype=np.int32)
    repeats = packed[later]
    if (repeats != packed[rep[later]]).any() or (repeats == "").any():
        first: dict = {}
        return np.fromiter(
            map(first.setdefault, packed.tolist(), count()), dtype=np.intp, count=len(packed)
        )
    return rep


def _load_long(reader: csv.DictReader, lines: Iterator[str]) -> TwoPeriodPanel:
    _require_columns(reader, ("unit_id", "t", "y", "d"))
    has_stratum = "stratum" in (reader.fieldnames or ())
    # a bad period, outcome or treatment is named before a lone surrogate
    # in the same row
    spec = [("t", "period"), ("y", "float"), ("d", "treatment"), ("unit_id", "text")]
    spec += [("stratum", "text")] if has_stratum else []
    labels: dict = {}
    # an entry is an id distinct within its chunk: each row keeps the code
    # of its entry, and each entry its id's hash and packed text
    codes, hashes, packed, ts, ys, ds, ss = [], [], [], [], [], [], []
    entries = 0
    fault = None
    try:
        for t, y, d, uid, *stratum in _parsed_chunks(reader, lines, spec):
            table: dict = {}  # this chunk's ids only
            codes.append((_codes(table, uid) + entries).astype(np.int32))
            keys = list(table)
            hashes.append(np.fromiter(map(hash, keys), dtype=np.int64, count=len(keys)))
            packed.append(_text(keys))
            entries += len(keys)
            del table, keys
            ts.append(t)
            ys.append(y)
            ds.append(d)
            if has_stratum:
                ss.append(_codes(labels, stratum[0]).astype(np.int32))
    except PanelFormatError as err:  # raised after the rows before it
        fault = err
    if not codes:
        raise fault or PanelFormatError("no data rows")
    entry, t, d = map(np.concatenate, (codes, ts, ds))
    s = np.concatenate(ss) if has_stratum else None
    del codes, ts, ds, ss
    packed, hashes = np.concatenate(packed), np.concatenate(hashes)
    rep = _group_entries(hashes, packed)
    del hashes
    # units are numbered in the order of their first entries, which is the
    # order of their first rows
    is_first = rep == np.arange(entries)
    ids = packed[is_first]
    del packed
    code = (np.cumsum(is_first, dtype=np.int32) - 1)[rep][entry]
    del rep, is_first, entry
    # the first row of each (unit, period) slot; a later row in a slot is a
    # repeat, and a slot no row fills holds the row count
    n = len(code)
    key = 2 * code + t
    slot = np.full(2 * len(ids), n, dtype=np.int32)
    np.minimum.at(slot, key, np.arange(n, dtype=np.int32))
    dup = slot[key] != np.arange(n, dtype=np.int32)
    del key
    # the first row of each unit sets its treatment and stratum; a later
    # row that changes either is a fault
    first = np.minimum(slot[0::2], slot[1::2])
    bad = dup | (d != d[first][code])
    if has_stratum:
        bad |= s != s[first][code]
    # the fault in the earliest row is reported; a fault that ended the
    # read comes after every row here
    if bad.any():
        k = int(bad.argmax())
        row, unit = 2 + k, ids[code[k]]  # rows are numbered from 2, blank ones skipped
        if dup[k]:
            raise PanelFormatError(
                f"duplicate (unit, period) for unit {unit!r} at t={int(t[k])}", row=row
            )
        if d[k] != d[first[code[k]]]:
            raise PanelFormatError(
                f"treatment not constant within unit {unit!r}", row=row, field="d"
            )
        raise PanelFormatError(
            f"stratum not constant within unit {unit!r}", row=row, field="stratum"
        )
    if fault is not None:
        raise fault
    if n < 2 * len(ids):
        # with no repeats, a unit with one row is missing the other period
        i = int((slot == n).argmax()) // 2
        raise PanelFormatError(
            f"missing period for unit {ids[i]!r}: have t={[int(t[first[i]])]}, "
            "need both 0 and 1"
        )
    y = np.empty((2, len(ids)))
    y[t, code] = np.concatenate(ys)
    del ys
    strata = _text(list(labels))[s[first]] if has_stratum else None
    return TwoPeriodPanel(
        unit_ids=ids, y0=y[0], y1=y[1], d=d[first], strata=strata, _ids_distinct=True
    )
