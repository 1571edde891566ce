"""The column-wise CSV loader against the row-by-row reference.

Every input must give an equal panel (ids, strata, and outcome bits) from
both loaders, or a PanelFormatError with the same message, row and field.
Generated files mix valid rows with faults: unparsable or non-finite
numbers, out-of-range flags, short and over-long rows, blank lines,
quoting, CRLF line ends, repeated or inconsistent units and missing
periods.  Small chunk sizes make short files span several chunks; the
real chunk size is covered by faults placed around its first boundary
and around a later one.
Hand-written cases pin the loader's comma-split route: the hand-over to
csv in mid-file, over-long lines, NUL bytes, a missing final newline and
list-of-lines sources.
"""

from __future__ import annotations

import contextlib
import csv
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loader_oracle
from antebounds import panel as panel_module
from antebounds.panel import PanelFormatError, load_two_period

CHUNK = panel_module.CHUNK_ROWS
# a later boundary at the real chunk size (the fourth), and a chunk size
# that holds every small test file in one chunk
LATER = 32768

GOOD_NUMBERS = st.sampled_from(["0", "1", "-2.5", "3e2", "0.1", "-0", " 4 ", "1_000", "+7."])
BAD_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "1e400", "", "x", "0x1", "1__0", "1,5"])
BAD_FLAGS = st.sampled_from(["2", "", " 1", "1.0", "-1", "01", "true"])
ODD_IDS = st.sampled_from(["a,b", 'q"x', "", "u 1", "line\nbreak", "cr\rhere"])
STRATA = st.sampled_from(["A", "B", "", "A,B"])
CHUNKS = st.sampled_from([1, 2, 3, 5, 8, CHUNK])


@contextlib.contextmanager
def chunk_rows(size: int):
    saved = panel_module.CHUNK_ROWS
    panel_module.CHUNK_ROWS = size
    try:
        yield
    finally:
        panel_module.CHUNK_ROWS = saved


def assert_same_result(source, layout: str) -> None:
    """``source``: CSV text, or a list of lines."""
    try:
        expected = loader_oracle.load_two_period(source, layout)
    except csv.Error as exc:
        # the reference had no answer here (it crashed); the loader must
        # still name the fault as a format error
        with pytest.raises(PanelFormatError) as got:
            load_two_period(source, layout)
        assert str(exc) in str(got.value)
        return
    except PanelFormatError as exc:
        with pytest.raises(PanelFormatError) as got:
            load_two_period(source, layout)
        assert (str(got.value), got.value.row, got.value.field) == (str(exc), exc.row, exc.field)
        return
    got = load_two_period(source, layout)
    assert tuple(got.unit_ids) == tuple(expected.unit_ids)
    assert (got.strata is None) == (expected.strata is None)
    if got.strata is not None:
        assert tuple(got.strata) == tuple(expected.strata)
    assert got.y0.tobytes() == expected.y0.tobytes()
    assert got.y1.tobytes() == expected.y1.tobytes()
    assert got.d.dtype == expected.d.dtype
    assert np.array_equal(got.d, expected.d)


def render(draw, header: list[str], rows: list[list[str]]) -> str:
    """CSV text with drawn quoting, line ends, blank lines and row lengths."""
    quote_all = draw(st.booleans())
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    rows = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            i = draw(st.integers(0, len(rows) - 1))
            cut = draw(st.integers(0, len(rows[i]) + 2))
            rows[i] = rows[i][:cut] + ["extra"] * max(0, cut - len(rows[i]))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [])

    def field(value: str) -> str:
        return '"' + value.replace('"', '""') + '"' if quote_all else value

    lines = [",".join(map(field, header))] + [
        ",".join(map(field, r)) if r else "" for r in rows
    ]
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def apply_faults(draw, rows: list[list[str]], columns: dict[str, int]) -> None:
    """Overwrite a few fields with bad numbers, bad flags or odd ids."""
    if not rows:
        return
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        name = draw(st.sampled_from(sorted(columns)))
        if name in ("y", "y0", "y1"):
            value = draw(BAD_NUMBERS)
        elif name in ("d", "t"):
            value = draw(BAD_FLAGS)
        elif name == "unit_id":
            value = draw(st.one_of(ODD_IDS, st.sampled_from([r[columns[name]] for r in rows])))
        else:
            value = draw(STRATA)
        rows[i][columns[name]] = value


def draw_header(draw, required: list[str]) -> list[str]:
    names = required + (["stratum"] if draw(st.booleans()) else [])
    names += draw(st.sampled_from([[], ["note"], ["y0" if "y0" in required else "y"]]))
    return draw(st.permutations(names))


@st.composite
def wide_files(draw) -> str:
    header = draw_header(draw, ["unit_id", "y0", "y1", "d"])
    columns = {name: j for j, name in enumerate(header)}
    rows = []
    for i in range(draw(st.integers(0, 30))):
        values = {
            "unit_id": f"u{i}",
            "y0": draw(GOOD_NUMBERS),
            "y1": draw(GOOD_NUMBERS),
            "d": draw(st.sampled_from("01")),
            "stratum": draw(STRATA),
            "note": "n",
        }
        rows.append([values[name] for name in header])
    apply_faults(draw, rows, columns)
    return render(draw, header, rows)


@st.composite
def long_files(draw) -> str:
    header = draw_header(draw, ["unit_id", "t", "y", "d"])
    columns = {name: j for j, name in enumerate(header)}
    rows = []
    for i in range(draw(st.integers(0, 15))):
        d, stratum = draw(st.sampled_from("01")), draw(STRATA)
        for t in "01":
            values = {"unit_id": f"u{i}", "t": t, "y": draw(GOOD_NUMBERS),
                      "d": d, "stratum": stratum, "note": "n"}
            rows.append([values[name] for name in header])
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            i = draw(st.integers(0, len(rows) - 1))
            if draw(st.booleans()):
                del rows[i]  # a missing period
            else:
                rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))  # a repeat
    apply_faults(draw, rows, columns)
    return render(draw, header, rows)


# an unreadable record must not hide a fault in an earlier row of its chunk
@example(text="unit_id,y0,y1,d\nu0,nan,0,0\ncr\rhere,0,0,0\nu2,0,0,1\n", chunk=8)
@settings(max_examples=400, deadline=None)
@given(text=wide_files(), chunk=CHUNKS)
def test_wide_matches_reference(text, chunk):
    with chunk_rows(chunk):
        assert_same_result(text, "wide")


def colliding_hash(uid) -> int:
    """A hash under which most ids tie, so that the long loader must settle
    its ties by comparing the ids themselves."""
    return 0 if uid is None else len(uid) % 3


@contextlib.contextmanager
def ids_hashed_by(function):
    panel_module.hash = function
    try:
        yield
    finally:
        del panel_module.hash


@example(text="unit_id,t,y,d\nu0,0,1,0\nu0,0,2,0\ncr\rhere,0,0,0\n", chunk=8, hash_=hash)
# a missing id and an empty one are two units, though they compare equal packed
@example(text="t,y,d,unit_id\n0,1,1\n0,1,0,\n1,2,1\n1,2,0,\n", chunk=1, hash_=colliding_hash)
@settings(max_examples=400, deadline=None)
@given(text=long_files(), chunk=CHUNKS, hash_=st.sampled_from([hash, colliding_hash]))
def test_long_matches_reference(text, chunk, hash_):
    with chunk_rows(chunk), ids_hashed_by(hash_):
        assert_same_result(text, "long")


# --- the real chunk size: faults around its first and a later boundary ----


@functools.lru_cache(maxsize=None)
def wide_lines(n: int) -> tuple[str, ...]:
    y = np.random.default_rng(7).normal(size=(n, 2)).tolist()
    return tuple(f"u{i},{a!r},{b!r},{i % 2}" for i, (a, b) in enumerate(y))


@functools.lru_cache(maxsize=None)
def long_lines(n_units: int) -> tuple[str, ...]:
    y = np.random.default_rng(8).normal(size=(n_units, 2)).tolist()
    # a leading unit whose second row comes last puts every other unit's
    # t=1 row at an even offset, so one pair straddles the boundary
    lines = ["lead,0,0.5,1,A"]
    for i, (a, b) in enumerate(y):
        stratum = "AB"[i % 3 == 0]
        lines += [f"u{i},0,{a!r},{i % 2},{stratum}", f"u{i},1,{b!r},{i % 2},{stratum}"]
    return tuple(lines + ["lead,1,1.5,1,A"])


def wide_text(lines) -> str:
    return "unit_id,y0,y1,d\n" + "\n".join(lines) + "\n"


def long_text(lines) -> str:
    return "unit_id,t,y,d,stratum\n" + "\n".join(lines) + "\n"


def set_field(j: int, value):
    def fault(line: str) -> str:
        fields = line.split(",")
        fields[j] = value(fields[j]) if callable(value) else value
        return ",".join(fields)

    return fault


WIDE_FAULTS = {  # fields: unit_id, y0, y1, d
    "non-finite y0": set_field(1, "nan"),
    "bad d": set_field(3, "2"),
    "short row": lambda line: line.rsplit(",", 1)[0],
}

LONG_FAULTS = {  # fields: unit_id, t, y, d, stratum
    "bad t": set_field(1, "7"),
    "treatment change": set_field(3, lambda d: "1" if d == "0" else "0"),
    "stratum change": set_field(4, "C"),
}

BOUNDARY = [b + k for b in (CHUNK, LATER) for k in (-1, 0, 1)]


def test_later_is_a_chunk_boundary():
    assert LATER % CHUNK == 0 and LATER > CHUNK


@pytest.mark.parametrize("fault", sorted(WIDE_FAULTS))
@pytest.mark.parametrize("offset", BOUNDARY)
def test_wide_fault_at_chunk_boundary(fault, offset):
    lines = list(wide_lines(LATER + 2))
    lines[offset] = WIDE_FAULTS[fault](lines[offset])
    assert_same_result(wide_text(lines), "wide")


@pytest.mark.parametrize("fault", sorted(LONG_FAULTS) + ["repeat", "missing period"])
@pytest.mark.parametrize("offset", BOUNDARY)
def test_long_fault_at_chunk_boundary(fault, offset):
    lines = list(long_lines(LATER // 2 + 1))
    if fault == "repeat":
        lines.insert(offset, lines[offset - 3])
    elif fault == "missing period":
        del lines[offset]
    else:
        lines[offset] = LONG_FAULTS[fault](lines[offset])
    assert_same_result(long_text(lines), "long")


@pytest.mark.parametrize("first", ["repeat", "treatment change"])
@pytest.mark.parametrize("second", ["bad t", "over-long field"])
def test_long_pairing_fault_before_a_later_read_fault(first, second):
    # the read ends in the second chunk, before the rows are paired; the
    # pairing fault of the first chunk is still the one reported
    lines = list(long_lines(CHUNK // 2 + 1))
    if first == "repeat":
        lines.insert(10, lines[7])  # u3 at t=0 again
    else:
        lines[10] = LONG_FAULTS["treatment change"](lines[10])  # u4 at t=1
    later = CHUNK + 1
    if second == "bad t":
        lines[later] = LONG_FAULTS["bad t"](lines[later])
    else:
        lines[later] = set_field(2, "0" * (csv.field_size_limit() + 1))(lines[later])
    assert_same_result(long_text(lines), "long")
    with pytest.raises(PanelFormatError) as got:
        load_two_period(long_text(lines), "long")
    assert got.value.row == 12


@pytest.mark.parametrize("layout", ["wide", "long"])
def test_clean_file_spans_several_chunks(layout):
    # three chunks either way: 2*CHUNK + 5 wide rows, or 2*CHUNK + 6 long ones
    if layout == "wide":
        n, text = 2 * CHUNK + 5, wide_text(wide_lines(2 * CHUNK + 5))
    else:
        n, text = CHUNK + 3, long_text(long_lines(CHUNK + 2))
    assert load_two_period(text, layout).n == n
    assert_same_result(text, layout)


# --- the comma-split route and its hand-over to csv ------------------------


def small_wide(n: int) -> list[str]:
    return [f"u{i},{i},0.5,{i % 2}" for i in range(n)]


def test_quote_in_a_later_chunk_hands_over_to_csv():
    # the quoted id opens on the last line of the third chunk and closes
    # on the next line, so csv must read on past that chunk
    lines = small_wide(12)
    lines[8] = '"u\n8",8,0.5,1'
    with chunk_rows(3):
        assert_same_result(wide_text(lines), "wide")
        assert load_two_period(wide_text(lines), "wide").unit_ids[8] == "u\n8"


@pytest.mark.parametrize("long_field", [False, True])
def test_line_over_field_size_limit_in_a_later_chunk(long_field):
    limit = csv.field_size_limit()
    lines = small_wide(9)
    if long_field:
        lines[6] = f"u6,{'0' * (limit + 1)},0,0"
    else:  # a long line of fields within the limit still parses
        lines[6] = f"u6,{'0' * (limit // 2)},{'0' * (limit // 2)},0"
    text = wide_text(lines)
    with chunk_rows(3):
        assert_same_result(text, "wide")
        if long_field:
            with pytest.raises(PanelFormatError) as got:
                load_two_period(text, "wide")
            assert got.value.row == 8
            assert str(got.value) == (
                f"unreadable CSV row: field larger than field limit ({limit}) (row: 8)"
            )


@pytest.mark.parametrize("chunk", [1, 2, CHUNK, LATER])
def test_nul_in_a_field(chunk):
    lines = small_wide(5)
    lines[3] = "u\x003,3,0.5,1"
    with chunk_rows(chunk):
        assert_same_result(wide_text(lines), "wide")


@pytest.mark.parametrize("layout", ["wide", "long"])
@pytest.mark.parametrize("chunk", [1, 3, 4, CHUNK, LATER])
def test_last_line_without_newline(layout, chunk):
    if layout == "wide":
        text = wide_text(small_wide(8))
    else:
        text = long_text(long_lines(3))
    with chunk_rows(chunk):
        assert_same_result(text.removesuffix("\n"), layout)


LIST_SOURCES = {
    "no newlines": ["unit_id,y0,y1,d"] + small_wide(7),
    "some newlines": ["unit_id,y0,y1,d\n"] + [
        line + "\n" * (i % 3 == 0) for i, line in enumerate(small_wide(7))
    ],
    "two lines in one": ["unit_id,y0,y1,d\n", "u0,0,1,0\nu1,1,1,1\n", "u2,0,1,0\n"],
    # as many newlines as elements, but one inside an element, which csv rejects
    "newline inside": ["unit_id,y0,y1,d\n", "u0,0,1,0\nu1,1,1,1", "\n", "u2,0,1,0\n"],
    "line cut in two": ["unit_id,y0,y1,d\n", "u0,0,", "1,0\n", "u1,1,1,1\n"],
    "blank element": ["unit_id,y0,y1,d\n", "u0,0,1,0\n", "", "u1,1,1,1\n"],
    "bytes element": ["unit_id,y0,y1,d\n", "u0,0,1,0\n", b"u1,1,1,1\n"],
}


@pytest.mark.parametrize("name", sorted(LIST_SOURCES))
@pytest.mark.parametrize("chunk", [1, 2, 5, CHUNK, LATER])
def test_list_of_lines_source(name, chunk):
    with chunk_rows(chunk):
        assert_same_result(LIST_SOURCES[name], "wide")


@pytest.mark.parametrize("layout", ["wide", "long"])
def test_clean_file_builds_no_csv_reader_for_its_rows(layout, monkeypatch):
    made = []
    real_reader = csv.reader

    def counting_reader(*args, **kwargs):
        made.append(args)
        return real_reader(*args, **kwargs)

    monkeypatch.setattr(panel_module.csv, "reader", counting_reader)
    to_text = wide_text if layout == "wide" else long_text
    lines = small_wide(10) if layout == "wide" else list(long_lines(5))
    with chunk_rows(3):
        load_two_period(to_text(lines), layout)
        assert len(made) == 1  # the DictReader's, which reads only the header
        made.clear()
        # a quoted id in the last chunk: csv reads that chunk only
        lines[-1] = '"{}",{}'.format(*lines[-1].split(",", 1))
        load_two_period(to_text(lines), layout)
        assert len(made) == 2
