"""Panel loading, validation, and group-statistics tests."""

import builtins
import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antebounds import panel as panel_module
from antebounds.panel import (
    CohortPanel,
    GTransform,
    PanelFormatError,
    TwoPeriodPanel,
    _first_repeat,
    group_stats,
    load_two_period,
    treatment_ratio,
)

from panel_oracle import restrict_to_stratum


def make_panel(y0, y1, d, strata=None):
    ids = tuple(f"u{i}" for i in range(len(d)))
    return TwoPeriodPanel(unit_ids=ids, y0=y0, y1=y1, d=d, strata=strata)


def random_panel(rng, n=40, with_strata=False):
    d = (rng.random(n) < 0.5).astype(int)
    if d.sum() < 2 or d.sum() > n - 2:
        d[:2], d[2:4] = 1, 0
    strata = tuple(rng.choice(["A", "B"], size=n)) if with_strata else None
    return make_panel(rng.normal(size=n), rng.normal(size=n), d, strata)


class TestLoaders:
    def test_wide_roundtrip(self):
        panel = load_two_period("unit_id,y0,y1,d\na,1.0,3.0,1\nb,0.0,1.0,0\n", "wide")
        assert panel.n == 2
        assert treatment_ratio(panel) == 0.5
        assert panel.y0.tolist() == [1.0, 0.0]

    def test_long_roundtrip(self):
        text = (
            "unit_id,t,y,d\n"
            "a,0,1.0,1\na,1,3.0,1\n"
            "b,0,0.0,0\nb,1,1.0,0\n"
        )
        panel = load_two_period(text, "long")
        assert panel.y1.tolist() == [3.0, 1.0]

    def test_long_missing_period(self):
        text = "unit_id,t,y,d\na,0,1.0,1\nb,0,0.0,0\nb,1,1.0,0\n"
        with pytest.raises(PanelFormatError, match="missing period"):
            load_two_period(text, "long")

    def test_long_inconsistent_treatment(self):
        text = "unit_id,t,y,d\na,0,1.0,1\na,1,3.0,0\nb,0,0.0,0\nb,1,1.0,0\n"
        with pytest.raises(PanelFormatError, match="treatment not constant within unit"):
            load_two_period(text, "long")

    def test_long_duplicate_row(self):
        text = "unit_id,t,y,d\na,0,1.0,1\na,0,2.0,1\nb,0,0.0,0\nb,1,1.0,0\n"
        with pytest.raises(PanelFormatError, match="duplicate"):
            load_two_period(text, "long")

    def test_missing_column(self):
        with pytest.raises(PanelFormatError, match="missing column"):
            load_two_period("unit_id,y0,d\na,1.0,1\n", "wide")

    def test_bad_treatment_value(self):
        with pytest.raises(PanelFormatError, match="treatment must be 0 or 1"):
            load_two_period("unit_id,y0,y1,d\na,1.0,2.0,2\nb,0.0,1.0,0\n", "wide")

    def test_oversized_header_field_names_row_1(self):
        with pytest.raises(PanelFormatError, match=r"field larger than field limit.*\(row: 1\)"):
            load_two_period("unit_id,y0,y1,d," + "x" * 200_000 + "\na,1,2,1\n", "wide")

    def test_nonnumeric_outcome_names_row_and_field(self):
        with pytest.raises(PanelFormatError, match="y1"):
            load_two_period("unit_id,y0,y1,d\na,1.0,oops,1\nb,0.0,1.0,0\n", "wide")

    def test_stratum_column(self):
        panel = load_two_period(
            "unit_id,y0,y1,d,stratum\na,1,3,1,east\nb,0,1,0,east\nc,2,2,1,west\ne,1,1,0,west\n",
            "wide",
        )
        assert panel.stratum_labels() == ("east", "west")
        assert restrict_to_stratum(panel, "west").n == 2
        assert tuple(restrict_to_stratum(panel, "west").unit_ids) == ("c", "e")

    def test_undecodable_bytes_are_a_format_error(self):
        # the codec's message, with the byte offset, is kept
        header = "unit_id,y0,y1,d"
        offset = len(header) + 1
        with pytest.raises(PanelFormatError, match=f"not UTF-8.*0xff in position {offset}:"):
            load_two_period(header.encode() + b"\n\xff,1,2,1\n")

    def test_a_byte_order_mark_is_skipped(self):
        text = "unit_id,y0,y1,d\na,1.0,3.0,1\nb,0.0,1.0,0\n"
        panel = load_two_period(b"\xef\xbb\xbf" + text.encode())
        assert tuple(panel.unit_ids) == ("a", "b")
        assert panel.y1.tolist() == [3.0, 1.0]

    def test_cohort_requires_never_treated(self):
        with pytest.raises(PanelFormatError, match="never-treated"):
            CohortPanel(("a",), np.array([[0.0, 1.0]]), np.array([2.0]))


ODD_TEXT = [
    "",
    "nul\x00inside",
    "ünïcödé",
    "a" * 15,
    "a" * 16,
    "é" * 8,  # 16 UTF-8 bytes in 8 characters
    "日本語の学校番号",
    "line\nbreak",
]


def odd_text_csv(layout: str) -> str:
    """Each of ODD_TEXT as a unit id and as its stratum, written by csv."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if layout == "wide":
        writer.writerow(["unit_id", "y0", "y1", "d", "stratum"])
        writer.writerows([uid, k, k + 0.5, k % 2, uid] for k, uid in enumerate(ODD_TEXT))
    else:
        writer.writerow(["unit_id", "t", "y", "d", "stratum"])
        for t in (0, 1):
            writer.writerows([uid, t, k + t, k % 2, uid] for k, uid in enumerate(ODD_TEXT))
    return out.getvalue()


class TestLoadedTextColumns:
    @pytest.mark.parametrize("layout", ["wide", "long"])
    def test_odd_ids_and_strata_round_trip(self, layout):
        panel = load_two_period(odd_text_csv(layout), layout)
        assert tuple(panel.unit_ids) == tuple(ODD_TEXT)
        assert tuple(panel.strata) == tuple(ODD_TEXT)
        assert all(type(uid) is str for uid in panel.unit_ids)
        assert panel.y0.tolist() == list(range(len(ODD_TEXT)))
        assert panel.stratum_labels() == tuple(ODD_TEXT)

    def test_a_hash_tie_falls_back_to_comparing_ids(self, monkeypatch):
        monkeypatch.setattr(panel_module, "hash", lambda _: 0, raising=False)
        text = "unit_id,y0,y1,d\na,1,2,1\nb,1,2,0\nc,1,2,1\n"
        assert tuple(load_two_period(text, "wide").unit_ids) == ("a", "b", "c")
        with pytest.raises(PanelFormatError) as got:
            load_two_period(text + "\nc,0,0,0\nb,0,0,0\n", "wide")  # blank lines are not rows
        assert str(got.value) == "unit_id 'c' repeats an earlier unit_id (row: 5, field: unit_id)"
        assert (got.value.row, got.value.field) == (5, "unit_id")

    def test_loaded_ids_are_hashed_once(self, monkeypatch):
        calls = []

        def counting_hash(value):
            calls.append(value)
            return builtins.hash(value)

        monkeypatch.setattr(panel_module, "hash", counting_hash, raising=False)
        wide = "unit_id,y0,y1,d\na,1,2,1\nb,1,2,0\nc,1,2,1\nd,0,0,0\n"
        assert load_two_period(wide, "wide").n == 4
        assert calls == ["a", "b", "c", "d"]  # by the loader, not again by the panel
        calls.clear()
        long = "unit_id,t,y,d\na,0,1,1\na,1,2,1\nb,0,1,0\nb,1,2,0\n"
        assert load_two_period(long, "long").n == 2
        assert calls == []  # the ids are the keys of the loader's unit dict

    @pytest.mark.parametrize("layout", ["wide", "long"])
    @pytest.mark.parametrize("field", ["unit_id", "stratum"])
    def test_a_lone_surrogate_is_a_format_error(self, layout, field):
        bad = "b\ud800"
        uid, stratum = (bad, "B") if field == "unit_id" else ("b", bad)
        if layout == "wide":
            # a bad number in a later row of the same chunk is not the one named
            text = f"unit_id,y0,y1,d,stratum\na,1,2,1,A\n{uid},1,2,0,{stratum}\nc,nan,2,1,A\n"
        else:
            # nor is a treatment change in a later row
            text = (
                f"unit_id,t,y,d,stratum\na,0,1,1,A\n{uid},0,1,0,{stratum}\n"
                f"a,1,2,0,A\n{uid},1,2,0,{stratum}\n"
            )
        with pytest.raises(PanelFormatError) as got:
            load_two_period(text, layout)
        assert (got.value.row, got.value.field) == (3, field)
        assert str(got.value) == f"lone surrogate in {bad!r} (row: 3, field: {field})"

    def test_an_earlier_fault_comes_before_a_lone_surrogate(self):
        text = "unit_id,y0,y1,d\na,1,2,7\nb\ud800,1,2,0\n"
        with pytest.raises(PanelFormatError) as got:
            load_two_period(text, "wide")
        assert (got.value.row, got.value.field) == (2, "d")
        text = "unit_id,t,y,d\na,0,1,1\na,1,2,0\nb\ud800,0,1,0\n"
        with pytest.raises(PanelFormatError) as got:
            load_two_period(text, "long")
        assert (got.value.row, got.value.field) == (3, "d")

    @pytest.mark.parametrize("field", ["unit_id", "stratum"])
    def test_a_bad_period_is_named_before_a_lone_surrogate_in_its_row(self, field):
        uid, stratum = ("b\ud800", "B") if field == "unit_id" else ("b", "B\ud800")
        text = f"unit_id,t,y,d,stratum\na,0,1,1,A\n{uid},7,1,0,{stratum}\n"
        with pytest.raises(PanelFormatError) as got:
            load_two_period(text, "long")
        assert str(got.value) == "period must be 0 or 1, got '7' (row: 3, field: t)"

    def test_a_wide_lone_surrogate_id_is_named_before_a_bad_number_in_its_row(self):
        text = "unit_id,y0,y1,d\na,1,2,1\nb\ud800,x,2,0\n"
        with pytest.raises(PanelFormatError) as got:
            load_two_period(text, "wide")
        assert (got.value.row, got.value.field) == (3, "unit_id")
        assert str(got.value).startswith("lone surrogate in ")

    @pytest.mark.parametrize("layout", ["wide", "long"])
    @pytest.mark.parametrize("field", ["unit_id", "stratum"])
    @pytest.mark.parametrize("at", [0, 1])
    def test_a_lone_surrogate_in_a_later_chunk_is_named_at_its_row(
        self, layout, field, at, monkeypatch
    ):
        # the bad row is row ``at`` of a later 2-row chunk, the only one
        # to hold a lone surrogate
        monkeypatch.setattr(panel_module, "CHUNK_ROWS", 2)
        bad = "c\ud800"
        uid, stratum = (bad, "C") if field == "unit_id" else ("c", bad)
        if layout == "wide":
            head, rows = "unit_id,y0,y1,d,stratum\na,1,2,1,A\nb,1,2,0,B\n", [
                f"{uid},1,2,0,{stratum}\n", "x,0,0,0,A\n"]
        else:
            head = "unit_id,t,y,d,stratum\na,0,1,1,A\na,1,2,1,A\nb,0,1,0,B\nb,1,2,0,B\n"
            rows = [f"{uid},0,1,0,{stratum}\n", "x,0,1,0,A\n"]
        text = head + "".join(rows[::-1] if at else rows)
        with pytest.raises(PanelFormatError) as got:
            load_two_period(text, layout)
        assert (got.value.row, got.value.field) == (head.count("\n") + 1 + at, field)

    def test_a_pairing_fault_beats_a_lone_surrogate_in_a_later_chunk(self, monkeypatch):
        monkeypatch.setattr(panel_module, "CHUNK_ROWS", 2)
        text = "unit_id,t,y,d\na,0,1,1\na,0,2,1\nb\ud800,0,1,0\nb\ud800,1,1,0\n"
        with pytest.raises(PanelFormatError) as got:
            load_two_period(text, "long")
        assert str(got.value) == "duplicate (unit, period) for unit 'a' at t=0 (row: 3)"

    def test_a_loaded_wide_panel_keeps_at_most_48_bytes_a_row(self):
        n = 20_000
        text = "unit_id,y0,y1,d\n" + "".join(
            f"u{i:07d},{i}.5,{-i}.25,{i % 2}\n" for i in range(n)
        )
        tracemalloc.start()
        try:
            panel = load_two_period(text, "wide")
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert panel.n == n
        # 16 bytes of packed id, 16 of outcomes and 1 of treatment; one str
        # id a row took about 89
        assert kept <= 48 * n

    def test_loading_a_wide_file_peaks_at_most_70_bytes_a_row(self, tmp_path):
        n = 200_000
        path = tmp_path / "wide.csv"
        path.write_text(
            "unit_id,y0,y1,d\n" + "".join(f"u{i:07d},{i}.5,{-i}.25,{i % 2}\n" for i in range(n))
        )
        with open(path) as source:
            tracemalloc.start()
            try:
                panel = load_two_period(source, "wide")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert panel.n == n
        # the kept columns, one column while it is joined and one chunk of
        # lines; with every column's chunks alive while it was joined, and
        # np.isin's sort on d, it was about 81
        assert peak <= 70 * n


class TestPanelInvariants:
    def test_duplicate_unit_ids(self):
        with pytest.raises(PanelFormatError, match="unit_id 'a' repeats an earlier unit_id"):
            TwoPeriodPanel(("a", "a"), [1.0, 2.0], [1.0, 2.0], [1, 0])

    def test_the_first_repeat_is_named(self):
        ids = ("u1", "u7", "u3", "u3", "u7")
        with pytest.raises(PanelFormatError, match=r"^unit_id 'u3' repeats an earlier unit_id$"):
            TwoPeriodPanel(ids, [0.0] * 5, [0.0] * 5, [1, 0, 1, 0, 1])
        cohorts = np.array([2.0, np.inf, np.inf, 2.0, np.inf])
        with pytest.raises(PanelFormatError, match=r"^unit_id 'u3' repeats an earlier unit_id$"):
            CohortPanel(ids, np.zeros((5, 2)), cohorts)

    def test_needs_both_groups(self):
        with pytest.raises(PanelFormatError, match="at least one treated and one control"):
            make_panel([1.0, 2.0], [1.0, 2.0], [1, 1])

    def test_nonfinite_outcome(self):
        with pytest.raises(PanelFormatError, match="finite"):
            make_panel([np.nan, 2.0], [1.0, 2.0], [1, 0])

    def test_validation_peaks_at_most_4_bytes_a_row(self):
        n = 200_000
        y = np.linspace(-1.0, 1.0, n)
        d = np.arange(n, dtype=np.int64) % 2
        tracemalloc.start()
        try:
            TwoPeriodPanel(range(n), y, y, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a bool per row for each of d == 0, d == 1 and their union;
        # np.isin's sort took about 19
        assert peak <= 4 * n

    def test_treatment_must_be_binary(self):
        message = r"^treatment indicator must be 0 or 1 \(field: d\)$"
        for bad in (2, -1):
            with pytest.raises(PanelFormatError, match=message):
                make_panel([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1, 0, bad])

    @pytest.mark.parametrize("bad", [0.5, 1.9, "1"])
    def test_treatment_is_checked_as_given(self, bad):
        # an integer cast before the check would read each as 0 or 1
        message = r"^treatment indicator must be 0 or 1 \(field: d\)$"
        with pytest.raises(PanelFormatError, match=message) as got:
            make_panel([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1, 0, bad])
        assert got.value.field == "d"

    def test_treatment_is_kept_as_uint8(self):
        panel = make_panel([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [True, False, 1.0])
        assert panel.d.dtype == np.uint8 and panel.d.tolist() == [1, 0, 1]
        for layout, text in (
            ("wide", "unit_id,y0,y1,d\na,1,3,1\nb,0,1,0\n"),
            ("long", "unit_id,t,y,d\na,0,1,1\na,1,3,1\nb,0,0,0\nb,1,1,0\n"),
        ):
            panel = load_two_period(text, layout)
            assert panel.d.dtype == np.uint8 and panel.d.tolist() == [1, 0], layout


class TestGroupStats:
    def test_constant_groups(self):
        panel = make_panel([1, 1, 0, 0], [3, 3, 1, 1], [1, 1, 0, 0])
        gs = group_stats(panel, GTransform.identity())
        assert gs.delta[1, 1] == 3 and gs.delta[1, 0] == 1
        assert gs.delta[0, 1] == 1 and gs.delta[0, 0] == 0
        assert np.all(gs.sigma2 == 0)

    def test_hand_variance(self):
        # treated y1 in {2, 4}: mean 3, variance (1+1)/1 = 2
        panel = make_panel([0, 0, 0, 0], [2, 4, 1, 1], [1, 1, 0, 0])
        gs = group_stats(panel, GTransform.identity())
        assert gs.delta[1, 1] == 3.0
        assert gs.sigma2[1, 1] == pytest.approx(2.0)

    def test_indicator_transform(self):
        panel = make_panel([0, 0, 0, 0], [1, 3, 1, 1], [1, 1, 0, 0])
        gs = group_stats(panel, GTransform.indicator(2.0))
        assert gs.delta[1, 1] == pytest.approx(0.5)

    def test_indicator_tie_is_included(self):
        g = GTransform.indicator(2.0)
        assert g.apply(np.array([2.0])).tolist() == [1.0]
        assert g.apply(np.array([2.0000001])).tolist() == [0.0]

    def test_insufficient_group(self):
        panel = make_panel([1, 0, 0], [2, 1, 1], [1, 0, 0])
        with pytest.raises(ValueError, match="insufficient group size"):
            group_stats(panel, GTransform.identity())

    def test_row_order_invariance(self):
        rng = np.random.default_rng(10)
        panel = random_panel(rng)
        perm = rng.permutation(panel.n)
        shuffled = TwoPeriodPanel(
            tuple(panel.unit_ids[i] for i in perm),
            panel.y0[perm],
            panel.y1[perm],
            panel.d[perm],
        )
        a = group_stats(panel, GTransform.identity())
        b = group_stats(shuffled, GTransform.identity())
        assert np.allclose(a.delta, b.delta) and np.allclose(a.sigma2, b.sigma2)
        assert np.allclose(a.cov, b.cov)

    def test_means_match_onepass_oracle(self):
        rng = np.random.default_rng(11)
        panel = random_panel(rng)
        gs = group_stats(panel, GTransform.identity())
        for d in (0, 1):
            mask = panel.d == d
            # independent accumulation loop
            total0 = total1 = count = 0.0
            for y0, y1, m in zip(panel.y0, panel.y1, mask):
                if m:
                    total0 += y0
                    total1 += y1
                    count += 1
            assert gs.delta[d, 0] == pytest.approx(total0 / count, abs=1e-12)
            assert gs.delta[d, 1] == pytest.approx(total1 / count, abs=1e-12)

    def test_cauchy_schwarz_on_random_panels(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            panel = random_panel(rng, n=rng.integers(6, 60))
            gs = group_stats(panel, GTransform.identity())
            for d in (0, 1):
                bound = np.sqrt(gs.sigma2[d, 0] * gs.sigma2[d, 1])
                assert abs(gs.cov[d]) <= bound + 1e-12

    def test_treatment_ratio_within_stratum(self):
        rng = np.random.default_rng(29)
        panel = random_panel(rng, with_strata=True)
        for label in ("A", "B"):
            within = treatment_ratio(restrict_to_stratum(panel, label))
            assert treatment_ratio(panel, label) == within  # bit for bit
        with pytest.raises(KeyError):
            treatment_ratio(panel, "C")

    def test_treatment_ratio(self):
        panel = make_panel([0] * 5, [1] * 5, [1, 1, 0, 0, 0])
        assert treatment_ratio(panel) == pytest.approx(0.4)


class TestCohortPanel:
    def test_outcomes_at(self):
        panel = CohortPanel(
            ("a", "b"),
            np.array([[0.0, 1.0], [0.5, 0.7]]),
            np.array([2.0, np.inf]),
        )
        assert panel.outcomes_at(2).tolist() == [1.0, 0.7]
        with pytest.raises(ValueError):
            panel.outcomes_at(3)


class TestGTransformCustom:
    def test_kind_without_callable(self):
        import pytest
        from antebounds.panel import GTransform
        bad = GTransform(kind="mystery")
        with pytest.raises(ValueError, match="unknown GTransform kind 'mystery'"):
            bad.apply([1.0])


def _planted(draw_ids):
    """Ids from ``draw_ids`` with, at random, copies of some of them spliced
    in at random places."""

    @st.composite
    def strategy(draw):
        ids = draw(st.lists(draw_ids, max_size=60))
        if ids:
            for _ in range(draw(st.integers(0, 3))):
                ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(ids)))
        return ids

    return strategy()


class TestDistinct:
    @settings(max_examples=300, deadline=None)
    @given(ids=st.one_of(
        _planted(st.text(max_size=4)),
        _planted(st.integers(-(2**70), 2**70)),
        _planted(st.floats(allow_nan=True)),
        _planted(st.one_of(st.integers(-3, 3), st.floats(-3, 3))),
    ))
    def test_agrees_with_the_set_test(self, ids):
        k = _first_repeat(ids)
        assert (k is None) == (len(set(ids)) == len(ids))
        if k is not None:  # the first repeat: ids[k] is in ids[:k], and ids[:k] is distinct
            assert ids[k] in set(ids[:k]) and len(set(ids[:k])) == k

    @pytest.mark.parametrize("ids, distinct", [
        ([-1, -2], True),  # CPython hashes both to -2
        ([1, 1.0], False),  # equal, so the same id
        ([float("nan"), float("nan")], True),  # two NaN objects never compare equal
        ([math.nan, math.nan], False),  # one NaN object is the same id twice
        ([2**61 - 1, 0], True),  # a hash modulus tie
        (["a", "b", "a"], False),
        ([], True),
        (["a"], True),
    ])
    def test_a_hash_tie_falls_back_to_equality(self, ids, distinct):
        assert (_first_repeat(ids) is None) is distinct

    def test_a_range_is_distinct_without_a_check(self):
        assert _first_repeat(range(10**12)) is None

    def test_checking_100k_string_ids_stays_small(self):
        ids = tuple(f"unit-{i:07d}" for i in range(100_000))
        tracemalloc.start()
        try:
            assert _first_repeat(ids) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a set of these ids would take about 6 MiB
        assert peak < 2 * 2**20
