"""Bounded-outcome and trimming bound tests."""

import numpy as np
import pytest

from antebounds.altbounds import (
    OutcomeBounds,
    bounded_outcome_set,
    common_term,
    trimming_set,
)
from antebounds.bounds import SignRegime, did_estimand, identified_set_benchmark
from antebounds.panel import GTransform, TwoPeriodPanel, group_stats

from test_panel import make_panel, random_panel

IDY = GTransform.identity()


def _common_term_weighted(panel: TwoPeriodPanel, g: GTransform) -> float:
    """T as the direct propensity-weighted sample mean; algebraically equal
    to :func:`common_term`, the oracle it is checked against."""
    p = panel.n_treated / panel.n
    g1 = g.apply(panel.y1)
    g0 = g.apply(panel.y0)
    d = panel.d.astype(float)
    w = (d - p) / (p * (1.0 - p)) * g1 + (1.0 - d) / (1.0 - p) * g0
    return float(w.mean())


class TestOutcomeBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            OutcomeBounds(2.0, 1.0)
        with pytest.raises(ValueError):
            OutcomeBounds(float("nan"), 1.0)


class TestCommonTerm:
    def test_weighted_and_group_mean_routes_agree(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            panel = random_panel(rng, n=int(rng.integers(6, 80)))
            a = common_term(panel, IDY)
            b = _common_term_weighted(panel, IDY)
            assert a == pytest.approx(b, abs=1e-12)

    def test_same_bits_as_group_means(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            panel = random_panel(rng, n=int(rng.integers(6, 80)))
            gs = group_stats(panel, IDY)
            assert common_term(panel, IDY) == float(
                gs.delta[1, 1] - gs.delta[0, 1] + gs.delta[0, 0]
            )

    def test_one_unit_per_group(self):
        # only means enter T, so a lone control (or treated) unit is enough
        panel = make_panel([5, 1, 2, 3], [7, 2, 4, 3], [0, 1, 1, 1])
        assert common_term(panel, IDY) == pytest.approx(_common_term_weighted(panel, IDY))
        assert common_term(panel, IDY) == pytest.approx(3.0 - 7.0 + 5.0)
        iv = bounded_outcome_set(panel, IDY, OutcomeBounds(0.0, 10.0))
        assert iv.as_tuple() == (pytest.approx(-9.0), pytest.approx(1.0))
        trim = trimming_set(panel, IDY, 0.3)
        assert trim.lower <= trim.upper
        lone_treated = make_panel([1, 2, 3, 4], [2, 4, 3, 9], [1, 0, 0, 0])
        assert common_term(lone_treated, IDY) == pytest.approx(
            _common_term_weighted(lone_treated, IDY)
        )

    def test_hand_value(self):
        # treated (1,3), control (0,1): T = (3 - 1) + 0 = 2
        panel = make_panel([1, 1, 0, 0], [3, 3, 1, 1], [1, 1, 0, 0])
        assert common_term(panel, IDY) == pytest.approx(2.0)


class TestBoundedOutcome:
    def test_hand_interval(self):
        panel = make_panel([1, 1, 0, 0], [3, 3, 1, 1], [1, 1, 0, 0])
        iv = bounded_outcome_set(panel, IDY, OutcomeBounds(0.0, 1.0))
        assert iv.as_tuple() == (pytest.approx(1.0), pytest.approx(2.0))
        assert iv.theorem_tag == "bounded_outcome"

    def test_binary_outcome_width_one(self):
        rng = np.random.default_rng(62)
        y0 = (rng.random(30) < 0.5).astype(float)
        y1 = (rng.random(30) < 0.6).astype(float)
        d = np.array([1] * 15 + [0] * 15)
        panel = make_panel(y0, y1, d)
        iv = bounded_outcome_set(panel, IDY, OutcomeBounds(0.0, 1.0))
        assert iv.upper - iv.lower == pytest.approx(1.0)

    def test_width_is_always_b_minus_a(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            panel = random_panel(rng)
            lo = float(panel.y0.min()) - 0.5
            hi = float(panel.y0.max()) + rng.uniform(0.1, 2.0)
            iv = bounded_outcome_set(panel, IDY, OutcomeBounds(lo, hi))
            assert iv.upper - iv.lower == pytest.approx(hi - lo, abs=1e-12)

    def test_degenerate_point(self):
        panel = make_panel([2, 2, 2, 2], [3, 4, 1, 2], [1, 1, 0, 0])
        iv = bounded_outcome_set(panel, IDY, OutcomeBounds(2.0, 2.0))
        assert iv.lower == iv.upper

    def test_violation_names_unit(self):
        panel = make_panel([1, 5, 0, 0], [3, 3, 1, 1], [1, 1, 0, 0])
        with pytest.raises(ValueError, match="bound violated by data.*'u1'"):
            bounded_outcome_set(panel, IDY, OutcomeBounds(0.0, 2.0))


class TestTrimming:
    def test_eta_zero_degenerates(self):
        rng = np.random.default_rng(64)
        panel = random_panel(rng)
        iv = trimming_set(panel, IDY, 0.0)
        t = common_term(panel, IDY)
        full_mean = panel.y0[panel.d == 1].mean()
        assert iv.lower == iv.upper == pytest.approx(t - full_mean)

    def test_hand_quantile_convention(self):
        # treated g(y0) in {0, 10}, eta = 0.5: q_0.5 = 0, so the upper-tail
        # mean is 5 and the lower-tail mean ({<= 0}) is 0
        panel = make_panel([0, 10, 1, 1], [1, 1, 1, 1], [1, 1, 0, 0])
        t = common_term(panel, IDY)
        iv = trimming_set(panel, IDY, 0.5)
        assert iv.lower == pytest.approx(t - 5.0)
        assert iv.upper == pytest.approx(t - 0.0)

    def test_nesting_in_eta(self):
        rng = np.random.default_rng(65)
        for _ in range(200):
            panel = random_panel(rng, n=int(rng.integers(8, 40)))
            e1, e2 = sorted(rng.uniform(0.0, 0.9, size=2))
            a = trimming_set(panel, IDY, float(e1))
            b = trimming_set(panel, IDY, float(e2))
            assert b.lower <= a.lower + 1e-12
            assert a.upper <= b.upper + 1e-12

    def test_eta_domain(self):
        rng = np.random.default_rng(66)
        panel = random_panel(rng)
        with pytest.raises(ValueError):
            trimming_set(panel, IDY, 1.0)


class TestDegenerateAgreement:
    def test_constant_outcomes_all_families_agree(self):
        panel = make_panel([2, 2, 2, 2], [2, 2, 2, 2], [1, 1, 0, 0])
        m = did_estimand(panel, IDY)
        assert m == 0.0
        bench = identified_set_benchmark(m, 0.5, SignRegime(1, -1))
        bounded = bounded_outcome_set(panel, IDY, OutcomeBounds(2.0, 2.0))
        trimmed = trimming_set(panel, IDY, 0.3)
        assert bench.as_tuple() == (0.0, 0.0)
        assert bounded.as_tuple() == (pytest.approx(0.0), pytest.approx(0.0))
        assert trimmed.as_tuple() == (pytest.approx(0.0), pytest.approx(0.0))
