"""Identified-set construction, sign/monotonicity properties, staggered and
conditional contrasts."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from antebounds.bounds import (
    SignRegime,
    SweepRow,
    conditional_estimand,
    did_estimand,
    identified_set_benchmark,
    identified_set_imperfect,
    reconcile_regime,
    robustness_cutoff,
    sensitivity_sweep,
    staggered_estimand,
    staggered_pi,
)
from antebounds.panel import CohortPanel, GTransform, TwoPeriodPanel, treatment_ratio

from panel_oracle import restrict_to_stratum
from test_panel import make_panel

OPP = SignRegime(sign_mu=1, sign_tau=-1)   # opposite signs: s = -1
SAME = SignRegime(sign_mu=1, sign_tau=1)   # same signs: s = +1


class TestSignRegime:
    def test_product(self):
        assert OPP.s == -1 and SAME.s == 1
        assert SignRegime(-1, -1).s == 1
        assert SignRegime(1, 0).s == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SignRegime(0, 1)
        with pytest.raises(ValueError):
            SignRegime(1, 2)


class TestDidEstimand:
    def test_hand_value(self):
        panel = make_panel([1, 1, 0, 0], [3, 3, 1, 1], [1, 1, 0, 0])
        assert did_estimand(panel, GTransform.identity()) == pytest.approx(1.0)

    def test_parallel_changes_cancel(self):
        panel = make_panel([5, 5, 0, 0], [6, 6, 1, 1], [1, 1, 0, 0])
        assert did_estimand(panel, GTransform.identity()) == pytest.approx(0.0)

    def test_indicator_matches_counting_oracle(self):
        rng = np.random.default_rng(21)
        y0 = rng.normal(size=60)
        y1 = rng.normal(size=60) + 0.4
        d = np.array([1] * 30 + [0] * 30)
        panel = make_panel(y0, y1, d)
        u = 0.25
        m = did_estimand(panel, GTransform.indicator(u))

        def freq(values, mask):
            hits = sum(1 for v, in_group in zip(values, mask) if in_group and v <= u)
            return hits / mask.sum()

        t, c = d == 1, d == 0
        oracle = (freq(y1, t) - freq(y0, t)) - (freq(y1, c) - freq(y0, c))
        assert m == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("g", [GTransform.identity(), GTransform.indicator(0.1)])
    def test_bits_equal_group_stats_contrast(self, g):
        from antebounds.panel import group_stats

        panel = make_panel(*np.random.default_rng(4).normal(size=(2, 97)), [1, 0] * 48 + [1])
        assert did_estimand(panel, g) == group_stats(panel, g).diff_in_diff()

    def test_one_unit_per_group(self):
        panel = make_panel([1, 0, 2], [4, 1, 3], [1, 0, 0])
        assert did_estimand(panel, GTransform.identity()) == 2.0


class TestBenchmarkSet:
    def test_table_reading_row(self):
        iv = identified_set_benchmark(0.009, 0.5, OPP)
        assert iv.upper == 0.009
        assert iv.lower == pytest.approx(0.006, abs=1e-15)

    def test_table_math_row(self):
        iv = identified_set_benchmark(0.003, 0.5, OPP)
        assert round(iv.lower, 3) == 0.002
        assert round(iv.upper, 3) == 0.003

    def test_zero_pi_degenerate(self):
        iv = identified_set_benchmark(0.7, 0.0, SAME)
        assert iv.as_tuple() == (0.7, 0.7)

    def test_same_signs_inflation(self):
        iv = identified_set_benchmark(1.0, 0.5, SAME)
        assert iv.as_tuple() == (1.0, 2.0)

    def test_zero_tau_degenerate(self):
        iv = identified_set_benchmark(1.0, 0.5, SignRegime(1, 0))
        assert iv.as_tuple() == (1.0, 1.0)

    def test_pi_domain(self):
        with pytest.raises(ValueError, match="pi < 1"):
            identified_set_benchmark(1.0, 1.0, SAME)
        with pytest.raises(ValueError):
            identified_set_benchmark(1.0, -0.1, SAME)

    def test_contains_m_always(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            m = rng.normal()
            pi = rng.uniform(0, 0.99)
            regime = SignRegime(
                sign_mu=rng.choice([-1, 1]), sign_tau=rng.choice([-1, 0, 1])
            )
            iv = identified_set_benchmark(m, pi, regime)
            assert iv.lower <= m <= iv.upper
            assert m in iv.as_tuple()  # one endpoint is m exactly

    def test_monotone_nesting_in_pi(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = rng.normal()
            p1, p2 = sorted(rng.uniform(0, 0.99, size=2))
            regime = SignRegime(sign_mu=rng.choice([-1, 1]), sign_tau=rng.choice([-1, 1]))
            a = identified_set_benchmark(m, p1, regime)
            b = identified_set_benchmark(m, p2, regime)
            assert b.lower <= a.lower + 1e-12 and a.upper <= b.upper + 1e-12

    def test_sign_flip_mirror(self):
        # negating the outcome scale flips BOTH maintained signs (s is
        # unchanged) and mirrors the interval
        rng = np.random.default_rng(24)
        for _ in range(100):
            m = rng.normal()
            pi = rng.uniform(0, 0.99)
            regime = SignRegime(sign_mu=rng.choice([-1, 1]), sign_tau=rng.choice([-1, 1]))
            a = identified_set_benchmark(m, pi, regime)
            b = identified_set_benchmark(-m, pi, SignRegime(-regime.sign_mu, -regime.sign_tau))
            assert b.lower == pytest.approx(-a.upper, abs=1e-12)
            assert b.upper == pytest.approx(-a.lower, abs=1e-12)


class TestImperfectSet:
    def test_zero_epsilon_is_benchmark(self):
        a = identified_set_imperfect(1.0, 0.5, 0.0, SAME)
        b = identified_set_benchmark(1.0, 0.5, SAME)
        assert a.lower == pytest.approx(b.lower, abs=1e-12)
        assert a.upper == pytest.approx(b.upper, abs=1e-12)

    def test_half_epsilon(self):
        iv = identified_set_imperfect(1.0, 0.5, 0.5, SAME)
        assert iv.lower == pytest.approx(0.8)
        assert iv.upper == pytest.approx(1.0 / 0.75)

    def test_full_epsilon(self):
        iv = identified_set_imperfect(1.0, 0.5, 1.0, SAME)
        assert iv.lower == pytest.approx(1.0 / 1.5)
        assert iv.upper == pytest.approx(1.0)

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            identified_set_imperfect(1.0, 0.5, 1.2, SAME)

    def test_endpoints_match_direct_formula(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            m = rng.normal()
            pi = rng.uniform(0, 0.99)
            eps = rng.uniform(0, 1)
            s = int(rng.choice([-1, 1]))
            regime = SignRegime(1, s)
            iv = identified_set_imperfect(m, pi, eps, regime)
            mu1 = m / (1 + s * pi * eps)
            mu2 = m / (1 - s * pi * (1 - eps))
            assert iv.lower == pytest.approx(min(mu1, mu2), abs=1e-12)
            assert iv.upper == pytest.approx(max(mu1, mu2), abs=1e-12)


def toy_cohort_panel():
    # periods 1..3; cohort 2 treated from period 2; never-treated control
    outcomes = np.array(
        [
            [0.0, 2.0, 3.0],   # cohort 2
            [0.5, 2.2, 3.4],   # cohort 2
            [0.0, 1.0, 2.0],   # never
            [0.2, 1.1, 2.3],   # never
        ]
    )
    cohorts = np.array([2.0, 2.0, np.inf, np.inf])
    return CohortPanel(("a", "b", "c", "e"), outcomes, cohorts)


class TestStaggered:
    def test_identical_paths_zero(self):
        outcomes = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        panel = CohortPanel(("a", "b", "c"), outcomes, np.array([2.0, np.inf, np.inf]))
        assert staggered_estimand(panel, 2, 1, 2, GTransform.identity()) == 0.0

    def test_hand_means(self):
        panel = toy_cohort_panel()
        g = GTransform.identity()
        m = staggered_estimand(panel, 2, 1, 3, g)
        # brute-force group means
        cohort_diff = ((3.0 - 0.0) + (3.4 - 0.5)) / 2
        never_diff = ((2.0 - 0.0) + (2.3 - 0.2)) / 2
        assert m == pytest.approx(cohort_diff - never_diff, abs=1e-12)

    def test_two_period_reduction_matches_did(self):
        rng = np.random.default_rng(26)
        n = 30
        y0 = rng.normal(size=n)
        y1 = rng.normal(size=n)
        d = np.array([1] * 15 + [0] * 15)
        cohorts = np.where(d == 1, 2.0, np.inf)
        cpanel = CohortPanel(
            tuple(f"u{i}" for i in range(n)), np.column_stack([y0, y1]), cohorts
        )
        tpanel = make_panel(y0, y1, d)
        g = GTransform.identity()
        assert staggered_estimand(cpanel, 2, 1, 2, g) == did_estimand(tpanel, g)

    def test_overflowing_contrast_is_named(self):
        outcomes = np.array([[0.0, 1e308], [0.0, 1e308], [0.0, 1.0], [0.0, 2.0]])
        panel = CohortPanel(("a", "b", "c", "e"), outcomes, np.array([2.0, 2.0, np.inf, np.inf]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows float64"):
                staggered_estimand(panel, 2, 1, 2, GTransform.identity())

    def test_period_preconditions(self):
        panel = toy_cohort_panel()
        g = GTransform.identity()
        with pytest.raises(ValueError):
            staggered_estimand(panel, 2, 2, 3, g)  # s must precede e
        with pytest.raises(ValueError):
            staggered_estimand(panel, 2, 1, 4, g)  # t beyond T
        with pytest.raises(ValueError, match="empty cohort"):
            staggered_estimand(panel, 3, 1, 3, g)

    def test_staggered_pi_values(self):
        panel = toy_cohort_panel()
        assert staggered_pi(2, 1, 0.9, panel) == pytest.approx(0.9 * 0.5)
        with pytest.raises(ValueError):
            staggered_pi(2, 1, 1.0, panel)
        with pytest.raises(ValueError, match="discount"):
            staggered_pi(2, 1, 1.5, panel)
        with pytest.raises(ValueError):
            staggered_pi(2, 2, 0.9, panel)

    def test_staggered_pi_decay(self):
        panel = toy_cohort_panel()
        # e - s = 10 with delta = 0.5 shrinks the cap by 2^-10
        wide = CohortPanel(
            ("a", "b"),
            np.tile(np.arange(12.0), (2, 1)),
            np.array([11.0, np.inf]),
        )
        assert staggered_pi(11, 1, 0.5, wide) == pytest.approx(0.5**10 * 0.5)


class TestConditional:
    def test_single_stratum_equals_did(self):
        panel = make_panel([1, 1, 0, 0], [3, 3, 1, 1], [1, 1, 0, 0])
        out = conditional_estimand(panel, GTransform.identity())
        assert out == {"<all>": pytest.approx(1.0)}

    def test_parallel_strata_zero(self):
        panel = make_panel(
            [0, 0, 0, 0, 5, 5, 5, 5],
            [1, 1, 1, 1, 7, 7, 7, 7],
            [1, 1, 0, 0, 1, 1, 0, 0],
            strata=("A",) * 4 + ("B",) * 4,
        )
        out = conditional_estimand(panel, GTransform.identity())
        assert out["A"] == pytest.approx(0.0) and out["B"] == pytest.approx(0.0)

    def test_per_stratum_matches_within_stratum_oracle(self):
        rng = np.random.default_rng(27)
        n = 80
        strata = tuple(rng.choice(["A", "B"], size=n))
        d = (rng.random(n) < 0.5).astype(int)
        d[:4] = [1, 1, 0, 0]  # keep both groups nonempty per stratum
        panel = make_panel(rng.normal(size=n), rng.normal(size=n), d, strata=strata)
        out = conditional_estimand(panel, GTransform.identity())
        for label in ("A", "B"):
            sub = restrict_to_stratum(panel, label)
            assert out[label] == pytest.approx(
                did_estimand(sub, GTransform.identity()), abs=1e-12
            )

    def test_propensity_weighted_route_coincides(self):
        # with the empirical cell frequency as the propensity, the
        # (D - p)/(p(1-p)) weighted mean of outcome changes equals the
        # within-stratum group-mean difference exactly
        rng = np.random.default_rng(28)
        n = 60
        strata = tuple(rng.choice(["A", "B", "C"], size=n))
        d = (rng.random(n) < 0.4).astype(int)
        d[:6] = [1, 1, 1, 0, 0, 0]
        panel = make_panel(rng.normal(size=n), rng.normal(size=n), d, strata=strata)
        out = conditional_estimand(panel, GTransform.identity())
        for label in set(strata):
            mask = np.array([s == label for s in strata])
            dx = panel.d[mask].astype(float)
            change = panel.y1[mask] - panel.y0[mask]
            p = dx.mean()
            if p in (0.0, 1.0):
                continue
            rho = (dx - p) / (p * (1.0 - p))
            assert out[label] == pytest.approx(float((rho * change).mean()), abs=1e-12)

    def test_degenerate_stratum(self):
        panel = make_panel(
            [1, 1, 0, 0, 2, 2],
            [2, 2, 1, 1, 3, 3],
            [1, 1, 0, 0, 1, 1],
            strata=("A", "A", "A", "A", "B", "B"),
        )
        with pytest.raises(ValueError, match="lacks comparison group"):
            conditional_estimand(panel, GTransform.identity())


    def test_conditional_sets_use_stratum_ratio(self):
        panel = make_panel(
            [1, 1, 0, 0, 0, 2, 2, 3, 3, 3],
            [3, 3, 1, 1, 1, 4, 4, 3, 3, 3],
            [1, 1, 0, 0, 0, 1, 1, 0, 0, 0],
            strata=("A",) * 5 + ("B",) * 5,
        )
        g = GTransform.identity()
        contrasts = conditional_estimand(panel, g)
        for label in ("A", "B"):
            pi = treatment_ratio(panel, label)
            assert pi == pytest.approx(0.4)
            sub = restrict_to_stratum(panel, label)
            got = identified_set_benchmark(contrasts[label], pi, OPP)
            want = identified_set_benchmark(
                did_estimand(sub, g), treatment_ratio(sub), OPP
            )
            assert got.pi_used == pytest.approx(0.4)
            assert (got.lower, got.upper) == pytest.approx(
                (want.lower, want.upper), abs=1e-12
            )

class TestPiBoundPolicies:
    def test_staggered_policy(self):
        # the staggered cap is the plain number staggered_pi gives, fed to
        # the benchmark set like any other pi
        panel = toy_cohort_panel()
        pi = staggered_pi(2, 1, 0.9, panel)
        assert pi == pytest.approx(0.9 * 0.5)
        m = staggered_estimand(panel, 2, 1, 3, GTransform.identity())
        out = identified_set_benchmark(m, pi, OPP)
        assert out.pi_used == pi
        assert (out.lower, out.upper) == pytest.approx(tuple(sorted((m, m / (1 + pi)))))
        with pytest.raises(ValueError, match="discount"):
            staggered_pi(2, 1, 1.5, panel)


class TestReconcileRegime:
    def test_consistent_passes_through(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = reconcile_regime(0.5, OPP)
        assert out == OPP

    def test_contradiction_warns(self):
        with pytest.warns(UserWarning, match="contradicts declared sign"):
            out = reconcile_regime(-0.5, OPP)
        assert out == OPP

    def test_auto_flip(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = reconcile_regime(-0.5, OPP, auto_flip=True)
        assert out.sign_mu == -1 and out.sign_tau == -1


class TestSensitivitySweep:
    def test_figure_shape(self):
        rows = sensitivity_sweep(
            0.013, 0.0046, 1, [(p, None) for p in (0.1, 0.25, 0.5, 0.65, 0.75, 0.9)],
            OPP, 0.95,
        )
        lowers = [r.cs_lower for r in rows]
        assert all(a > b for a, b in zip(lowers, lowers[1:]))  # decreasing in pi
        crossing = [r.pi for r in rows if r.cs_lower < 0]
        assert min(crossing) == 0.75  # first grid point past the cutoff
        assert robustness_cutoff(rows) == 0.75
        # a confidence set that ends exactly at zero contains it
        edge = [
            SweepRow(0.6, None, 0.1, 0.2, -0.1, 0.3),
            SweepRow(0.3, None, 0.1, 0.2, 0.0, 0.3),
            SweepRow(0.2, None, -0.2, -0.1, -0.3, 0.0),
        ]
        assert robustness_cutoff(edge) == 0.2
        assert robustness_cutoff(edge[:2]) == 0.3

    def test_zero_grid_matches_plain_interval(self):
        rows = sensitivity_sweep(0.5, 0.1, 1, [(0.0, None)], OPP, 0.95)
        row = rows[0]
        assert row.set_lower == row.set_upper == 0.5
        z = 1.959964
        assert row.cs_lower == pytest.approx(0.5 - z * 0.1, abs=1e-4)
        assert row.cs_upper == pytest.approx(0.5 + z * 0.1, abs=1e-4)

    def test_same_sign_upper_grows(self):
        rows = sensitivity_sweep(
            1.0, 0.2, 1, [(p, None) for p in (0.1, 0.3, 0.5)], SAME, 0.95
        )
        uppers = [r.set_upper for r in rows]
        assert uppers == sorted(uppers) and uppers[0] < uppers[-1]

    def test_epsilon_zero_row_equals_plain_row(self):
        base = sensitivity_sweep(1.0, 0.2, 1, [(0.4, None)], OPP, 0.95)[0]
        eps0 = sensitivity_sweep(1.0, 0.2, 1, [(0.4, 0.0)], OPP, 0.95)[0]
        assert eps0.set_lower == pytest.approx(base.set_lower, abs=1e-12)
        assert eps0.cs_lower == pytest.approx(base.cs_lower, abs=1e-9)

    def test_ordering(self):
        rows = sensitivity_sweep(
            1.0, 0.2, 1, [(0.5, 0.3), (0.1, None), (0.5, 0.1)], OPP, 0.95
        )
        assert [(r.pi, r.epsilon) for r in rows] == [(0.1, None), (0.5, 0.1), (0.5, 0.3)]

    def test_rows_are_slotted_values(self):
        row = sensitivity_sweep(1.0, 0.2, 1, [(0.4, None)], OPP, 0.95)[0]
        # slots: no per-row __dict__, which took about 48 of a row's bytes
        assert not hasattr(row, "__dict__")
        moved = dataclasses.replace(row, pi=0.5)
        assert (moved.pi, moved.cs_upper) == (0.5, row.cs_upper)
        assert moved == SweepRow(0.5, None, row.set_lower, row.set_upper, row.cs_lower, row.cs_upper)
        assert moved != row
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.pi = 0.1
