"""Critical values, variance plug-ins, confidence sets, robust-null cutoff."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sets_oracle
from antebounds.bounds import SignRegime, identified_set_benchmark, sensitivity_sweep
from antebounds.inference import (
    NOT_ROBUST,
    ROBUSTLY_REJECTED,
    DegenerateVarianceError,
    bound_variances,
    contrast_moments,
    contrast_se,
    confidence_set,
    critical_value_cn,
    robust_null_check,
    summary_mode_infer,
    tstar,
)
from antebounds.numerics import std_normal_cdf, std_normal_quantile
from antebounds.panel import GTransform, group_stats

from test_panel import make_panel, random_panel

OPP = SignRegime(1, -1)
SAME = SignRegime(1, 1)

# High-precision roots of the defining equations (30-digit arithmetic).
CN_AT_ZERO = 1.9599639845400542
CN_AT_ONE = 1.6814774423281544
Z_ONE_SIDED = 1.6448536269514727
TSTAR_95 = 3.2991469042756099


class TestCriticalValue:
    def test_zero_width_is_two_sided(self):
        assert critical_value_cn(0.0, 1.0, 0.95) == pytest.approx(CN_AT_ZERO, abs=1e-5)

    def test_wide_interval_is_one_sided(self):
        assert critical_value_cn(1e6, 1.0, 0.95) == pytest.approx(
            Z_ONE_SIDED, abs=1e-4
        )

    def test_unit_ratio(self):
        # root of Phi(C + 1) - Phi(-C) = 0.95
        assert critical_value_cn(1.0, 1.0, 0.95) == pytest.approx(CN_AT_ONE, abs=1e-6)

    def test_residual_of_returned_root(self):
        for ratio in (0.0, 0.3, 1.0, 2.7, 10.0):
            c = critical_value_cn(ratio, 1.0, 0.95)
            residual = std_normal_cdf(c + ratio) - std_normal_cdf(-c) - 0.95
            assert abs(residual) < 1e-8

    def test_decreasing_and_bounded(self):
        alpha = 0.95
        lo, hi = std_normal_quantile(alpha), std_normal_quantile((1 + alpha) / 2)
        prev = math.inf
        for ratio in np.linspace(0.0, 100.0, 60):
            c = critical_value_cn(float(ratio), 1.0, alpha)
            assert lo - 1e-8 <= c <= hi + 1e-8
            assert c <= prev + 1e-9
            prev = c

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            critical_value_cn(0.0, 1.0, 0.4)
        with pytest.raises(ValueError):
            critical_value_cn(0.0, 1.0, 1.0)

    def test_scaling_by_se(self):
        # only delta/se matters
        a = critical_value_cn(0.5, 0.2, 0.95)
        b = critical_value_cn(2.5, 1.0, 0.95)
        assert a == pytest.approx(b, abs=1e-9)


class TestTstar:
    def test_published_cutoff_value(self):
        t = tstar(0.95)
        assert t == pytest.approx(TSTAR_95, abs=1e-6)
        assert t == pytest.approx(3.2996, abs=1e-3)
        assert round(t, 1) == 3.3

    @pytest.mark.parametrize("alpha", [0.6, 0.9, 0.95, 0.99])
    def test_residual(self, alpha):
        t = tstar(alpha)
        assert abs(std_normal_cdf(t) - std_normal_cdf(-t / 2) - alpha) < 1e-10

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            tstar(0.5)

    def test_alpha_whose_two_sided_level_rounds_to_one(self):
        alpha = 1.0 - 2.0**-53  # (1 + alpha) / 2 rounds to 1.0
        for f in (tstar, lambda a: critical_value_cn(1.0, 1.0, a)):
            with pytest.raises(ValueError, match="too close to 1"):
                f(alpha)
        assert tstar(1.0 - 2.0**-52) > tstar(0.999999)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.5, 1.0, exclude_min=True, exclude_max=True).filter(
            lambda a: (1.0 + a) / 2.0 < 1.0
        ),
        st.floats(0.5, 1.0, exclude_min=True, exclude_max=True).filter(
            lambda a: (1.0 + a) / 2.0 < 1.0
        ),
    )
    def test_root_of_its_equation_and_increasing(self, a1, a2):
        t1, t2 = tstar(a1), tstar(a2)
        for alpha, t in ((a1, t1), (a2, t2)):
            assert abs(std_normal_cdf(t) - std_normal_cdf(-t / 2) - alpha) <= 1e-9
        (lo, t_lo), (hi, t_hi) = sorted(((a1, t1), (a2, t2)))
        # the roots are within the 1e-10 bisection tolerance of the true,
        # strictly increasing t*; dt*/dalpha exceeds 1.6 everywhere
        assert t_lo <= t_hi + 2e-10
        if hi - lo > 1e-6:
            assert t_lo < t_hi


class TestBoundVariances:
    def test_hand_value(self):
        # treated diffs {1, 3}, control diffs {0, 2}: each variance 2,
        # p-hat 0.5 -> contrast-scale variance 2/0.5 + 2/0.5 = 8, so the
        # contrast SE is sqrt(8/4)
        panel = make_panel([0, 0, 0, 0], [1, 3, 0, 2], [1, 1, 0, 0])
        se_l, se_u, se_m = bound_variances(panel, GTransform.identity(), 0.5, OPP)
        assert se_m == pytest.approx(math.sqrt(2.0))
        assert se_u == pytest.approx(math.sqrt(2.0))
        assert se_l == pytest.approx(math.sqrt(2.0) / 1.5)
        assert max(se_l, se_u) == se_u

    def test_hand_value_nonzero_covariance(self):
        # treated (y0, y1) in {(0,1), (2,5)}: var(y1) = 8, var(y0) = 2,
        # cov = 4, so the diff variance is 8 + 2 - 2*4 = 2; control
        # contributes 2 as before -> contrast-scale variance still 8
        panel = make_panel([0, 2, 0, 0], [1, 5, 0, 2], [1, 1, 0, 0])
        gs = group_stats(panel, GTransform.identity())
        assert gs.cov[1] == pytest.approx(4.0)
        _, se_u, _ = bound_variances(panel, GTransform.identity(), 0.5, OPP)
        assert se_u == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("epsilon", [None, 0.3])
    def test_contrast_se_from_the_same_pass(self, epsilon):
        panel = random_panel(np.random.default_rng(12), n=50)
        g = GTransform.identity()
        _, _, se_m = bound_variances(panel, g, 0.4, OPP, epsilon=epsilon)
        assert se_m == contrast_se(panel, g)

    def test_scaled_regime_divisor(self):
        panel = make_panel([0, 0, 0, 0], [1, 3, 0, 2], [1, 1, 0, 0])
        se_l, se_u, _ = bound_variances(panel, GTransform.identity(), 0.5, SAME)
        # 1/(1-pi) scale: the scaled endpoint is the upper one and dominates
        assert se_u == pytest.approx(math.sqrt(2.0) / 0.5)
        assert se_l == pytest.approx(math.sqrt(2.0))
        assert max(se_l, se_u) == se_u

    def test_constant_diffs_zero_variance(self):
        # diffs constant within both groups -> contrast variance 0
        panel = make_panel([0, 1, 0, 1], [2, 3, 1, 2], [1, 1, 0, 0])
        gs = group_stats(panel, GTransform.identity())
        var_m = (gs.sigma2[1, 1] + gs.sigma2[1, 0] - 2 * gs.cov[1]) / gs.p_hat + (
            gs.sigma2[0, 1] + gs.sigma2[0, 0] - 2 * gs.cov[0]
        ) / (1 - gs.p_hat)
        assert var_m == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(DegenerateVarianceError):
            bound_variances(panel, GTransform.identity(), 0.5, OPP)

    def test_pi_one_rejected(self):
        panel = make_panel([0, 0, 0, 0], [1, 3, 0, 2], [1, 1, 0, 0])
        with pytest.raises(ValueError, match="pi < 1"):
            bound_variances(panel, GTransform.identity(), 1.0, SAME)


class TestContrastMoments:
    def test_matches_group_moment_formula(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            panel = random_panel(rng, n=int(rng.integers(6, 300)))
            gs = group_stats(panel, GTransform.identity())
            var_ref = (gs.sigma2[1, 1] + gs.sigma2[1, 0] - 2 * gs.cov[1]) / gs.p_hat + (
                gs.sigma2[0, 1] + gs.sigma2[0, 0] - 2 * gs.cov[0]
            ) / (1 - gs.p_hat)
            m, var_m = contrast_moments(panel.y1 - panel.y0, panel.d == 1)
            assert m == pytest.approx(gs.diff_in_diff(), rel=1e-12, abs=1e-14)
            assert var_m == pytest.approx(var_ref, rel=1e-12)

    def test_rows_are_independent_samples(self):
        rng = np.random.default_rng(42)
        dy = rng.normal(size=(7, 90))
        d = rng.random((7, 90)) < 0.4
        m, var_m = contrast_moments(dy, d)
        assert m.shape == var_m.shape == (7,)
        for row in range(7):
            m_row, var_row = contrast_moments(dy[row], d[row])
            assert m_row == m[row] and var_row == var_m[row]

    def test_any_small_group_rejected(self):
        dy = np.zeros((3, 6))
        d = np.array([[1, 1, 1, 0, 0, 0]] * 2 + [[1, 0, 0, 0, 0, 0]], dtype=bool)
        with pytest.raises(ValueError, match="group d=1 has 1 unit"):
            contrast_moments(dy, d)

    def test_peak_memory_is_two_buffers(self):
        n = 200_000
        rng = np.random.default_rng(43)
        dy = rng.standard_normal(n)
        d = np.arange(n) % 3 == 0
        tracemalloc.start()
        try:
            contrast_moments(dy, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float weight buffer and a scratch buffer, with room for a bool
        # mask; fresh weights, deviations and products took about 6 * 8n
        assert peak <= 3.25 * 8 * n

    @pytest.mark.parametrize("dy", [[1e308, 1e308, 0.0, 1.0], [1e200, -1e200, 0.0, 1.0]])
    def test_overflow_is_named(self, dy):
        # the first overflows the treated mean, the second only its variance
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="overflows float64"):
                contrast_moments(dy, [True, True, False, False])


class TestConfidenceSet:
    def test_point_identified_limit(self):
        cs = confidence_set(0.4, 1.0, 1.0, 1.0, 0.95)
        assert cs.lower == pytest.approx(0.4 - CN_AT_ZERO, abs=1e-5)
        assert cs.upper == pytest.approx(0.4 + CN_AT_ZERO, abs=1e-5)
        assert cs.delta_hat == 0.0

    def test_contains_interval(self):
        # the interval [0.9 / 9, 0.9] = [0.1, 0.9]
        cs = confidence_set(0.9, 0.2, 1.0 / 9.0, 1.0, 0.95)
        assert cs.lower < 0.1 and cs.upper > 0.9
        assert cs.delta_hat == 0.9 - 0.9 / 9.0

    def test_endpoint_ses_follow_the_interval_order(self):
        # m_hat > 0: m_hat * fa is the lower end; m_hat < 0: the upper one
        cs = confidence_set(0.9, 0.2, 0.5, 1.0, 0.95)
        assert (cs.se_l, cs.se_u, cs.se_m, cs.se) == (0.1, 0.2, 0.2, 0.2)
        cs = confidence_set(-0.9, 0.2, 0.5, 1.0, 0.95)
        assert (cs.se_l, cs.se_u, cs.se_m, cs.se) == (0.2, 0.1, 0.2, 0.2)
        assert all(type(v) is float for v in dataclasses.astuple(cs))

    def test_monotone_in_alpha(self):
        # the interval [0.2, 0.5]
        inner = confidence_set(0.5, 0.1, 0.4, 1.0, 0.90)
        outer = confidence_set(0.5, 0.1, 0.4, 1.0, 0.95)
        assert outer.lower < inner.lower and inner.upper < outer.upper


class TestRobustNull:
    def test_rejected(self):
        assert robust_null_check(3.5, 0.95, OPP) == ROBUSTLY_REJECTED

    def test_not_robust(self):
        assert robust_null_check(2.0, 0.95, OPP) == NOT_ROBUST
        # |t| must exceed t*; t* itself is not robust
        assert robust_null_check(tstar(0.95), 0.95, OPP) == NOT_ROBUST
        assert robust_null_check(-tstar(0.95), 0.95, OPP) == NOT_ROBUST

    def test_absolute_value(self):
        assert robust_null_check(-3.5, 0.95, OPP) == ROBUSTLY_REJECTED

    def test_same_sign_regime_rejected(self):
        with pytest.raises(ValueError, match="opposite-sign"):
            robust_null_check(3.5, 0.95, SAME)


class TestSummaryMode:
    def test_grade8_reading(self):
        interval, cs = summary_mode_infer(0.013, 0.0046, 0.5, None, OPP, 0.95)
        assert interval.lower == pytest.approx(0.013 / 1.5, abs=1e-12)
        assert interval.upper == 0.013
        # high-precision endpoints of the defining construction
        assert cs.lower == pytest.approx(0.0009029474286565338, abs=1e-8)
        assert cs.upper == pytest.approx(0.0207637192380101330, abs=1e-8)
        # match to the published rounded values within one rounding unit
        assert cs.lower == pytest.approx(0.001, abs=1e-3)
        assert cs.upper == pytest.approx(0.021, abs=1e-3)

    def test_all_grades_math(self):
        _, cs = summary_mode_infer(0.003, 0.0033, 0.5, None, OPP, 0.95)
        assert cs.lower == pytest.approx(-0.004, abs=1e-3)
        assert cs.upper == pytest.approx(0.010, abs=1e-3)

    def test_zero_pi_classical_interval(self):
        _, cs = summary_mode_infer(0.5, 0.1, 0.0, None, OPP, 0.95)
        assert cs.lower == pytest.approx(0.5 - 1.959964 * 0.1, abs=1e-5)
        assert cs.upper == pytest.approx(0.5 + 1.959964 * 0.1, abs=1e-5)

    def test_pi_070_brushes_zero(self):
        _, cs = summary_mode_infer(0.013, 0.0046, 0.70, None, OPP, 0.95)
        assert abs(cs.lower) < 1e-3

    def test_imperfect_epsilon(self):
        interval, cs = summary_mode_infer(1.0, 0.1, 0.5, 0.5, SAME, 0.95)
        assert interval.lower == pytest.approx(0.8)
        assert interval.upper == pytest.approx(1.0 / 0.75)
        assert cs.lower < interval.lower and cs.upper > interval.upper

    def test_se_domain(self):
        with pytest.raises(ValueError, match="positive"):
            summary_mode_infer(1.0, 0.0, 0.5, None, OPP, 0.95)


NON_FINITE = [math.inf, -math.inf, math.nan]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_critical_value_cn(self, bad):
        with pytest.raises(ValueError, match="interval width must be finite"):
            critical_value_cn(bad, 1.0, 0.95)
        with pytest.raises(ValueError, match="se must be finite"):
            critical_value_cn(1.0, bad, 0.95)
        with pytest.raises(ValueError, match="interval width must be finite"):
            critical_value_cn(np.array([0.5, bad, 1.0]), np.ones(3), 0.95)
        with pytest.raises(ValueError, match="se must be finite"):
            critical_value_cn(np.ones(2), np.array([1.0, bad]), 0.95)

    def test_critical_value_cn_ratio_overflow(self):
        with pytest.raises(ValueError, match="overflows"):
            critical_value_cn(1e300, 1e-300, 0.95)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_summary_mode_infer(self, bad):
        with pytest.raises(ValueError, match="m_hat must be finite"):
            summary_mode_infer(bad, 0.1, 0.3, None, OPP, 0.95)
        with pytest.raises(ValueError, match="standard error must be finite"):
            summary_mode_infer(1.0, bad, 0.3, None, OPP, 0.95)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_sensitivity_sweep(self, bad):
        with pytest.raises(ValueError, match="m_hat must be finite"):
            sensitivity_sweep(bad, 0.1, 1, [(0.3, None)], OPP, 0.95)
        with pytest.raises(ValueError, match="standard error must be finite"):
            sensitivity_sweep(1.0, bad, 1, [(0.3, None)], OPP, 0.95)

    def test_overflowing_width(self):
        # a finite contrast whose scaled endpoint overflows to inf
        with pytest.raises(ValueError, match="interval width must be finite"):
            summary_mode_infer(1e308, 0.1, 0.9, None, SAME, 0.95)
        with pytest.raises(ValueError, match="interval width must be finite"):
            sensitivity_sweep(1e308, 0.1, 1, [(0.0, None), (0.9, None)], SAME, 0.95)

    def test_overflowing_confidence_set(self):
        # a finite SE whose extension C_n * se overflows to inf
        with pytest.raises(ValueError, match="confidence set overflows"):
            summary_mode_infer(0.013, 1e308, 0.4, None, OPP, 0.95)
        with pytest.raises(ValueError, match="confidence set overflows"):
            sensitivity_sweep(0.013, 1e308, 1, [(0.0, None), (0.3, None)], OPP, 0.95)


class TestEndToEndPanelInference:
    def test_full_pipeline_matches_summary_mode(self):
        rng = np.random.default_rng(31)
        n = 400
        d = np.array([1] * 200 + [0] * 200)
        y0 = rng.normal(size=n)
        y1 = rng.normal(size=n) + 0.3 * d
        panel = make_panel(y0, y1, d)
        g = GTransform.identity()
        m = group_stats(panel, g).diff_in_diff()
        interval = identified_set_benchmark(m, 0.4, OPP)
        want = sets_oracle.summary_sets(m, contrast_se(panel, g), 0.4, None, OPP, 0.95)
        # summary mode with the panel's contrast SE gives the reference set,
        # and the endpoint SEs that bound_variances reads off the panel
        interval2, cs = summary_mode_infer(m, contrast_se(panel, g), 0.4, None, OPP, 0.95)
        assert interval2.lower == pytest.approx(interval.lower, abs=1e-12)
        assert cs.lower == pytest.approx(want["lower"], abs=1e-10)
        assert cs.upper == pytest.approx(want["upper"], abs=1e-10)
        assert (cs.se_l, cs.se_u, cs.se_m) == bound_variances(panel, g, 0.4, OPP)


# (m_hat, se, pi, epsilon, regime, alpha) over the whole valid domain
MAGNITUDES = st.floats(1e-6, 1e3)
CORE_INPUTS = st.tuples(
    st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda x: -x)),
    MAGNITUDES,
    st.floats(0.0, 0.99),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
    st.builds(SignRegime, st.sampled_from([1, -1]), st.sampled_from([1, 0, -1])),
    st.floats(0.51, 0.999),
)


class TestCoreProperties:
    @settings(max_examples=300, deadline=None)
    @given(CORE_INPUTS)
    def test_ordered_interval_inside_its_confidence_set(self, args):
        m, se, pi, eps, regime, alpha = args
        interval, cs = summary_mode_infer(m, se, pi, eps, regime, alpha)
        assert interval.lower <= interval.upper
        assert cs.lower <= interval.lower and interval.upper <= cs.upper
        assert cs.se_m == se and cs.se == max(cs.se_l, cs.se_u) > 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(1e-3, 1e3), st.floats(0.51, 0.999)
    )
    def test_cn_between_quantiles_and_nonincreasing(self, r1, r2, se, alpha):
        lo, hi = std_normal_quantile(alpha), std_normal_quantile((1 + alpha) / 2)
        narrow, wide = sorted((r1, r2))
        c_narrow = critical_value_cn(narrow * se, se, alpha)
        c_wide = critical_value_cn(wide * se, se, alpha)
        for c in (c_narrow, c_wide):
            assert lo - 1e-9 <= c <= hi + 1e-9
        assert c_wide <= c_narrow + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(CORE_INPUTS)
    def test_negating_the_outcome_scale_mirrors_everything(self, args):
        m, se, pi, eps, regime, alpha = args
        interval, cs = summary_mode_infer(m, se, pi, eps, regime, alpha)
        negated = SignRegime(-regime.sign_mu, -regime.sign_tau)
        mirror, mcs = summary_mode_infer(-m, se, pi, eps, negated, alpha)
        assert (mirror.lower, mirror.upper) == (-interval.upper, -interval.lower)
        assert (mcs.lower, mcs.upper) == (-cs.upper, -cs.lower)
        assert mcs.c_n == cs.c_n
        assert mcs.se == cs.se and mcs.se_m == cs.se_m
        if m != 0.0:  # at m = 0 both endpoints are 0 and their labels a tie
            assert (mcs.se_l, mcs.se_u) == (cs.se_u, cs.se_l)
