"""ECDF conventions, quantile composition, fixed-point bounds, regime assembly."""

import math

import numpy as np
import pytest

from antebounds.bounds import SignRegime
from antebounds.cic import (
    CicData,
    EmpiricalDistribution,
    cic_identified_set,
    cic_m,
    counterfactual_quantile,
    shifted_quantile_bound,
    solve_phi,
)

HAND = CicData.from_samples(
    treated_t0=[1, 2, 3], treated_t1=[5, 6, 7], control_t0=[1, 2, 3], control_t1=[2, 4, 6]
)


class TestEmpiricalDistribution:
    def test_cdf_right_continuous(self):
        d = EmpiricalDistribution.from_sample([1.0, 2.0, 3.0])
        assert d.cdf(0.5) == 0.0
        assert d.cdf(1.0) == pytest.approx(1 / 3)
        assert d.cdf(2.0) == pytest.approx(2 / 3)
        assert d.cdf(2.5) == pytest.approx(2 / 3)
        assert d.cdf(3.0) == 1.0

    def test_quantile_left_continuous(self):
        d = EmpiricalDistribution.from_sample([1.0, 2.0, 3.0])
        assert d.quantile(1 / 3) == 1.0
        assert d.quantile(0.34) == 2.0
        assert d.quantile(0.5) == 2.0
        assert d.quantile(2 / 3) == 2.0
        assert d.quantile(1.0) == 3.0

    def test_quantile_domain(self):
        d = EmpiricalDistribution.from_sample([1.0])
        with pytest.raises(ValueError):
            d.quantile(0.0)
        with pytest.raises(ValueError):
            d.quantile(1.1)

    def test_galois_inequalities(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            d = EmpiricalDistribution.from_sample(rng.normal(size=rng.integers(3, 60)))
            for y in d.values:
                assert d.quantile(d.cdf(y)) <= y
            for q in rng.uniform(0.01, 1.0, size=20):
                assert d.cdf(d.quantile(q)) >= q - 1e-12

    def test_negation_duality_off_grid(self):
        # Q_{-X}(q) = -Q_X(1-q) when q*n is not an integer
        rng = np.random.default_rng(42)
        x = rng.normal(size=37)
        d = EmpiricalDistribution.from_sample(x)
        dn = EmpiricalDistribution.from_sample(-x)
        for q in rng.uniform(0.02, 0.98, size=50):
            if abs(q * 37 - round(q * 37)) < 1e-9:
                continue
            assert dn.quantile(q) == -d.quantile(1 - q)

    def test_quantile_vec_matches_scalar(self):
        rng = np.random.default_rng(43)
        d = EmpiricalDistribution.from_sample(rng.normal(size=23))
        qs = rng.uniform(0.01, 1.0, size=40)
        vec = d.quantile_vec(qs)
        for q, v in zip(qs, vec):
            assert v == d.quantile(q)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            EmpiricalDistribution.from_sample([])


class TestCounterfactualQuantile:
    def test_identical_distributions_collapse(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=25)
        d = EmpiricalDistribution.from_sample(x)
        for q in (0.1, 0.35, 0.5, 0.9):
            assert counterfactual_quantile(q, d, d, d) == d.quantile(q)

    def test_control_shift_by_one(self):
        rng = np.random.default_rng(45)
        c0 = rng.normal(size=30)
        t0 = rng.normal(size=20) + 0.3
        d_t0 = EmpiricalDistribution.from_sample(t0)
        d_c0 = EmpiricalDistribution.from_sample(c0)
        d_c1 = EmpiricalDistribution.from_sample(c0 + 1.0)
        for q in (0.2, 0.5, 0.77):
            got = counterfactual_quantile(q, d_t0, d_c0, d_c1)
            # monotone map u -> u + 1 passes through the composition
            want = (
                d_c1.quantile(d_c0.cdf(d_t0.quantile(q)))
                if d_c0.cdf(d_t0.quantile(q)) > 0
                else -math.inf
            )
            assert got == want
            if math.isfinite(got):
                assert got == pytest.approx(
                    brute_counterfactual(q, t0, c0, c0 + 1.0), abs=1e-12
                )

    def test_hand_example(self):
        assert counterfactual_quantile(0.5, HAND.treated_t0, HAND.control_t0, HAND.control_t1) == 4.0


def brute_counterfactual(q, t0, c0, c1):
    """Composition via explicit counting, no EmpiricalDistribution."""
    t0, c0, c1 = sorted(t0), sorted(c0), sorted(c1)

    def quantile(vals, p):
        for k in range(1, len(vals) + 1):
            if k / len(vals) >= p:
                return vals[k - 1]
        return vals[-1]

    y = quantile(t0, q)
    p = sum(1 for v in c0 if v <= y) / len(c0)
    return quantile(c1, p)


class TestCicM:
    def test_zero_when_treated_matches_counterfactual(self):
        rng = np.random.default_rng(46)
        x = rng.normal(size=40)
        d = CicData.from_samples(x, x, x, x)
        for q in np.linspace(0.1, 0.9, 9):
            assert cic_m(float(q), d) == 0.0

    def test_location_shift(self):
        rng = np.random.default_rng(47)
        u_t = rng.random(200)
        u_c = rng.random(300)
        shift = 0.7
        data = CicData.from_samples(
            treated_t0=u_t, treated_t1=u_t + 1.0 + shift,
            control_t0=u_c, control_t1=u_c + 1.0,
        )
        for q in (0.25, 0.5, 0.75):
            assert cic_m(q, data) == pytest.approx(shift, abs=0.05)

    def test_hand_example(self):
        assert cic_m(0.5, HAND) == 2.0


class TestSolvePhi:
    def test_zero_root(self):
        rng = np.random.default_rng(48)
        x = rng.normal(size=30)
        d = CicData.from_samples(x, x, x, x)
        assert solve_phi(0.5, "upper", 1, d) == 0.0

    @pytest.mark.parametrize("v", [0.0, 3.5, -1e6])
    def test_constant_samples_give_zero(self, v):
        # a zero data range means all four samples hold one value v, so the
        # residual at x = 0 is v - Q01(F00(v)) = 0 on every side and sign
        data = CicData.from_samples([v] * 4, [v] * 3, [v] * 5, [v] * 2)
        assert data.data_range == 0.0
        for side in ("upper", "lower"):
            for sign_mu in (1, -1):
                assert solve_phi(0.5, side, sign_mu, data) == 0.0

    def test_recovers_shift_against_brute_force(self):
        # all treated anticipate by exactly the effect size; control period
        # map has slope 1/2, so the fixed point sits at the true effect
        rng = np.random.default_rng(49)
        u_t = rng.random(120)
        u_c = rng.random(130)
        effect = 0.4
        data = CicData.from_samples(
            treated_t0=u_t + effect,
            treated_t1=0.25 + 0.5 * u_t + effect,
            control_t0=u_c,
            control_t1=0.25 + 0.5 * u_c,
        )
        for q in (0.3, 0.5, 0.7):
            root = solve_phi(q, "upper", 1, data)
            assert root is not None
            brute = brute_force_phi(q, "upper", data)
            assert root == pytest.approx(brute, abs=2e-4)
            assert root == pytest.approx(effect, abs=0.08)

    def test_a_small_residual_at_zero_is_not_a_root(self):
        # the treated post-period sits 1e-7 above the other three samples,
        # so the residual at x = 0 is 1e-7: above the 1e-9 * scale
        # tolerance (scale 9 here), though under a 1e-6 * scale one
        base = np.arange(10.0)
        data = CicData.from_samples(base, base + 1e-7, base, base)
        m = cic_m(0.5, data)
        assert 0.0 < m < 2e-7
        assert solve_phi(0.5, "upper", 1, data) is None
        assert solve_phi(0.5, "upper", -1, data) is None
        assert solve_phi(0.5, "lower", 1, data) == m
        assert solve_phi(0.5, "lower", -1, data) is None

    def test_a_root_within_tolerance_across_zero_keeps_the_sign_of_mu(self):
        # the first segment's linear root sits 5e-10 on the wrong side of
        # zero, inside the 1e-9 tolerance, and the residual there is under
        # it too; the root is clipped to zero, where the residual is not
        data = CicData.from_samples(
            treated_t0=[1.0],
            treated_t1=[1.0 - 0.5e-9],
            control_t0=[0.0, 1.0],
            control_t1=[1.0, 1.0 + 0.9e-9],
        )
        assert solve_phi(0.5, "upper", 1, data) is None

    def test_absent_when_no_sign_change(self):
        data = CicData.from_samples(
            treated_t0=[0.4, 0.5, 0.6],
            treated_t1=[100.0, 101.0, 102.0],
            control_t0=[0.1, 0.5, 0.9],
            control_t1=[0.2, 0.6, 1.0],
        )
        assert solve_phi(0.5, "upper", 1, data) is None

    def test_side_and_sign_validation(self):
        with pytest.raises(ValueError):
            solve_phi(0.5, "sideways", 1, HAND)
        with pytest.raises(ValueError):
            solve_phi(0.5, "upper", 0, HAND)


def brute_force_phi(q, side, data, step=1e-4):
    """Grid search for the closest-to-zero nonnegative root."""
    a_q = data.treated_t1.quantile(q)
    u0 = data.treated_t0.quantile(q)
    sgn = -1.0 if side == "upper" else 1.0
    big = data.data_range
    xs = np.arange(0.0, big, step)
    best = None
    prev = None
    for x in xs:
        r = a_q - data.control_map(u0 + sgn * x) - x
        if not math.isfinite(r):
            prev = None
            continue
        if abs(r) < 1e-12:
            return x
        if prev is not None and (prev[1] > 0) != (r > 0):
            x0, r0 = prev
            return x0 + (x - x0) * r0 / (r0 - r)
        prev = (x, r)
    return best


class TestShiftedBound:
    def test_pi_zero_equals_m_exactly(self):
        rng = np.random.default_rng(50)
        data = CicData.from_samples(
            rng.normal(size=21), rng.normal(size=23),
            rng.normal(size=27), rng.normal(size=29),
        )
        for q in (0.2, 0.5, 0.8):
            assert shifted_quantile_bound(q, 0.0, "upper", data) == cic_m(q, data)

    def test_sentinels(self):
        assert shifted_quantile_bound(0.3, 0.5, "upper", HAND) == math.inf
        assert shifted_quantile_bound(0.5, 0.5, "lower", HAND) == -math.inf
        assert shifted_quantile_bound(0.5, 0.5001, "upper", HAND) == math.inf

    def test_sentinels_at_exact_boundary(self):
        # the cutoffs are weak inequalities: q equal to pi is already
        # unbounded above, q equal to 1 - pi unbounded below
        assert shifted_quantile_bound(0.5, 0.5, "upper", HAND) == math.inf
        assert shifted_quantile_bound(0.7, 0.3, "lower", HAND) == -math.inf
        # just inside the cutoffs both bounds are finite
        assert math.isfinite(shifted_quantile_bound(0.51, 0.5, "upper", HAND))
        assert math.isfinite(shifted_quantile_bound(0.69, 0.3, "lower", HAND))

    def test_hand_shift(self):
        # q - pi = 0.3: Q10(0.3)=1, F00(1)=1/3, Q01(1/3)=2; 6 - 2 = 4
        assert shifted_quantile_bound(0.5, 0.2, "upper", HAND) == 4.0


class TestIdentifiedSetAssembly:
    def test_pi_zero_degenerates_to_point(self):
        rng = np.random.default_rng(51)
        data = CicData.from_samples(
            rng.normal(size=30), rng.normal(size=30) + 0.5,
            rng.normal(size=30), rng.normal(size=30) + 0.2,
        )
        for regime in (SignRegime(1, 1), SignRegime(1, -1)):
            res = cic_identified_set(0.5, 0.0, regime, data)
            assert res.interval is not None
            assert res.interval.lower == res.interval.upper == res.m_q

    def test_one_sided_when_both_upper_candidates_unbounded(self):
        data = CicData.from_samples(
            treated_t0=[0.4, 0.5, 0.6],
            treated_t1=[100.0, 101.0, 102.0],
            control_t0=[0.1, 0.5, 0.9],
            control_t1=[0.2, 0.6, 1.0],
        )
        res = cic_identified_set(0.3, 0.5, SignRegime(1, 1), data)
        assert res.phi_u is None
        assert res.phi_tilde_u == math.inf
        assert res.interval.lower == res.m_q
        assert res.interval.upper == math.inf

    def test_zero_tau_regime_degenerates(self):
        res = cic_identified_set(0.5, 0.3, SignRegime(1, 0), HAND)
        assert res.interval.as_tuple() == (res.m_q, res.m_q)

    def test_never_empty_on_random_data(self):
        # every candidate bound sits on the correct side of m(q) by the
        # monotonicity of the step composition, so the set cannot cross
        rng = np.random.default_rng(52)
        regimes = [SignRegime(sm, st) for sm in (-1, 1) for st in (-1, 1)]
        for _ in range(60):
            sizes = rng.integers(4, 25, size=4)
            data = CicData.from_samples(
                rng.normal(size=sizes[0]), rng.normal(size=sizes[1]),
                rng.normal(size=sizes[2]), rng.normal(size=sizes[3]),
            )
            q = float(rng.uniform(0.1, 0.9))
            pi = float(rng.uniform(0.0, 0.6))
            regime = regimes[rng.integers(0, 4)]
            res = cic_identified_set(q, pi, regime, data)
            assert not res.is_empty
            assert res.raw_lower <= res.m_q <= res.raw_upper

    def test_four_regime_negation_symmetry(self):
        # pairwise-coprime sample sizes keep every composition level off
        # the quantile grids, making the sample-level mirror exact
        rng = np.random.default_rng(53)
        sizes = (37, 41, 43, 47)
        samples = [rng.random(s) for s in sizes]
        data = CicData.from_samples(*samples)
        neg = CicData.from_samples(*[-s for s in samples])
        pi = 0.15
        for q in (0.31, 0.57):
            for sm in (-1, 1):
                for st in (-1, 1):
                    regime = SignRegime(sm, st)
                    a = cic_identified_set(q, pi, regime, data)
                    b = cic_identified_set(1 - q, pi, SignRegime(-sm, -st), neg)
                    assert b.raw_lower == pytest.approx(-a.raw_upper, abs=1e-9)
                    assert b.raw_upper == pytest.approx(-a.raw_lower, abs=1e-9)


class TestSamplewiseLocationShift:
    def test_m_equals_shift_exactly(self):
        # treated post-period built samplewise as the composed
        # counterfactual plus a constant: m(q) is that constant at every q
        y10 = [1.0, 2.0, 3.0, 5.0]
        c0 = [0.5, 1.5, 2.5, 4.0]
        c1 = [1.0, 2.0, 4.0, 8.0]
        base = CicData.from_samples(y10, y10, c0, c1)  # placeholder t1
        shift = 0.7
        y11 = [base.control_map(v) + shift for v in y10]
        data = CicData.from_samples(y10, y11, c0, c1)
        for q in np.linspace(0.05, 0.95, 19):
            assert cic_m(float(q), data) == pytest.approx(shift, abs=1e-12)
