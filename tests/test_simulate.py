"""DGP ground-truth checks, seeding determinism, coverage engine tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

import sets_oracle
from antebounds import simulate
from antebounds.bounds import did_estimand, staggered_estimand
from antebounds.cic import counterfactual_quantile
from antebounds.inference import contrast_se
from antebounds.panel import GTransform
from antebounds.simulate import (
    REPLICATION_BLOCK,
    CicDgpConfig,
    DgpConfig,
    _coverage_block,
    _point_tables,
    coverage_study,
    decomposition_check,
    derive_seed,
    generate_cic,
    generate_imperfect,
    generate_post_treatment,
    generate_staggered,
    generate_two_period,
    post_treatment_identity_check,
    staggered_identity_check,
    toy_bound_check,
)

IDY = GTransform.identity()


def big_cfg(**kw):
    base = dict(n=60_000, mu=1.0, tau=-0.6, lam=0.3, seed=101)
    base.update(kw)
    return DgpConfig(**base)


class TestSeeding:
    def test_derive_seed_deterministic_and_spread(self):
        seeds = {derive_seed(12345, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(12345, 7) == derive_seed(12345, 7)
        assert all(0 <= s < 2**64 for s in seeds)

    def test_same_seed_same_panel(self):
        cfg = big_cfg(n=500)
        a = generate_two_period(cfg)
        b = generate_two_period(cfg)
        assert np.array_equal(a.y0, b.y0) and np.array_equal(a.y1, b.y1)
        assert np.array_equal(a.d, b.d)

    def test_different_seed_different_panel(self):
        a = generate_two_period(big_cfg(n=500))
        b = generate_two_period(big_cfg(n=500, seed=102))
        assert not np.array_equal(a.y0, b.y0)


class TestConfigValidation:
    def test_probability_ranges(self):
        with pytest.raises(ValueError):
            DgpConfig(n=100, mu=1, tau=0, lam=1.5)
        with pytest.raises(ValueError):
            DgpConfig(n=100, mu=1, tau=0, lam=0.5, p_treat=0.0)

    @pytest.mark.parametrize("name", [
        "mu", "tau", "trend", "noise_sd", "noise_df", "tau1", "tau2", "toy_power", "base_means",
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, name, bad):
        kw = dict(n=100, mu=1.0, tau=0.0, lam=0.0)
        kw[name] = (0.0, bad) if name == "base_means" else bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DgpConfig(**kw)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid is empty"):
            coverage_study([], 0.4, 0.95, 10)

    def test_assumption_flag(self):
        ok = DgpConfig(n=100, mu=1.0, tau=-0.5, lam=0.2)
        assert ok.satisfies_assumptions(0.3)
        assert not ok.satisfies_assumptions(0.1)            # lam above cap
        big_tau = DgpConfig(n=100, mu=1.0, tau=-1.5, lam=0.1)
        assert not big_tau.satisfies_assumptions(0.5)        # magnitude broken

    def test_regime_from_truth(self):
        cfg = DgpConfig(n=100, mu=1.0, tau=-0.5, lam=0.2)
        assert cfg.regime().s == -1
        assert DgpConfig(n=100, mu=1.0, tau=0.0, lam=0.0).regime().s == 0


class TestBenchmarkGenerator:
    def test_no_anticipation_consistency(self):
        cfg = big_cfg(lam=0.0)
        panel = generate_two_period(cfg)
        rep = decomposition_check(cfg)
        assert rep.predicted == cfg.mu
        assert rep.passed, f"m_hat {rep.estimate} vs mu {cfg.mu} (se {rep.se})"
        assert abs(did_estimand(panel, IDY) - cfg.mu) <= 3 * rep.se

    def test_bias_identity(self):
        rep = decomposition_check(big_cfg())
        assert rep.predicted == pytest.approx(1.0 - 0.3 * (-0.6))
        assert rep.passed

    def test_zero_effects(self):
        rep = decomposition_check(big_cfg(mu=0.0, tau=0.0, lam=0.5))
        assert rep.predicted == 0.0 and rep.passed

    def test_student_t_noise(self):
        rep = decomposition_check(big_cfg(noise_dist="student_t", noise_df=5.0))
        assert rep.passed


class TestImperfectGenerator:
    def test_epsilon_zero_matches_benchmark_distribution(self):
        cfg = big_cfg(epsilon=0.0)
        a = generate_imperfect(cfg)
        b = generate_two_period(cfg)
        # distributional identity, compared through group moments
        for arr_a, arr_b in ((a.y0[a.d == 1], b.y0[b.d == 1]), (a.y0[a.d == 0], b.y0[b.d == 0])):
            se = math.hypot(arr_a.std() / len(arr_a) ** 0.5, arr_b.std() / len(arr_b) ** 0.5)
            assert abs(arr_a.mean() - arr_b.mean()) <= 3 * se

    def test_identity_with_error_rate(self):
        rep = decomposition_check(big_cfg(epsilon=0.25), variant="imperfect")
        assert rep.predicted == pytest.approx(1.0 - 0.3 * 0.5 * (-0.6))
        assert rep.passed

    def test_half_epsilon_cancels(self):
        rep = decomposition_check(big_cfg(epsilon=0.5), variant="imperfect")
        assert rep.predicted == pytest.approx(1.0)
        assert rep.passed


class TestToyGenerator:
    def test_uniform_equality_case(self):
        cfg = big_cfg(lam=0.0, toy_alpha=1.0, toy_power=1.0, p_treat=0.4)
        share = toy_bound_check(cfg).estimate
        # P[A=1] = F(alpha * p) = 0.4 exactly for the uniform
        se = math.sqrt(0.4 * 0.6 / cfg.n)
        assert abs(share - 0.4) <= 3 * se

    def test_convex_density_bound(self):
        cfg = big_cfg(lam=0.0, toy_alpha=1.0, toy_power=2.0, p_treat=0.5)
        rep = toy_bound_check(cfg)
        assert rep.passed
        assert rep.details["theoretical_share"] == pytest.approx(0.25)
        # the check draws no outcomes, so outcome parameters leave it be;
        # a noise_sd that would overflow them included
        for outcome_only in (dict(mu=-3.0), dict(tau=2.0), dict(trend=-1.0),
                             dict(noise_sd=1e308), dict(noise_rho=0.0),
                             dict(noise_dist="student_t")):
            assert toy_bound_check(replace(cfg, **outcome_only)).to_dict() == rep.to_dict()

    def test_a_threshold_at_the_signal_level_anticipates(self):
        # A = 1{U <= alpha * P[D=1]}: the inequality is not strict
        class Halves:
            def random(self, size):
                return np.full(size, 0.5)

        cfg = big_cfg(n=8, lam=0.0, toy_alpha=1.0, toy_power=1.0, p_treat=0.5)
        d, a = simulate._draw_toy(Halves(), cfg)
        assert not d.any() and a.all()

    def test_many_random_convex_configs(self):
        rng = np.random.default_rng(71)
        for i in range(100):
            cfg = DgpConfig(
                n=4000,
                mu=1.0,
                tau=-0.5,
                lam=0.0,
                p_treat=float(rng.uniform(0.15, 0.85)),
                toy_alpha=float(rng.uniform(0.1, 1.0)),
                toy_power=float(rng.uniform(1.0, 4.0)),
                seed=derive_seed(900, i),
            )
            assert toy_bound_check(cfg).passed

    def test_decreasing_density_rejected(self):
        with pytest.raises(ValueError, match="decreasing density"):
            toy_bound_check(big_cfg(toy_alpha=1.0, toy_power=0.5))

    def test_requires_alpha(self):
        with pytest.raises(ValueError, match="toy_alpha"):
            toy_bound_check(big_cfg())

    def test_alpha_above_one_rejected(self):
        with pytest.raises(ValueError, match="toy_alpha"):
            toy_bound_check(big_cfg(toy_alpha=1.5))


class TestStaggeredGenerator:
    def test_no_anticipation_recovers_mu(self):
        cfg = big_cfg(lam=0.0)
        rep = staggered_identity_check(cfg, T=4, cohort_shares=[0.0, 0.3, 0.2], e=3, s=1, t=4)
        assert rep.predicted == cfg.mu
        assert rep.passed

    def test_h_discount_identity(self):
        cfg = big_cfg(tau=0.6, lam=0.4, delta=0.8)
        rep = staggered_identity_check(cfg, T=4, cohort_shares=[0.0, 0.25, 0.25], e=3, s=1, t=4)
        assert rep.predicted == pytest.approx(1.0 - 0.4 * 0.8**2 * 0.6)
        assert rep.passed

    def test_two_period_reduction_moments(self):
        cfg = big_cfg()
        cohort = generate_staggered(cfg, T=2, cohort_shares=[0.0, cfg.p_treat])
        twop = generate_two_period(cfg)
        g = IDY
        m_c = staggered_estimand(cohort, 2, 1, 2, g)
        m_t = did_estimand(twop, g)
        assert abs(m_c - m_t) <= 0.05  # both estimate mu - lam*tau = 1.18

    def test_share_validation(self):
        with pytest.raises(ValueError, match="never-treated"):
            generate_staggered(big_cfg(), T=3, cohort_shares=[0.5, 0.5])
        with pytest.raises(ValueError, match="at most 1"):
            generate_staggered(big_cfg(), T=3, cohort_shares=[0.8, 0.8])

    def test_anticipation_is_monotone_onset(self):
        cfg = DgpConfig(n=2000, mu=1.0, tau=5.0, lam=0.9, delta=0.5, noise_sd=1e-9, seed=4)
        panel = generate_staggered(cfg, T=4, cohort_shares=[0.0, 0.0, 0.5])
        # with near-zero noise, anticipation shifts are visible; units
        # anticipating at s=1 must also anticipate at s=2 (onset keeps going)
        mask = panel.cohort_mask(3.0)
        y = panel.outcomes
        shifted_s1 = y[mask, 0] > cfg.trend * 1 + cfg.base_means[1] + 1.0
        shifted_s2 = y[mask, 1] > cfg.trend * 2 + cfg.base_means[1] + 1.0
        assert (~shifted_s1 | shifted_s2).all()


class TestPostTreatment:
    def test_equal_effects_cancel(self):
        cfg = DgpConfig(n=20_000, mu=1.0, tau=0.0, lam=0.3, tau1=0.5, tau2=0.5, seed=8)
        rep = post_treatment_identity_check(cfg, reps=50)
        assert rep.predicted == pytest.approx(1.0)
        assert rep.passed

    def test_pre_only_reduces_to_benchmark(self):
        cfg = DgpConfig(n=20_000, mu=1.0, tau=0.0, lam=0.5, tau1=0.4, tau2=0.0, seed=9)
        rep = post_treatment_identity_check(cfg, reps=50)
        assert rep.predicted == pytest.approx(1.0 - 0.5 * 0.4)
        assert rep.passed
        # one draw serves both models: with tau2 = 0 the panels are equal
        post = generate_post_treatment(cfg)
        bench = generate_two_period(replace(cfg, tau=cfg.tau1))
        for name in ("y0", "y1", "d"):
            assert getattr(post, name).tobytes() == getattr(bench, name).tobytes()

    def test_spec_example_values(self):
        cfg = DgpConfig(n=20_000, mu=1.0, tau=0.0, lam=0.5, tau1=0.4, tau2=0.1, seed=10)
        rep = post_treatment_identity_check(cfg, reps=50)
        assert rep.predicted == pytest.approx(0.85)
        assert rep.passed


@pytest.mark.parametrize("n", [97, 500, 1031])
def test_identity_check_bits_equal_a_panel_per_replication(n):
    """The block draws of the identity check are the post-treatment panels
    of each replication's seed, whatever block a replication falls in."""
    cfg = DgpConfig(n=n, mu=0.2, tau=0.0, lam=0.4, tau1=0.3, tau2=-0.1, seed=n)
    reps = 2 * REPLICATION_BLOCK + 3
    m_hats = np.array([
        did_estimand(generate_post_treatment(replace(cfg, seed=derive_seed(cfg.seed, r))), IDY)
        for r in range(reps)
    ])
    rep = post_treatment_identity_check(cfg, reps)
    assert rep.estimate.hex() == float(m_hats.mean()).hex()
    assert rep.se.hex() == float(m_hats.std(ddof=1) / math.sqrt(reps)).hex()


class TestCoverageEngine:
    def test_rejects_untagged_violation(self):
        bad = DgpConfig(n=200, mu=1.0, tau=-0.5, lam=0.6, seed=1)
        with pytest.raises(ValueError, match="violates"):
            coverage_study([bad], pi_for_estimator=0.4, alpha=0.95, reps=5)

    def test_falsification_tag_allows_and_flags(self):
        bad = DgpConfig(n=200, mu=1.0, tau=-0.5, lam=0.6, seed=1, falsification=True)
        report = coverage_study([bad], pi_for_estimator=0.4, alpha=0.95, reps=5)
        assert report.points[0].falsification

    def test_point_identified_coverage(self):
        # pi = 0 with no anticipators: the classical CLT interval, whose
        # coverage sits at 0.95 up to ~3 Monte Carlo SEs at 2000 reps
        cfg = DgpConfig(n=400, mu=0.3, tau=0.0, lam=0.0, seed=77)
        report = coverage_study([cfg], pi_for_estimator=0.0, alpha=0.95, reps=2000)
        assert report.points[0].coverage == pytest.approx(0.95, abs=0.015)

    def test_deterministic_across_worker_counts(self):
        # two grid points share one pool; jobs come back in (point, block) order
        grid = [DgpConfig(n=120, mu=0.5, tau=-0.4, lam=lam, seed=55) for lam in (0.0, 0.2)]
        serial = coverage_study(grid, 0.3, 0.95, reps=40, workers=1)
        parallel = coverage_study(grid, 0.3, 0.95, reps=40, workers=2)
        assert serial.to_dict() == parallel.to_dict()
        assert serial.points[0] != serial.points[1]

    def test_min_coverage_stable_when_pi_widens(self):
        # not a pointwise nesting claim: C_n adapts to the wider interval,
        # so individual grid points can lose a little coverage; the minimum
        # must hold up to Monte Carlo noise
        reps = 400
        grid_a = [DgpConfig(n=300, mu=0.5, tau=-0.5, lam=l, seed=303) for l in (0.0, 0.3)]
        grid_b = [replace(c, seed=909) for c in grid_a]
        narrow = coverage_study(grid_a, 0.3, 0.95, reps=reps)
        wide = coverage_study(grid_b, 0.6, 0.95, reps=reps)
        mc_se = math.sqrt(0.95 * 0.05 / reps)
        assert wide.min_coverage >= narrow.min_coverage - 2 * mc_se

    def test_report_serializes(self):
        cfg = DgpConfig(n=120, mu=0.5, tau=-0.4, lam=0.2, seed=55)
        report = coverage_study([cfg], 0.3, 0.95, reps=10)
        d = report.to_dict()
        assert set(d) == {"pi", "alpha", "reps", "master_seeds", "points", "min_coverage"}
        assert d["points"][0]["reps"] == 10

    @pytest.mark.parametrize("end", ["lower", "upper"])
    def test_a_set_end_at_the_truth_covers(self, monkeypatch, end):
        # the confidence set is closed: mu sitting exactly on either end counts
        cfg = DgpConfig(n=120, mu=0.5, tau=-0.4, lam=0.2, seed=55)

        def sets_touching_mu(m_hat, se, fa, fb, alpha):
            at_mu = np.full(m_hat.shape, cfg.mu)
            if end == "lower":
                return m_hat, m_hat, se, at_mu, at_mu + 1.0
            return m_hat, m_hat, se, at_mu - 1.0, at_mu

        monkeypatch.setattr(simulate, "_sets", sets_touching_mu)
        report = coverage_study([cfg], 0.3, 0.95, reps=10)
        assert report.points[0].coverage == 1.0

    def test_coverage_se_is_binomial(self):
        grid = [DgpConfig(n=150, mu=0.5, tau=-0.4, lam=lam, seed=56) for lam in (0.0, 0.3)]
        report = coverage_study(grid, 0.3, 0.95, reps=70)
        for point in report.to_dict()["points"]:
            c = point["coverage"]
            assert point["coverage_se"] == math.sqrt(c * (1.0 - c) / 70)
        assert report.points[0].coverage_se > 0.0


def _reference_row(cfg, m_hat, se, pi, alpha):
    """(covered, interval width, confidence-set width) and C_n of one
    replication's (m_hat, se), from the scalar reference route."""
    sets = sets_oracle.summary_sets(m_hat, se, pi, None, cfg.regime(), alpha)
    covered = float(sets["lower"] <= cfg.mu <= sets["upper"])
    return [covered, sets["set_upper"] - sets["set_lower"], sets["upper"] - sets["lower"]], sets["c_n"]


def _per_replication_oracle(cfg, pi, alpha, reps):
    """The pipeline one replication at a time: panel, DID contrast and its
    SE, then the scalar reference's interval and confidence set."""
    rows = []
    for rep in range(reps):
        panel = generate_two_period(replace(cfg, seed=derive_seed(cfg.seed, rep)))
        m_hat, se = did_estimand(panel, IDY), contrast_se(panel, IDY)
        rows.append(_reference_row(cfg, m_hat, se, pi, alpha)[0])
    return np.array(rows)


B = REPLICATION_BLOCK


class TestBlockEngine:
    def _agree(self, cfg, pi, reps, alpha=0.95):
        ((engine, _),) = _point_tables([cfg], pi, alpha, reps, workers=1)
        oracle = _per_replication_oracle(cfg, pi, alpha, reps)
        assert engine.shape == oracle.shape == (reps, 3)
        assert np.array_equal(engine[:, 0], oracle[:, 0])
        np.testing.assert_allclose(engine[:, 1:], oracle[:, 1:], rtol=1e-12, atol=0.0)
        return engine

    @pytest.mark.parametrize("reps", [1, B - 1, B, B + 1, 2 * B + 3])
    def test_block_boundaries(self, reps):
        self._agree(DgpConfig(n=200, mu=0.2, tau=-0.2, lam=0.3, seed=61), 0.4, reps)

    @pytest.mark.parametrize("mu,tau", [(0.3, 0.2), (-0.3, 0.2), (-0.3, -0.2), (0.3, 0.0)])
    def test_sign_regimes(self, mu, tau):
        self._agree(DgpConfig(n=200, mu=mu, tau=tau, lam=0.3, seed=62), 0.4, B + 1)

    def test_student_t_noise(self):
        cfg = DgpConfig(n=200, mu=0.2, tau=-0.2, lam=0.2, noise_dist="student_t",
                        noise_df=4.0, seed=63)
        self._agree(cfg, 0.4, B + 1)

    def test_falsification_point(self):
        cfg = DgpConfig(n=200, mu=0.2, tau=-0.4, lam=0.8, seed=64, falsification=True)
        engine = self._agree(cfg, 0.2, B + 1)
        report = coverage_study([cfg], 0.2, 0.95, reps=B + 1)
        assert report.points[0].falsification
        assert report.points[0].coverage == engine[:, 0].mean()

    def test_group_too_small_raises(self):
        cfg = DgpConfig(n=4, mu=0.2, tau=-0.2, lam=0.2, seed=65)
        with pytest.raises(ValueError):
            _per_replication_oracle(cfg, 0.4, 0.95, B)
        with pytest.raises(ValueError, match="insufficient group size"):
            _point_tables([cfg], 0.4, 0.95, B, workers=1)

    def test_mean_c_n_in_replication_order(self):
        cfg = DgpConfig(n=200, mu=0.2, tau=-0.2, lam=0.3, seed=67)
        reps = B + 5
        c_n = []
        for rep in range(reps):
            panel = generate_two_period(replace(cfg, seed=derive_seed(cfg.seed, rep)))
            m_hat, se = did_estimand(panel, IDY), contrast_se(panel, IDY)
            c_n.append(_reference_row(cfg, m_hat, se, 0.4, 0.95)[1])
        point = coverage_study([cfg], 0.4, 0.95, reps).points[0]
        assert point.mean_c_n == pytest.approx(float(np.mean(c_n)), rel=1e-12)
        assert point.to_dict()["mean_c_n"] == point.mean_c_n

    @pytest.mark.parametrize("mu,tau", [(0.3, 0.2), (0.3, -0.2)])
    def test_rows_are_summary_mode_infer_on_the_block_contrasts(self, mu, tau):
        # each row, and its C_n, is the scalar reference route (which
        # summary_mode_infer matches) applied to that replication's own
        # (m_hat, se), bit for bit; that se is contrast_se of its panel
        cfg = DgpConfig(n=150, mu=mu, tau=tau, lam=0.3, seed=68)
        pi, alpha, reps = 0.4, 0.95, B + 7
        contrasts = np.concatenate(
            [_coverage_block((cfg, start, min(start + B, reps))) for start in range(0, reps, B)]
        )
        for rep, se in enumerate(contrasts[:, 1].tolist()):
            panel = generate_two_period(replace(cfg, seed=derive_seed(cfg.seed, rep)))
            assert se.hex() == contrast_se(panel, IDY).hex()
        ((engine, c_n),) = _point_tables([cfg], pi, alpha, reps, workers=1)
        assert engine.shape == (reps, 3)
        for (m_hat, se), row, c in zip(contrasts.tolist(), engine.tolist(), c_n.tolist()):
            want, want_c_n = _reference_row(cfg, m_hat, se, pi, alpha)
            assert [x.hex() for x in row] == [x.hex() for x in want]
            assert c.hex() == want_c_n.hex()

    def test_rows_keyed_by_replication_index(self):
        # a replication's row depends on its index only, not on the grid
        # around it or on where the last block ends
        grid = [DgpConfig(n=100, mu=0.2, tau=-0.2, lam=lam, seed=66) for lam in (0.0, 0.4)]
        full = _point_tables(grid, 0.4, 0.95, 2 * B + 3, workers=1)
        ((alone, _),) = _point_tables(grid[1:], 0.4, 0.95, B + 1, workers=1)
        assert np.array_equal(alone, full[1][0][: B + 1])


class TestCicDgp:
    def test_counterfactual_truth(self):
        cfg = CicDgpConfig(n=8000, effect=0.5, lam=0.0, slope=0.5, intercept=0.25,
                           u_lo=0.1, u_hi=0.9, seed=13)
        data = generate_cic(cfg)
        for q in (0.25, 0.5, 0.75):
            est = counterfactual_quantile(q, data.treated_t0, data.control_t0, data.control_t1)
            assert est == pytest.approx(cfg.true_counterfactual_quantile(q), abs=0.05)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CicDgpConfig(n=100, effect=0.5, slope=0.0)
        with pytest.raises(ValueError):
            CicDgpConfig(n=100, effect=0.5, u_lo=0.5, u_hi=0.2)
