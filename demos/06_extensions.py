#!/usr/bin/env python3
"""Extensions: imperfect anticipation, staggered adoption, assumption-free
bounds, the information-density model behind the treatment-ratio cap, and
anticipatory effects that last past treatment.

Each block simulates the matching data-generating process, checks the
estimator against the known truth, and prints the resulting interval.
"""

import numpy as np

from antebounds import (
    DgpConfig,
    GTransform,
    OutcomeBounds,
    SignRegime,
    bounded_outcome_set,
    did_estimand,
    generate_imperfect,
    generate_post_treatment,
    generate_staggered,
    generate_two_period,
    identified_set_benchmark,
    identified_set_imperfect,
    staggered_estimand,
    staggered_pi,
    toy_bound_check,
    trimming_set,
)

IDY = GTransform.identity()


def main():
    print("=" * 68)
    print("EXTENSIONS BEYOND THE BENCHMARK TWO-PERIOD DESIGN")
    print("=" * 68)

    # --- imperfect anticipation -------------------------------------
    cfg = DgpConfig(n=80_000, mu=1.0, tau=0.5, lam=0.3, epsilon=0.25, seed=31)
    panel = generate_imperfect(cfg)
    m_hat = did_estimand(panel, IDY)
    regime = SignRegime(+1, +1)
    iv = identified_set_imperfect(m_hat, 0.4, cfg.epsilon, regime)
    print("\n1. imperfect anticipation (both groups may react, 25% guess wrong)")
    print(f"   m-hat {m_hat:+.4f} vs predicted mu - lam*(1-2eps)*tau = "
          f"{cfg.mu - cfg.lam * (1 - 2 * cfg.epsilon) * cfg.tau:+.4f}")
    print(f"   interval [{iv.lower:.4f}, {iv.upper:.4f}] contains mu=1: "
          f"{iv.contains(cfg.mu)}")
    print("   the contrast is no longer an endpoint: control-group mistakes")
    print("   can push the bias either way.")

    # --- staggered adoption ------------------------------------------
    cfg = DgpConfig(n=80_000, mu=1.0, tau=0.6, lam=0.3, delta=0.8, seed=32)
    panel = generate_staggered(cfg, T=4, cohort_shares=[0.0, 0.25, 0.25])
    e, s, t = 3, 1, 4
    m = staggered_estimand(panel, e, s, t, IDY)
    pi_es = staggered_pi(e, s, cfg.delta, panel)
    iv = identified_set_benchmark(m, pi_es, SignRegime(+1, +1))
    print("\n2. staggered adoption (cohorts first treated at different dates)")
    print(f"   contrast for cohort e={e} against never-treated, benchmark s={s}, "
          f"outcome t={t}")
    print(f"   m-hat {m:+.4f}; discounted cap pi(e,s) = delta^(e-s) * P[E<=e] "
          f"= {pi_es:.4f}")
    print(f"   interval [{iv.lower:.4f}, {iv.upper:.4f}] contains mu=1: "
          f"{iv.contains(cfg.mu)}")
    print("   anticipating two periods out is harder, so the cap decays with")
    print("   the gap e - s.")

    # --- alternative bounds ------------------------------------------
    cfg = DgpConfig(n=80_000, mu=1.0, tau=-0.6, lam=0.25, seed=33)
    panel = generate_two_period(cfg)
    g_ind = GTransform.indicator(2.0)
    iv_b = bounded_outcome_set(panel, g_ind, OutcomeBounds(0.0, 1.0))
    iv_t = trimming_set(panel, IDY, eta=0.4)
    print("\n3. bounds with no sign or magnitude restrictions")
    print(f"   bounded outcome (indicator y<=2): [{iv_b.lower:.4f}, {iv_b.upper:.4f}]"
          f"  width exactly b-a = 1")
    print(f"   trimming at eta=0.4:              [{iv_t.lower:.4f}, {iv_t.upper:.4f}]"
          f"  contains mu=1: {iv_t.contains(cfg.mu)}")
    print("   trimming assigns anticipator status to the most extreme treated")
    print("   pre-period outcomes up to mass eta, the worst case allowed.")

    # --- why pi = treatment ratio can be defended --------------------
    cfg = DgpConfig(n=100_000, mu=1.0, tau=-0.5, lam=0.0, p_treat=0.4,
                    toy_alpha=0.9, toy_power=2.0, seed=34)
    chk = toy_bound_check(cfg)
    print("\n4. information-density anticipation model")
    print(f"   signal level alpha * P[D=1] = {cfg.toy_alpha * cfg.p_treat:.2f}; "
          f"units anticipate when their threshold falls below it")
    print(f"   empirical anticipation share {chk.estimate:.4f} <= treated share "
          f"{chk.predicted:.4f}: {chk.passed}")
    print("   with a nondecreasing threshold density the share is convex in the")
    print("   treatment ratio, which is what licenses pi = P[D=1].")

    # --- anticipatory effects before and after treatment -------------
    cfg = DgpConfig(n=80_000, mu=1.0, tau=0.0, lam=0.3, tau1=0.4, tau2=0.4, seed=35)
    m_hat = did_estimand(generate_post_treatment(cfg), IDY)
    print("\n5. anticipators shift by tau1 before treatment and tau2 after it")
    print(f"   tau1 = tau2 = {cfg.tau1}: m-hat {m_hat:+.4f} vs predicted "
          f"mu - lam*(tau1-tau2) = {cfg.mu - cfg.lam * (cfg.tau1 - cfg.tau2):+.4f}")
    print("   a shift that lasts past treatment cancels in the contrast, so only")
    print("   the part that fades after treatment biases it.")


if __name__ == "__main__":
    main()
