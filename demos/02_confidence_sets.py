#!/usr/bin/env python3
"""Uniformly valid confidence sets for the interval-identified effect.

The two interval endpoints are proportional transforms of one estimate,
so a valid confidence set extends both ends by the same length C_n * se,
with se the larger endpoint standard error and C_n solved from a
normal-CDF equation.  The demo shows C_n interpolating between the
two-sided and one-sided critical values, runs the pipeline on simulated
data (the panel only supplies the contrast and its standard error), and
reproduces a published confidence set from summary statistics alone.
"""

from antebounds import (
    DgpConfig,
    GTransform,
    SignRegime,
    contrast_se,
    critical_value_cn,
    did_estimand,
    generate_two_period,
    robust_null_check,
    summary_mode_infer,
    tstar,
)


def main():
    print("=" * 68)
    print("CONFIDENCE SETS WITH A ROOT-SOLVED CRITICAL VALUE")
    print("=" * 68)

    print("\nC_n versus the interval width in standard errors, width/se:")
    print(f"{'ratio':>8} {'C_n':>9}")
    for ratio in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        print(f"{ratio:>8.2f} {critical_value_cn(ratio, 1.0, 0.95):>9.5f}")
    print("ratio 0 gives the two-sided 1.96; a wide interval needs only the")
    print("one-sided 1.645 because each endpoint is tested from one side.")

    cfg = DgpConfig(n=2_000, mu=0.5, tau=-0.4, lam=0.2, seed=21)
    panel = generate_two_period(cfg)
    g = GTransform.identity()
    regime = SignRegime(+1, -1)
    pi = 0.4

    m_hat = did_estimand(panel, g)
    interval, cs = summary_mode_infer(m_hat, contrast_se(panel, g), pi, None, regime, 0.95)
    print(f"\nsimulated panel (n={cfg.n}, true mu={cfg.mu}):")
    print(f"  m-hat          {m_hat:+.4f}")
    print(f"  identified set [{interval.lower:.4f}, {interval.upper:.4f}]")
    print(f"  SE contrast    {cs.se_m:.4f}")
    print(f"  SE lower/upper {cs.se_l:.4f}/{cs.se_u:.4f} -> max rules both sides")
    print(f"  95% CS         [{cs.lower:.4f}, {cs.upper:.4f}]  (C_n = {cs.c_n:.4f})")
    print(f"  covers true mu: {cs.contains(cfg.mu)}")

    print("\nsummary-statistics mode (no micro-data, just m-hat and SE):")
    interval, cs = summary_mode_infer(0.013, 0.0046, 0.5, None, regime, 0.95)
    print(f"  m-hat 0.013, SE 0.0046, pi 0.5")
    print(f"  identified set [{interval.lower:.4f}, {interval.upper:.4f}]")
    print(f"  95% CS         [{cs.lower:.4f}, {cs.upper:.4f}]")
    print("  matching the published [0.001, 0.021] after rounding.")

    t_cut = tstar(0.95)
    print(f"\nrobust zero-effect cutoff t* = {t_cut:.4f} (about 3.3):")
    for t in (2.0, 3.0, 3.5):
        print(f"  |t| = {t}: {robust_null_check(t, 0.95, regime)}")
    print("beyond t*, rejecting a zero effect survives EVERY anticipation cap")
    print("when the treatment and anticipatory effects have opposite signs.")


if __name__ == "__main__":
    main()
