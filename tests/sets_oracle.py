"""Test-only reference for the route from (m_hat, SE) to both sets.

This is the scalar arithmetic the package used before every confidence
set came from one array route: the interval sorts m_hat*fa and m_hat*fb,
each endpoint's SE is the contrast SE times its factor (in the
interval's order), the larger one is the extension scale, C_n is one
scalar ``critical_value_cn`` call (whose bits ``cn_oracle`` pins) and the
set is the interval widened by C_n times that scale.  The property tests
require ``summary_mode_infer``, the sensitivity sweep and the coverage
engine to give its bits, and its errors, for every input.
"""

import math

from antebounds.bounds import endpoint_scale_factors
from antebounds.inference import critical_value_cn


def summary_sets(m_hat, se, pi, epsilon, regime, alpha) -> dict:
    """Identified set (``set_lower``, ``set_upper``) and every field of the
    confidence set, with the endpoint SEs and their max ``se``."""
    if not math.isfinite(m_hat):
        raise ValueError(f"contrast m_hat must be finite, got {m_hat}")
    if not (math.isfinite(se) and se > 0.0):
        raise ValueError(f"standard error must be finite and positive, got {se}")
    fa, fb = endpoint_scale_factors(pi, regime, epsilon)
    set_lower, set_upper = sorted((m_hat * fa, m_hat * fb))
    se_l, se_u = se * fa, se * fb
    if m_hat * fa > m_hat * fb:
        se_l, se_u = se_u, se_l
    se_ext = max(se_l, se_u)
    delta_hat = set_upper - set_lower
    c_n = critical_value_cn(delta_hat, se_ext, alpha)
    ext = c_n * se_ext
    lower, upper = set_lower - ext, set_upper + ext
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError("the confidence set overflows float64; the standard error is too large")
    return {
        "set_lower": set_lower,
        "set_upper": set_upper,
        "lower": lower,
        "upper": upper,
        "c_n": c_n,
        "alpha": alpha,
        "delta_hat": delta_hat,
        "se_l": se_l,
        "se_u": se_u,
        "se_m": se,
        "se": se_ext,
    }
