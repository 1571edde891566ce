"""Test-only reference for ``inference.critical_value_cn``.

This is the scalar solver the package used before C_n was solved for
whole arrays at once: one ``solve_monotone`` bisection per value, over the
scalar ``std_normal_cdf``.  The property tests require the array solver to
return its bits for every element.
"""

from antebounds.numerics import Bracket, solve_monotone, std_normal_cdf, std_normal_quantile


def critical_value_cn(delta_hat: float, se: float, alpha: float) -> float:
    """Critical value solving Phi(C + delta/se) - Phi(-C) = alpha."""
    if not (0.5 < alpha < 1.0):
        raise ValueError(f"confidence level must lie in (0.5, 1), got {alpha}")
    if se <= 0.0:
        raise ValueError(f"se must be positive, got {se}")
    if delta_hat < 0.0:
        raise ValueError(f"interval width must be nonnegative, got {delta_hat}")
    ratio = delta_hat / se
    lo = std_normal_quantile(alpha) - 0.1
    hi = std_normal_quantile((1.0 + alpha) / 2.0) + 0.1

    def gap(c: float) -> float:
        return std_normal_cdf(c + ratio) - std_normal_cdf(-c) - alpha

    return solve_monotone(gap, Bracket(lo, hi, tol=1e-10))
