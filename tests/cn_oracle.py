"""Test-only references for the package's bisection, ``critical_value_cn``
and ``tstar``.

``bisect`` is the scalar loop the package ran before it kept one
bisection, the elementwise kernel ``numerics.solve_monotone_elementwise``
(``solve_monotone`` is that kernel on one element).  The other two are the
package's C_n and t* solved with it: one bisection per value, over the
scalar ``std_normal_cdf``.  The property tests require the kernel to
return these bits for every element, and to call ``f`` as often.
"""

import math

from antebounds.numerics import NoRootInBracketError, std_normal_cdf, std_normal_quantile


def bisect(f, lo: float, hi: float, tol: float) -> tuple[float, float, float]:
    """Bisection of a weakly monotone ``f`` on [lo, hi]; returns
    (root, final_lo, final_hi).

    The final endpoints straddle the sign change (f(final_lo) and
    f(final_hi) have opposite signs or one of them is an exact zero).
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo, lo, hi
    if fhi == 0.0:
        return hi, lo, hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoRootInBracketError(
            f"no root in bracket [{lo}, {hi}]: f has the same sign at both endpoints"
        )
    for _ in range(max(1, math.ceil(math.log2((hi - lo) / tol)))):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid, lo, hi
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi), lo, hi


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

    return bisect(gap, lo, hi, 1e-10)[0]


def tstar_problem(alpha: float):
    """(gap, lo, hi, tol): t* is the root of ``gap`` on [lo, hi], with the
    bracket ``inference.tstar`` uses."""
    lo = std_normal_quantile(alpha)
    hi = max(6.0, 2.0 * std_normal_quantile((1.0 + alpha) / 2.0) + 1.0)

    def gap(t: float) -> float:
        return std_normal_cdf(t) - std_normal_cdf(-t / 2.0) - alpha

    return gap, lo, hi, 1e-10


def tstar(alpha: float) -> float:
    """Positive root of Phi(t) - Phi(-t/2) = alpha."""
    return bisect(*tstar_problem(alpha))[0]
