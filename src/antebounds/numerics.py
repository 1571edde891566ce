"""Scalar normal CDF/quantile and bracketed monotone root solving.

The standard-normal CDF and quantile come from the standard library
(``math.erfc`` and ``statistics.NormalDist``).  Root solving is plain
bisection: every target this package solves for (critical values, quantile
fixed points) is monotone but at best piecewise smooth, and bisection is
robust and reproducible there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

__all__ = [
    "Bracket",
    "NoRootInBracketError",
    "std_normal_cdf",
    "std_normal_quantile",
    "solve_monotone",
]


class NoRootInBracketError(RuntimeError):
    """The supplied bracket does not straddle a sign change."""


@dataclass(frozen=True)
class Bracket:
    """Root-solving bracket [lo, hi] with an absolute argument tolerance."""

    lo: float
    hi: float
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")
        if not (self.tol > 0.0):
            raise ValueError(f"bracket tolerance must be positive, got {self.tol}")


_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF, 0.5 * erfc(-x / sqrt 2).

    Parameters
    ----------
    x : float
        Evaluation point; must be finite.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"std_normal_cdf requires finite input, got {x}")
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Standard normal quantile (Wichura's AS241 via ``NormalDist.inv_cdf``).

    Parameters
    ----------
    p : float
        Probability strictly inside (0, 1).
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"std_normal_quantile requires p in (0, 1), got {p}")
    return _STD_NORMAL.inv_cdf(p)


def solve_monotone(f, bracket: Bracket) -> float:
    """Find a root of a weakly monotone function by bisection.

    Converges in at most ceil(log2((hi - lo) / tol)) iterations to a point
    within ``bracket.tol`` of the true root.

    Parameters
    ----------
    f : callable
        Scalar function, weakly monotone on the bracket.
    bracket : Bracket
        Interval with f changing sign across it.

    Raises
    ------
    NoRootInBracketError
        If f has the same (nonzero) sign at both endpoints; the caller
        decides the fallback.
    """
    root, _, _ = _bisect(f, bracket.lo, bracket.hi, bracket.tol)
    return root


def _bisect(f, lo: float, hi: float, tol: float) -> tuple[float, float, float]:
    """Bisection core; returns (root, final_lo, final_hi).

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
    n_iter = max(1, math.ceil(math.log2((hi - lo) / tol)))
    for _ in range(n_iter):
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
