"""Normal CDF/quantile and bracketed monotone root solving.

The standard-normal CDF and quantile come from the standard library
(``math.erfc`` and ``statistics.NormalDist``).  Root solving is plain
bisection: every target this package solves for (critical values, quantile
fixed points) is monotone but at best piecewise smooth, and bisection is
robust and reproducible there.  The elementwise forms solve many roots in
one pass over numpy arrays and give the bits of the scalar ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "Bracket",
    "NoRootInBracketError",
    "std_normal_cdf",
    "std_normal_cdf_array",
    "std_normal_quantile",
    "solve_monotone",
    "solve_monotone_elementwise",
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


def std_normal_cdf_array(x: np.ndarray) -> np.ndarray:
    """:func:`std_normal_cdf` of each element of a finite 1-D array.

    ``math.erfc`` runs on every element, so each value has the bits of the
    scalar function; the caller guarantees finite input.
    """
    t = -x / _SQRT2
    return 0.5 * np.fromiter(map(math.erfc, t.tolist()), float, t.size)


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
        raise _no_root(lo, hi)
    n_iter = _bisection_steps(lo, hi, tol)
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


def _bisection_steps(lo: float, hi: float, tol: float) -> int:
    return max(1, math.ceil(math.log2((hi - lo) / tol)))


def _no_root(lo: float, hi: float) -> NoRootInBracketError:
    return NoRootInBracketError(
        f"no root in bracket [{lo}, {hi}]: f has the same sign at both endpoints"
    )


def solve_monotone_elementwise(f, bracket: Bracket, params: np.ndarray) -> np.ndarray:
    """Roots of the weakly monotone functions x -> f(x, p), one for each
    element p of the 1-D array ``params``, on one bracket, by bisection.

    ``f`` maps a float array of points and the equally long array of their
    parameters to the function values.  Each element takes exactly the
    steps :func:`solve_monotone` takes on ``lambda x: f(x, p)``: the same
    midpoints, the same exact-zero and ``hi - lo <= tol`` exits (tracked
    per element) and the same step count, so when ``f`` computes each
    element with the scalar arithmetic the roots have the scalar solver's
    bits.

    Raises
    ------
    NoRootInBracketError
        If any of the functions has the same (nonzero) sign at both ends.
    """
    lo, hi, tol = bracket.lo, bracket.hi, bracket.tol
    size = params.size
    flo = f(np.full(size, lo), params)
    fhi = f(np.full(size, hi), params)
    root = np.empty(size)
    at_lo = flo == 0.0
    at_hi = ~at_lo & (fhi == 0.0)
    root[at_lo] = lo
    root[at_hi] = hi
    open_ = ~(at_lo | at_hi)
    if ((flo > 0.0) == (fhi > 0.0))[open_].any():
        raise _no_root(lo, hi)
    # the elements still bisecting: their indices, parameters and brackets
    active = np.flatnonzero(open_)
    params, flo = params[open_], flo[open_]
    lo_a = np.full(active.size, lo)
    hi_a = np.full(active.size, hi)
    for _ in range(_bisection_steps(lo, hi, tol)):
        if active.size == 0:
            break
        mid = 0.5 * (lo_a + hi_a)
        fmid = f(mid, params)
        up = (fmid > 0.0) == (flo > 0.0)
        lo_a = np.where(up, mid, lo_a)
        hi_a = np.where(up, hi_a, mid)
        flo = np.where(up, fmid, flo)
        zero = fmid == 0.0
        done = zero | (hi_a - lo_a <= tol)
        if done.any():
            root[active[zero]] = mid[zero]
            closed = done & ~zero
            root[active[closed]] = 0.5 * (lo_a[closed] + hi_a[closed])
            keep = ~done
            active, params = active[keep], params[keep]
            lo_a, hi_a, flo = lo_a[keep], hi_a[keep], flo[keep]
    root[active] = 0.5 * (lo_a + hi_a)
    return root
