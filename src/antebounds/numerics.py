"""Normal CDF/quantile and bracketed monotone root solving.

The standard-normal CDF and quantile come from the standard library
(``math.erfc`` and ``statistics.NormalDist``).  Root solving is plain
bisection: every target this package solves for (critical values, quantile
fixed points) is monotone but at best piecewise smooth, and bisection is
robust and reproducible there.  There is one bisection loop,
:func:`solve_monotone_elementwise`, which solves many roots in one pass
over numpy arrays; :func:`solve_monotone` runs it on one element.  The
scalar loop it replaced is the tests' reference (``tests/cn_oracle.py``).
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

    This is :func:`solve_monotone_elementwise` on one element: the scalar
    ``f`` is called on each point as a float, ``f(lo)`` and ``f(hi)``
    first and then once a step, and it converges in at most
    ceil(log2((hi - lo) / tol)) steps to a point within ``bracket.tol`` of
    the true root.

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
    root = solve_monotone_elementwise(lambda x, _: np.array([f(float(x[0]))]), bracket, np.zeros(1))
    return float(root[0])


def solve_monotone_elementwise(f, bracket: Bracket, params: np.ndarray) -> np.ndarray:
    """Roots of the weakly monotone functions x -> f(x, p), one for each
    element p of the 1-D array ``params``, on one bracket, by bisection.

    ``f`` maps a float array of points and the equally long array of their
    parameters to the function values.  Each element takes exactly the
    steps of a scalar bisection of ``lambda x: f(x, p)``: it evaluates
    ``f(lo)`` and ``f(hi)``, stops at an exact zero of either, and then
    halves the bracket at most ceil(log2((hi - lo) / tol)) times, one
    evaluation a step, until a midpoint is an exact zero or
    ``hi - lo <= tol`` (tracked per element); the root is then that
    midpoint, or the midpoint of the final bracket.  So when ``f``
    computes each element with the scalar arithmetic, every root has the
    scalar loop's bits.

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
        raise NoRootInBracketError(
            f"no root in bracket [{lo}, {hi}]: f has the same sign at both endpoints"
        )
    # the elements still bisecting: their indices, parameters and brackets
    active = np.flatnonzero(open_)
    params, flo = params[open_], flo[open_]
    lo_a = np.full(active.size, lo)
    hi_a = np.full(active.size, hi)
    for _ in range(max(1, math.ceil(math.log2((hi - lo) / tol)))):
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
