"""Quantile treatment-effect bounds in the changes-in-changes design.

The counterfactual untreated quantile for the treated group is the
quantile composition Q01(F00(Q10(q))) of three empirical distributions.
Anticipation distorts the treated pre-period sample, so the point
estimate m(q) becomes one endpoint of an interval.  The other endpoint
comes from two separate routes and the tighter one wins:

* a magnitude route: the closest-to-zero root of
  Q11(q) - Q01(F00(Q10(q) -+ x)) - x = 0 (phi_u with -x, phi_l with +x),
  which need not exist and must share the declared sign of the effect;
* a probability route: the composition evaluated at the pi-shifted
  quantile q -+ pi (phi-tilde), infinite when the shift leaves (0, 1).

Conventions are fixed once: cdf(y) = #{samples <= y}/n (right-continuous)
and quantile(q) = inf{y : cdf(y) >= q} (left-continuous generalized
inverse on (0, 1]), which keeps every composition well-defined on step
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import IdentifiedInterval, SignRegime

__all__ = [
    "EmpiricalDistribution",
    "CicData",
    "CicBoundsResult",
    "counterfactual_quantile",
    "cic_m",
    "solve_phi",
    "shifted_quantile_bound",
    "cic_identified_set",
]


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted sample with step-function cdf and generalized-inverse quantile."""

    values: np.ndarray

    @staticmethod
    def from_sample(x) -> "EmpiricalDistribution":
        arr = np.sort(np.asarray(x, dtype=float))
        if arr.size == 0:
            raise ValueError("empirical distribution needs at least one sample")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        return EmpiricalDistribution(values=arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def min(self) -> float:
        return float(self.values[0])

    @property
    def max(self) -> float:
        return float(self.values[-1])

    def cdf(self, y):
        """P(sample <= y); scalar in, scalar out, arrays pass through."""
        idx = np.searchsorted(self.values, y, side="right")
        out = idx / self.n
        return float(out) if np.isscalar(y) or np.ndim(y) == 0 else out

    def quantile(self, q: float) -> float:
        """inf{y : cdf(y) >= q} for q in (0, 1].

        The candidate order statistic is checked with the same k/n float
        division the cdf produces, so cdf/quantile round trips hit sample
        points exactly.
        """
        if not (0.0 < q <= 1.0):
            raise ValueError(f"quantile level must lie in (0, 1], got {q}")
        n = self.n
        k0 = math.floor(q * n)
        k = k0 if (k0 >= 1 and k0 / n >= q) else k0 + 1
        return float(self.values[min(k, n) - 1])

    def quantile_vec(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        n = self.n
        k0 = np.floor(q * n).astype(int)
        k = np.where((k0 >= 1) & (k0 / n >= q), k0, k0 + 1)
        return self.values[np.minimum(k, n) - 1]


@dataclass(frozen=True)
class CicData:
    """The four observed samples: (group, period) = (treated/control, 0/1)."""

    treated_t0: EmpiricalDistribution
    treated_t1: EmpiricalDistribution
    control_t0: EmpiricalDistribution
    control_t1: EmpiricalDistribution

    @staticmethod
    def from_samples(treated_t0, treated_t1, control_t0, control_t1) -> "CicData":
        return CicData(
            treated_t0=EmpiricalDistribution.from_sample(treated_t0),
            treated_t1=EmpiricalDistribution.from_sample(treated_t1),
            control_t0=EmpiricalDistribution.from_sample(control_t0),
            control_t1=EmpiricalDistribution.from_sample(control_t1),
        )

    @staticmethod
    def from_panel(panel) -> "CicData":
        treated = panel.d == 1  # d is 0 or 1, so ~treated is d == 0
        control = ~treated
        return CicData.from_samples(
            treated_t0=panel.y0[treated],
            treated_t1=panel.y1[treated],
            control_t0=panel.y0[control],
            control_t1=panel.y1[control],
        )

    @property
    def data_range(self) -> float:
        los = (self.treated_t0.min, self.treated_t1.min, self.control_t0.min, self.control_t1.min)
        his = (self.treated_t0.max, self.treated_t1.max, self.control_t0.max, self.control_t1.max)
        return max(his) - min(los)

    def control_map(self, y: float) -> float:
        """Q01(F00(y)): where the control group's period move sends level y,
        read from :attr:`control_map_table`; -inf when y sits below the
        entire control pre-period sample."""
        _, h = self.control_map_table
        return float(h[np.searchsorted(self.control_t0.values, y, side="right")])

    @cached_property
    def control_map_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The control map Q01(F00(y)) by rank: ``(v, h)``, built on first use.

        ``h[r] = Q01(r/n0)`` is the map at any y with r control pre-period
        values at or below it, and ``h[0] = -inf``.  ``v`` is the sorted sample
        padded with -inf and +inf, so that rank r means ``v[r] <= y < v[r + 1]``.
        """
        n0 = self.control_t0.n
        v = np.concatenate(([-np.inf], self.control_t0.values, [np.inf]))
        h = self.control_t1.quantile_vec(np.arange(1, n0 + 1) / n0)
        return v, np.concatenate(([-np.inf], h))


def counterfactual_quantile(
    q: float,
    d_treated_t0: EmpiricalDistribution,
    d_control_t0: EmpiricalDistribution,
    d_control_t1: EmpiricalDistribution,
) -> float:
    """q-th quantile of the counterfactual untreated outcome for the
    treated group: Q01(F00(Q10(q))), by the rule h[r] = Q01(r/n0) of
    :attr:`CicData.control_map_table` at its one rank r (``cdf`` rounds r/n0
    as the table does, so the bits are those of h[r])."""
    _check_q(q)
    p = d_control_t0.cdf(d_treated_t0.quantile(q))
    return d_control_t1.quantile(p) if p > 0.0 else -math.inf


def _shifted_composition(q: float, shift: float, data: CicData) -> float:
    """Q11(q) - Q01(F00(Q10(q + shift))); shared by m(q) and both
    probability-route bounds so the shift-zero paths agree exactly."""
    return data.treated_t1.quantile(q) - data.control_map(data.treated_t0.quantile(q + shift))


def cic_m(q: float, data: CicData) -> float:
    """Point contrast m(q): treated post-period quantile minus the
    counterfactual composition."""
    _check_q(q)
    return _shifted_composition(q, 0.0, data)


def shifted_quantile_bound(q: float, pi: float, side: str, data: CicData) -> float:
    """Probability-route bound: the composition at the pi-shifted quantile.

    Upper side shifts to q - pi (infinite when q <= pi: the anticipators
    could occupy the entire lower q-mass); lower side shifts to q + pi
    (negative-infinite when q >= 1 - pi).
    """
    _check_q(q)
    if not (0.0 <= pi < 1.0):
        raise ValueError(f"pi must lie in [0, 1), got {pi}")
    if side == "upper":
        if q <= pi:
            return math.inf
        return _shifted_composition(q, -pi, data)
    if side == "lower":
        if q >= 1.0 - pi:
            return -math.inf
        return _shifted_composition(q, pi, data)
    raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")


def solve_phi(q: float, side: str, sign_mu: int, data: CicData) -> float | None:
    """Closest-to-zero root of Q11(q) - Q01(F00(Q10(q) -+ x)) - x = 0.

    The composition is a step function of x, so between consecutive
    breakpoints (one per distinct control pre-period value) the residual
    is exactly linear with slope -1 in x and the in-segment root is solved
    in closed form.  Segments are scanned outward from zero over the
    sign-matching half of [-B, B], B the pooled data range; the first
    verified root wins.  Returns None when no sign-matching root exists,
    and raises a ValueError when B overflows float64.

    The breakpoints come from the sorted control sample, so they are
    already monotone and need no sort.  A segment's control map is
    ``h[r]`` from ``CicData.control_map_table``, with r the number of
    control values at or below the segment midpoint.  The rank follows
    from where the segment sits among the breakpoints; it is checked
    against the padded sample, and only a midpoint that rounding moved
    across a sample value (a segment a few ulps wide) is binary-searched.
    """
    _check_q(q)
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    if sign_mu not in (-1, 1):
        raise ValueError(f"sign_mu must be +1 or -1, got {sign_mu}")
    a_q = data.treated_t1.quantile(q)
    u0 = data.treated_t0.quantile(q)
    big = data.data_range
    if not math.isfinite(big):
        raise ValueError("the pooled data range overflows float64; rescale the outcomes")
    # Substitute x = sign_mu * w with w >= 0; the inner argument becomes
    # u0 + c*w and the residual a_q - comp(u0 + c*w) - sign_mu*w.
    c = (-1.0 if side == "upper" else 1.0) * sign_mu
    # Rounding moves the residual at w by ulps of a_q, of w and of the map
    # value (at most |a_q| + w where the residual is small): the tolerance
    # scales with those, not with the pooled range or u0, which one outlier
    # can set.
    scale = max(1.0, abs(a_q))

    def is_root(w: float) -> bool:
        return abs(a_q - data.control_map(u0 + c * w) - sign_mu * w) <= 1e-9 * max(scale, w)

    if is_root(0.0):
        return 0.0

    values = data.control_t0.values
    n0 = values.size
    cuts = c * (values - u0)  # ascending when c > 0, descending when c < 0
    if c < 0:
        cuts = cuts[::-1]
    lo = int(np.searchsorted(cuts, 0.0, side="right"))
    hi = int(np.searchsorted(cuts, big, side="left"))
    inner = cuts[lo:hi]  # the cuts in (0, big), ascending, ties adjacent
    new = np.ones(inner.size + 1, dtype=bool)  # new[i]: inner[i] starts a tie group
    new[1:-1] = inner[1:] != inner[:-1]
    starts = np.flatnonzero(new)  # tie-group starts, then inner.size
    grid = np.concatenate(([0.0], inner[starts[:-1]], [big]))
    seg_lo, seg_hi = grid[:-1], grid[1:]
    mids = 0.5 * (seg_lo + seg_hi)
    y = u0 + c * mids
    # Control values at or below y: those whose cut lies at or below the
    # segment (c > 0), or at or above it (c < 0).
    if c > 0:
        rank = lo + np.concatenate(([0], starts[1:]))
    else:
        rank = n0 - lo - starts
    v, h = data.control_map_table
    off = (v[rank] > y) | (y >= v[rank + 1])
    if off.any():
        rank[off] = np.searchsorted(values, y[off], side="right")
    w_cand = sign_mu * (a_q - h[rank])  # root of the in-segment linear residual
    tol = 1e-9 * np.maximum(scale, np.abs(w_cand))
    ok = np.isfinite(w_cand) & (w_cand >= seg_lo - tol) & (w_cand <= seg_hi + tol)
    for i in np.flatnonzero(ok):  # segments are ordered outward from zero
        w = float(np.clip(w_cand[i], 0.0, big))
        if is_root(w):
            return sign_mu * w
    return None


@dataclass(frozen=True)
class CicBoundsResult:
    """Per-quantile bound candidates and the assembled interval.

    ``phi_u``/``phi_l`` are None when the magnitude-route root does not
    exist; the tilde bounds carry explicit infinite sentinels.  ``interval``
    is None when the candidates cross (an empty identified set, reported
    rather than clamped).
    """

    q: float
    m_q: float
    phi_u: float | None
    phi_l: float | None
    phi_tilde_u: float
    phi_tilde_l: float
    interval: IdentifiedInterval | None
    raw_lower: float
    raw_upper: float

    @property
    def is_empty(self) -> bool:
        return self.interval is None


def cic_identified_set(
    q: float, pi: float, regime: SignRegime, data: CicData
) -> CicBoundsResult:
    """Assemble the interval for the declared sign regime.

    A positive anticipatory effect puts m(q) at the bottom and caps above
    by the tighter of the two routes; a negative one mirrors.  The
    magnitude route's root is the upper one when the signs agree and the
    lower one when they differ; an absent root enters the min/max as the
    matching infinite sentinel.  A known-zero anticipatory effect
    degenerates to the point m(q).
    """
    m_q = cic_m(q, data)
    phi_u = solve_phi(q, "upper", regime.sign_mu, data)
    phi_l = solve_phi(q, "lower", regime.sign_mu, data)
    pt_u = shifted_quantile_bound(q, pi, "upper", data)
    pt_l = shifted_quantile_bound(q, pi, "lower", data)

    root = phi_u if regime.s == 1 else phi_l
    lo = hi = m_q
    if regime.sign_tau == 1:
        hi = min(math.inf if root is None else root, pt_u)
    elif regime.sign_tau == -1:
        lo = max(-math.inf if root is None else root, pt_l)

    interval = None
    if lo <= hi:
        interval = IdentifiedInterval(
            lower=lo, upper=hi, theorem_tag="cic", pi_used=pi, regime=regime
        )
    return CicBoundsResult(
        q=q,
        m_q=m_q,
        phi_u=phi_u,
        phi_l=phi_l,
        phi_tilde_u=pt_u,
        phi_tilde_l=pt_l,
        interval=interval,
        raw_lower=lo,
        raw_upper=hi,
    )


def _check_q(q: float) -> None:
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile level must lie in (0, 1), got {q}")
