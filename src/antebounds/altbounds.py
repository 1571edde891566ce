"""Bound families that avoid sign and magnitude restrictions on effects.

Both start from the same observable term
T = E[(D - p)/(p(1-p)) * g(Y1) + (1-D)/(1-p) * g(Y0)], which with the
empirical treatment share reduces to the group-mean combination
(d11 - d01) + d00.  Subtracting a bound on the unknowable treated clean
pre-period mean yields:

* bounded-outcome bounds [T - b, T - a] when g(Y0) lives in [a, b]
  (width is always exactly b - a);
* trimming bounds that assign anticipator status to the highest- or
  lowest-outcome treated units up to mass eta, so the unknown mean is
  bracketed by one-sided trimmed means of the treated pre-period sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import IdentifiedInterval
from .cic import EmpiricalDistribution
from .panel import GTransform, TwoPeriodPanel

__all__ = [
    "OutcomeBounds",
    "common_term",
    "bounded_outcome_set",
    "trimming_set",
]


@dataclass(frozen=True)
class OutcomeBounds:
    """Known range [a, b] of the transformed pre-period outcome."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("outcome bounds must be finite")
        if self.a > self.b:
            raise ValueError(f"outcome bounds require a <= b, got [{self.a}, {self.b}]")


def common_term(panel: TwoPeriodPanel, g: GTransform) -> float:
    """The shared observable term T as the group-mean combination
    (d11 - d01) + d00.

    Only means enter, so one unit per group suffices; the arithmetic is
    that of ``group_stats`` means, bit for bit.
    """
    g0, g1 = g.apply(panel.y0), g.apply(panel.y1)
    treated = panel.d == 1
    control = ~treated
    return float(g1[treated].mean() - g1[control].mean() + g0[control].mean())


def bounded_outcome_set(
    panel: TwoPeriodPanel, g: GTransform, bounds: OutcomeBounds
) -> IdentifiedInterval:
    """Interval [T - b, T - a]; every observed g(y0) must lie inside [a, b]."""
    g0 = g.apply(panel.y0)
    outside = np.flatnonzero((g0 < bounds.a) | (g0 > bounds.b))
    if outside.size:
        i = int(outside[0])
        raise ValueError(
            f"bound violated by data: unit {panel.unit_ids[i]!r} has "
            f"g(y0) = {g0[i]} outside [{bounds.a}, {bounds.b}]"
        )
    t = common_term(panel, g)
    return IdentifiedInterval(
        lower=t - bounds.b,
        upper=t - bounds.a,
        theorem_tag="bounded_outcome",
        pi_used=None,
    )


def trimming_set(panel: TwoPeriodPanel, g: GTransform, eta: float) -> IdentifiedInterval:
    """Trimming interval with anticipator mass capped at eta.

    With q_eta the eta-th empirical quantile of treated g(y0) (generalized
    inverse convention), the lower endpoint subtracts the mean over
    {g(y0) >= q_eta} and the upper endpoint the mean over
    {g(y0) <= q_(1-eta)}; ties sit inside both conditioning sets, which can
    only widen the interval.
    """
    if not (0.0 <= eta < 1.0):
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    if panel.n_treated < 2:
        raise ValueError("trimming bounds need at least two treated units")
    g0_treated = g.apply(panel.y0[panel.d == 1])
    t = common_term(panel, g)
    if eta == 0.0:
        full = float(g0_treated.mean())
        return IdentifiedInterval(
            lower=t - full, upper=t - full, theorem_tag="trimming", pi_used=eta
        )
    dist = EmpiricalDistribution.from_sample(g0_treated)
    q_lo = dist.quantile(eta)
    q_hi = dist.quantile(1.0 - eta)
    upper_tail = g0_treated[g0_treated >= q_lo]
    lower_tail = g0_treated[g0_treated <= q_hi]
    if upper_tail.size == 0 or lower_tail.size == 0:
        raise ValueError("trim removes all treated units")
    return IdentifiedInterval(
        lower=t - float(upper_tail.mean()),
        upper=t - float(lower_tail.mean()),
        theorem_tag="trimming",
        pi_used=eta,
    )
