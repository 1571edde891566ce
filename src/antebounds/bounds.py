"""Identified sets for treatment effects under anticipatory behavior.

The observed difference-in-differences contrast absorbs a bias equal to
(anticipation share) x (anticipatory effect).  With a user-supplied cap pi
on the anticipation probability and a magnitude restriction tying the
anticipatory effect to the treatment effect, the effect is pinned to a
closed interval with the DID contrast at one end and a ratio-scaled copy
of it at the other.  This module computes those intervals for the
benchmark two-period design, for imperfect anticipation (anticipators may
guess wrong at rate epsilon), for staggered multi-period adoption, and
stratum by stratum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .panel import CohortPanel, GTransform, TwoPeriodPanel

__all__ = [
    "SignRegime",
    "IdentifiedInterval",
    "SweepRow",
    "did_estimand",
    "endpoint_scale_factors",
    "identified_set_benchmark",
    "identified_set_imperfect",
    "staggered_estimand",
    "staggered_pi",
    "conditional_estimand",
    "reconcile_regime",
    "sensitivity_sweep",
    "robustness_cutoff",
]


@dataclass(frozen=True)
class SignRegime:
    """Maintained signs of the treatment effect (mu) and anticipatory
    effect (tau).

    The product s = sign_mu * sign_tau decides which side of the DID
    contrast the identified set extends: same signs inflate the scaled
    endpoint by 1/(1-pi), opposite signs shrink it by 1/(1+pi), and a
    known-zero tau (or mu) leaves no distortion at all.  Signs are user
    declarations, never estimated.
    """

    sign_mu: int
    sign_tau: int

    def __post_init__(self) -> None:
        if self.sign_mu not in (-1, 1):
            raise ValueError(f"sign_mu must be +1 or -1, got {self.sign_mu}")
        if self.sign_tau not in (-1, 0, 1):
            raise ValueError(f"sign_tau must be -1, 0, or +1, got {self.sign_tau}")

    @property
    def s(self) -> int:
        return self.sign_mu * self.sign_tau

    def flipped_mu(self) -> "SignRegime":
        return SignRegime(sign_mu=-self.sign_mu, sign_tau=self.sign_tau)

    def negated(self) -> "SignRegime":
        """Regime after negating the outcome scale: both effects flip sign
        (and their product s is unchanged)."""
        return SignRegime(sign_mu=-self.sign_mu, sign_tau=-self.sign_tau)

    def describe(self) -> str:
        names = {1: "pos", -1: "neg", 0: "zero"}
        return f"mu {names[self.sign_mu]}, tau {names[self.sign_tau]}"


@dataclass(frozen=True)
class IdentifiedInterval:
    """Closed interval of effect values consistent with data and assumptions.

    Carries its provenance: which bound family produced it, the resolved
    pi (and epsilon where relevant), and the declared sign regime.
    Infinite endpoints mark one-sided (unbounded) sets and never enter
    arithmetic; reports render them as "unbounded".
    """

    lower: float
    upper: float
    theorem_tag: str
    pi_used: float | None
    regime: SignRegime | None = None
    epsilon_used: float | None = None

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval endpoints must not be NaN")
        if self.lower > self.upper:
            raise ValueError(
                f"empty identified set: lower {self.lower} > upper {self.upper}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= value <= self.upper + slack

    def as_tuple(self) -> tuple[float, float]:
        return (self.lower, self.upper)


def _check_pi(pi: float, where: str = "pi") -> None:
    if not (0.0 <= pi < 1.0):
        raise ValueError(
            f"unbounded identified set requires pi < 1 (and pi >= 0); {where} = {pi}"
        )


def did_estimand(panel: TwoPeriodPanel, g: GTransform) -> float:
    """Difference of group mean changes, (d11-d10) - (d01-d00).

    Needs one unit per group, not the two that variances need; the
    arithmetic is that of :meth:`GroupStats.diff_in_diff`, bit for bit.
    """
    return _did(panel.y0, panel.y1, panel.d == 1, g)


def _did(y0: np.ndarray, y1: np.ndarray, treated: np.ndarray, g: GTransform) -> float:
    g0, g1 = g.apply(y0), g.apply(y1)
    control = ~treated
    with np.errstate(over="ignore", invalid="ignore"):
        m = float(
            (g1[treated].mean() - g0[treated].mean()) - (g1[control].mean() - g0[control].mean())
        )
    if not math.isfinite(m):
        raise ValueError("the DID contrast overflows float64; rescale the outcomes")
    return m


def endpoint_scale_factors(
    pi: float, regime: SignRegime, epsilon: float | None = None
) -> tuple[float, float]:
    """Multipliers applied to the DID contrast at the two interval endpoints.

    Benchmark: factors (1, 1/(1 - s*pi)).  Imperfect anticipation with
    error rate epsilon: (1/(1 + s*pi*eps), 1/(1 - s*pi*(1-eps))), which
    collapses to the benchmark pair at epsilon = 0.
    """
    _check_pi(pi)
    s = regime.s
    if epsilon is None:
        return (1.0, 1.0 / (1.0 - s * pi))
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    den1 = 1.0 + s * pi * epsilon
    den2 = 1.0 - s * pi * (1.0 - epsilon)
    if den1 <= 0.0 or den2 <= 0.0:
        raise ValueError(
            f"unbounded identified set: nonpositive denominator (pi={pi}, epsilon={epsilon})"
        )
    return (1.0 / den1, 1.0 / den2)


def identified_set_benchmark(m: float, pi: float, regime: SignRegime) -> IdentifiedInterval:
    """Benchmark interval m * [min(1, 1/(1-s*pi)), max(1, 1/(1-s*pi))].

    One endpoint is the DID contrast itself; with s = 0 the set degenerates
    to the point m because a known-zero anticipatory (or treatment) effect
    leaves the contrast unbiased.
    """
    fa, fb = endpoint_scale_factors(pi, regime)
    lo, hi = sorted((m * fa, m * fb))
    return IdentifiedInterval(
        lower=lo, upper=hi, theorem_tag="benchmark", pi_used=pi, regime=regime
    )


def identified_set_imperfect(
    m: float, pi: float, epsilon: float, regime: SignRegime
) -> IdentifiedInterval:
    """Interval when anticipators in either group may guess wrong.

    Endpoints are m/(1 + s*pi*eps) and m/(1 - s*pi*(1-eps)); neither is the
    DID contrast itself unless eps is 0 or 1, because pre-period distortion
    now occurs in both groups.
    """
    f1, f2 = endpoint_scale_factors(pi, regime, epsilon)
    lo, hi = sorted((m * f1, m * f2))
    return IdentifiedInterval(
        lower=lo,
        upper=hi,
        theorem_tag="imperfect",
        pi_used=pi,
        regime=regime,
        epsilon_used=epsilon,
    )


def _identified_set(
    m: float, pi: float, epsilon: float | None, regime: SignRegime
) -> IdentifiedInterval:
    """The benchmark set if epsilon is None, else the imperfect-anticipation set."""
    if epsilon is None:
        return identified_set_benchmark(m, pi, regime)
    return identified_set_imperfect(m, pi, epsilon, regime)


def staggered_estimand(
    panel: CohortPanel, e: int, s: int, t: int, g: GTransform
) -> float:
    """Cohort-e versus never-treated change contrast between periods s and t.

    Requires a benchmark period s strictly before first treatment e and an
    outcome period t at or after e.
    """
    T = panel.n_periods
    if not (1 <= s < e <= t <= T):
        raise ValueError(
            f"period indices must satisfy 1 <= s < e <= t <= T; got s={s}, e={e}, t={t}, T={T}"
        )
    cohort = panel.cohort_mask(e)
    never = panel.cohort_mask(math.inf)
    if not cohort.any():
        raise ValueError(f"empty cohort e={e}")
    # the two-period contrast on cohort-e and never-treated rows, so the
    # T=2 reduction agrees bit for bit and an overflow is caught the same way
    rows = cohort | never
    return _did(panel.outcomes_at(s)[rows], panel.outcomes_at(t)[rows], cohort[rows], g)


def staggered_pi(e: int, s: int, delta: float, panel: CohortPanel) -> float:
    """Discounted cumulative cohort share delta^(e-s) * P[E <= e].

    The discount encodes that anticipation gets harder the further the
    benchmark period sits from the treatment date.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"discount must lie in (0, 1), got {delta}")
    if not s < e:
        raise ValueError(f"benchmark period must precede treatment: s={s}, e={e}")
    return float(delta ** (e - s) * panel.cohort_share_up_to(e))


def conditional_estimand(panel: TwoPeriodPanel, g: GTransform) -> dict:
    """Per-stratum DID contrast with the within-stratum treatment frequency
    as the propensity.

    With the empirical cell frequency as P[D=1|X], the propensity-weighted
    mean and the plain within-stratum group-mean difference coincide, so
    each value is the within-stratum two-period contrast.
    """
    out = {}
    for label in panel.stratum_labels():
        mask = panel.stratum_mask(label)
        treated = panel.d[mask] == 1
        if treated.all() or not treated.any():
            raise ValueError(f"stratum {label!r} lacks comparison group")
        out[label] = _did(panel.y0[mask], panel.y1[mask], treated, g)
    return out


def reconcile_regime(
    m_hat: float, regime: SignRegime, auto_flip: bool = False
) -> SignRegime:
    """Check the estimated contrast against the declared sign of mu.

    A contradiction (e.g. negative m_hat under a declared positive mu)
    triggers a warning and the declared regime is kept, unless auto_flip
    is set, in which case sign_mu is flipped to match the estimate.
    """
    if m_hat == 0.0 or (m_hat > 0) == (regime.sign_mu > 0):
        return regime
    if auto_flip:
        return regime.flipped_mu()
    warnings.warn(
        f"estimated contrast {m_hat:.6g} contradicts declared sign_mu={regime.sign_mu:+d}; "
        "proceeding with the declared regime (use auto_flip to flip it)",
        stacklevel=2,
    )
    return regime


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One sensitivity-grid point: identified set and confidence set."""

    pi: float
    epsilon: float | None
    set_lower: float
    set_upper: float
    cs_lower: float
    cs_upper: float


def sensitivity_sweep(
    m: float,
    se: float,
    n: int,
    grid: Sequence[tuple[float, float | None]],
    regime: SignRegime,
    alpha: float,
) -> list[SweepRow]:
    """Identified and confidence sets over a grid of (pi, epsilon) choices.

    Output is ordered by pi then epsilon so the rows plot directly against
    the anticipation-probability axis.  ``n`` is not used: ``se`` already
    reflects the sample size.  Each row equals :func:`summary_mode_infer`
    at its grid point bit for bit; each point's scale factors are checked
    in that order, then one array call gives every row.
    """
    # local import: inference builds on bounds
    from .inference import _check_alpha, _check_contrast, _sets

    _check_alpha(alpha)
    _check_contrast(m, se)
    ordered = sorted(grid, key=lambda pe: (pe[0], -math.inf if pe[1] is None else pe[1]))
    fa, fb = np.reshape([endpoint_scale_factors(pi, regime, eps) for pi, eps in ordered], (-1, 2)).T
    lower, upper, _, cs_lower, cs_upper = _sets(m, se, fa, fb, alpha)
    return [
        SweepRow(pi=pi, epsilon=eps, set_lower=lo, set_upper=hi, cs_lower=cl, cs_upper=cu)
        for (pi, eps), lo, hi, cl, cu in zip(
            ordered, lower.tolist(), upper.tolist(), cs_lower.tolist(), cs_upper.tolist()
        )
    ]


def robustness_cutoff(rows: Sequence[SweepRow]) -> float | None:
    """Smallest grid pi whose confidence set contains zero, if any."""
    containing = [r.pi for r in rows if r.cs_lower <= 0.0 <= r.cs_upper]
    return min(containing) if containing else None
