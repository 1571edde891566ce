"""Identified sets for treatment effects under anticipatory behavior.

The observed difference-in-differences contrast absorbs a bias equal to
(anticipation share) x (anticipatory effect).  With a user-supplied cap pi
on the anticipation probability and a magnitude restriction tying the
anticipatory effect to the treatment effect, the effect is pinned to a
closed interval with the DID contrast at one end and a ratio-scaled copy
of it at the other.  This module computes those intervals for the
benchmark two-period design, for imperfect anticipation (anticipators may
guess wrong at rate epsilon), for staggered multi-period adoption, and
stratum by stratum.  The benchmark set is the imperfect-anticipation set
at epsilon = 0, so :func:`identified_set_imperfect` builds both, from the
scale factors of :func:`endpoint_scale_factors`.
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

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def as_tuple(self) -> tuple[float, float]:
        return (self.lower, self.upper)


def _check_pi(pi: float) -> None:
    if not (0.0 <= pi < 1.0):
        raise ValueError(f"unbounded identified set requires pi < 1 (and pi >= 0); pi = {pi}")


def did_estimand(panel: TwoPeriodPanel, g: GTransform) -> float:
    """Difference of group mean changes, (d11-d10) - (d01-d00), by
    :func:`_contrast_means`; one unit per group suffices."""
    return float(_contrast_means(g.change(panel.y0, panel.y1), panel.d)[0])


def _contrast_means(dy, d, need: int = 1, scratch=None) -> tuple:
    """(m_hat, mean1, mean0, n1, n0) along the last axis of the arrays ``dy``
    and ``d``: the mean change of the n1 units with ``d`` nonzero minus that
    of the other n0.  Every DID contrast is this arithmetic.

    0/1 weights, not boolean indexing: the same sums, several times faster
    on long rows.  ``scratch``, two float arrays of the broadcast shape,
    saves allocating them; the first ends holding the control weights 1 - d.
    A ValueError names a group of fewer than ``need`` units, or an overflow.
    """
    n1 = np.count_nonzero(d, axis=-1)
    n0 = d.shape[-1] - n1
    small = int(min(n0.min(), n1.min()))
    if small < need:
        group = 0 if n0.min() == small else 1
        raise ValueError(
            f"insufficient group size: group d={group} has {small} unit(s), need >= {need}"
        )
    shape = np.broadcast_shapes(dy.shape, d.shape)
    w, buf = (np.empty(shape), np.empty(shape)) if scratch is None else scratch
    np.copyto(w, d)
    with np.errstate(over="ignore", invalid="ignore"):
        mean1 = np.multiply(dy, w, out=buf).sum(axis=-1) / n1
        mean0 = np.multiply(dy, np.subtract(1.0, w, out=w), out=buf).sum(axis=-1) / n0
        m = mean1 - mean0
    if not np.isfinite(m).all():
        raise ValueError("the DID contrast overflows float64; rescale the outcomes")
    return m, mean1, mean0, n1, n0


def endpoint_scale_factors(
    pi: float, regime: SignRegime, epsilon: float | None = None
) -> tuple[float, float]:
    """Multipliers applied to the DID contrast at the two interval endpoints.

    Imperfect anticipation with error rate epsilon: (1/(1 + s*pi*eps),
    1/(1 - s*pi*(1-eps))).  The benchmark (epsilon None) is epsilon = 0,
    where the pair is (1, 1/(1 - s*pi)) to the bit.  With pi in [0, 1) and
    epsilon in [0, 1], both denominators are at least 1 - pi > 0 in floating
    point, so both factors are finite and positive.
    """
    _check_pi(pi)
    s = regime.s
    epsilon = 0.0 if epsilon is None else epsilon
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    return (1.0 / (1.0 + s * pi * epsilon), 1.0 / (1.0 - s * pi * (1.0 - epsilon)))


def identified_set_benchmark(m: float, pi: float, regime: SignRegime) -> IdentifiedInterval:
    """Benchmark interval m * [min(1, 1/(1-s*pi)), max(1, 1/(1-s*pi))]:
    :func:`identified_set_imperfect` with no epsilon.

    One endpoint is the DID contrast itself; with s = 0 the set degenerates
    to the point m because a known-zero anticipatory (or treatment) effect
    leaves the contrast unbiased.
    """
    return identified_set_imperfect(m, pi, None, regime)


def identified_set_imperfect(
    m: float, pi: float, epsilon: float | None, regime: SignRegime
) -> IdentifiedInterval:
    """Interval when anticipators in either group may guess wrong.

    Endpoints are m/(1 + s*pi*eps) and m/(1 - s*pi*(1-eps)); neither is the
    DID contrast itself unless eps is 0 or 1, because pre-period distortion
    now occurs in both groups.  ``epsilon`` None gives the benchmark set
    (eps = 0, tagged ``"benchmark"``, with no ``epsilon_used``).
    """
    fa, fb = endpoint_scale_factors(pi, regime, epsilon)
    lo, hi = sorted((m * fa, m * fb))
    return IdentifiedInterval(
        lower=lo,
        upper=hi,
        theorem_tag="benchmark" if epsilon is None else "imperfect",
        pi_used=pi,
        regime=regime,
        epsilon_used=epsilon,
    )


def staggered_estimand(
    panel: CohortPanel, e: int, s: int, t: int, g: GTransform
) -> float:
    """Cohort-e versus never-treated change contrast between periods s and t."""
    return float(_contrast_means(*_staggered_changes(panel, e, s, t, g))[0])


def _staggered_changes(
    panel: CohortPanel, e: int, s: int, t: int, g: GTransform
) -> tuple[np.ndarray, np.ndarray]:
    """(dy, in_cohort): the change g(y_t) - g(y_s) of each cohort-e and
    never-treated unit, and which are in cohort e, for a benchmark period s
    strictly before first treatment e and an outcome period t at or after e.
    Their two-period contrast is the T = 2 reduction, bit for bit."""
    T = panel.n_periods
    if not (1 <= s < e <= t <= T):
        raise ValueError(
            f"period indices must satisfy 1 <= s < e <= t <= T; got s={s}, e={e}, t={t}, T={T}"
        )
    cohort = panel.cohort_mask(e)
    if not cohort.any():
        raise ValueError(f"empty cohort e={e}")
    rows = cohort | panel.cohort_mask(math.inf)
    return g.change(panel.outcomes_at(s)[rows], panel.outcomes_at(t)[rows]), cohort[rows]


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
    dy = g.change(panel.y0, panel.y1)
    out = {}
    for label in panel.stratum_labels():
        mask = panel.stratum_mask(label)
        treated = panel.d[mask] == 1
        if treated.all() or not treated.any():
            raise ValueError(f"stratum {label!r} lacks comparison group")
        out[label] = float(_contrast_means(dy[mask], treated)[0])
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
