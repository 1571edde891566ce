"""Uniformly valid confidence sets for the interval-identified effect.

The two interval endpoints are proportional transforms of the same
difference-in-differences contrast, hence perfectly correlated; a valid
confidence set extends BOTH endpoints outward by the same length
C_n * se, where se is the larger of the two endpoint standard errors and
C_n solves

    Phi(C_n + (upper - lower) / se) - Phi(-C_n) = alpha.

C_n interpolates between the one-sided and two-sided normal critical
values as the estimated interval widens.  Only the contrast m_hat and
its SE enter (Imbens and Manski 2004, Stoye 2009): :func:`summary_mode_infer`
is the scalar route from (m_hat, SE) to both sets and ``_sets`` its array
form (sensitivity sweeps, the coverage engine), panel data only supply
the SE (:func:`contrast_se`), and published tables need no micro-data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    IdentifiedInterval,
    SignRegime,
    _identified_set,
    did_estimand,
    endpoint_scale_factors,
)
from .numerics import (
    Bracket,
    solve_monotone,
    solve_monotone_elementwise,
    std_normal_cdf,
    std_normal_cdf_array,
    std_normal_quantile,
)
from .panel import GTransform, TwoPeriodPanel

__all__ = [
    "DegenerateVarianceError",
    "VarianceComponents",
    "ConfidenceSet",
    "contrast_moments",
    "contrast_se",
    "bound_variances",
    "critical_value_cn",
    "confidence_set",
    "tstar",
    "robust_null_check",
    "summary_mode_infer",
    "ROBUSTLY_REJECTED",
    "NOT_ROBUST",
]

ROBUSTLY_REJECTED = "robustly-rejected"
NOT_ROBUST = "not-robust"


class DegenerateVarianceError(RuntimeError):
    """The contrast (hence every endpoint) has zero variance."""


@dataclass(frozen=True)
class VarianceComponents:
    """Standard errors of the two interval endpoints and of the DID
    contrast ``se_m`` that both rescale.

    ``se`` is the max of the endpoint SEs; the confidence set uses it for
    both sides.  The endpoint correlation is 1 by the proportional
    construction and is not stored.
    """

    se_l: float
    se_u: float
    se_m: float

    def __post_init__(self) -> None:
        if self.se_l < 0 or self.se_u < 0:
            raise ValueError("endpoint standard errors must be nonnegative")
        if self.se == 0.0:
            raise DegenerateVarianceError(
                "zero variance for both interval endpoints; outcomes are degenerate"
            )

    @property
    def se(self) -> float:
        """max(se_l, se_u), the extension-length scale."""
        return max(self.se_l, self.se_u)


@dataclass(frozen=True)
class ConfidenceSet:
    """Equal-length extension of the estimated interval on both sides, by
    ``c_n * components.se``."""

    lower: float
    upper: float
    c_n: float
    alpha: float
    delta_hat: float
    components: VarianceComponents

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def as_tuple(self) -> tuple[float, float]:
        return (self.lower, self.upper)


def contrast_moments(dy, d) -> tuple[np.ndarray, np.ndarray]:
    """DID contrast and its sqrt(n)-scaled variance along the last axis.

    ``dy`` holds each unit's outcome change g(y1) - g(y0) and ``d`` its
    treatment indicator; a leading axis stacks independent samples (one
    row per Monte Carlo replication).  The contrast is the difference of
    the group mean changes, and its variance is Var1/p + Var0/(1-p) with
    n_d - 1 denominators, which equals
    (s11 + s10 - 2cov1)/p + (s01 + s00 - 2cov0)/(1-p).

    Raises
    ------
    ValueError
        If any sample has fewer than two units in a group, or if the
        contrast or its variance overflows float64.
    """
    dy = np.asarray(dy, dtype=float)
    d = np.asarray(d, dtype=bool)
    n = d.shape[-1]
    n1 = np.count_nonzero(d, axis=-1)
    n0 = n - n1
    small = int(min(n0.min(), n1.min()))
    if small < 2:
        group = 0 if n0.min() == small else 1
        raise ValueError(
            f"insufficient group size: group d={group} has {small} unit(s), need >= 2"
        )
    # 0/1 weights instead of np.where or boolean indexing: same sums, and
    # several times faster on long rows.
    w1 = d.astype(float)
    w0 = 1.0 - w1
    with np.errstate(over="ignore", invalid="ignore"):
        mean1 = (dy * w1).sum(axis=-1) / n1
        mean0 = (dy * w0).sum(axis=-1) / n0
        dev1 = (dy - mean1[..., None]) * w1
        dev0 = (dy - mean0[..., None]) * w0
        var1 = (dev1 * dev1).sum(axis=-1) / (n1 - 1)
        var0 = (dev0 * dev0).sum(axis=-1) / (n0 - 1)
        p = n1 / n
        m, var_m = mean1 - mean0, var1 / p + var0 / (1 - p)
    if not (np.isfinite(m).all() and np.isfinite(var_m).all()):
        raise ValueError(
            "the DID contrast or its variance overflows float64; rescale the outcomes"
        )
    return m, var_m


def contrast_se(panel: TwoPeriodPanel, g: GTransform) -> float:
    """Standard error of the DID contrast, sqrt(variance / n) with the
    variance of :func:`contrast_moments`; DegenerateVarianceError if 0."""
    dy = g.apply(panel.y1) - g.apply(panel.y0)
    return float(_contrast_and_se(dy, panel.d == 1)[1])


def _contrast_and_se(dy, d) -> tuple[np.ndarray, np.ndarray]:
    """(m_hat, se) along the last axis: :func:`contrast_moments` and
    sqrt(variance) / sqrt(n); DegenerateVarianceError if any se is 0."""
    m_hat, var_m = contrast_moments(dy, d)
    se = np.sqrt(var_m) / math.sqrt(np.shape(d)[-1])
    if not (se > 0.0).all():
        raise DegenerateVarianceError("zero variance for the DID contrast; outcomes are degenerate")
    return m_hat, se


def _endpoint_components(
    m_hat: float, se_m: float, pi: float, regime: SignRegime, epsilon: float | None
) -> VarianceComponents:
    """The contrast SE times each endpoint's scale factor, in the order of
    the realized interval sorted(m_hat*fa, m_hat*fb)."""
    fa, fb = endpoint_scale_factors(pi, regime, epsilon)
    se_l, se_u = se_m * fa, se_m * fb
    if m_hat * fa > m_hat * fb:
        se_l, se_u = se_u, se_l
    return VarianceComponents(se_l=se_l, se_u=se_u, se_m=se_m)


def bound_variances(
    panel: TwoPeriodPanel,
    g: GTransform,
    pi_hat: float,
    regime: SignRegime,
    epsilon: float | None = None,
) -> VarianceComponents:
    """Endpoint standard errors from panel data: :func:`did_estimand` and
    :func:`contrast_se`, scaled exactly as :func:`summary_mode_infer` scales
    them.

    pi_hat enters as a constant: its own sampling noise is ignored,
    matching the estimator the variance formulas are written for.
    """
    return _endpoint_components(
        did_estimand(panel, g), contrast_se(panel, g), pi_hat, regime, epsilon
    )


def critical_value_cn(delta_hat, se, alpha: float):
    """Critical value solving Phi(C + delta/se) - Phi(-C) = alpha.

    Monotone in C, so bisection on a bracket slightly padding the analytic
    range [Phi^-1(alpha), Phi^-1((1+alpha)/2)] always converges.
    ``delta_hat`` and ``se`` may be arrays (broadcast together): every
    element is solved in one elementwise bisection, with the bits a scalar
    call for that element gives.  Scalars in, a float out.
    """
    _check_alpha(alpha)
    delta = np.asarray(delta_hat, dtype=float)
    se = np.asarray(se, dtype=float)
    for name, x in (("interval width", delta), ("se", se)):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite, got {x[~np.isfinite(x)].flat[0]}")
    if (se <= 0.0).any():
        raise ValueError(f"se must be positive, got {se[se <= 0.0].flat[0]}")
    if (delta < 0.0).any():
        raise ValueError(f"interval width must be nonnegative, got {delta[delta < 0.0].flat[0]}")
    with np.errstate(over="ignore"):
        ratio = delta / se
    if not np.isfinite(ratio).all():
        raise ValueError("interval width / se overflows; the standard error is too small")
    lo = std_normal_quantile(alpha) - 0.1
    hi = std_normal_quantile((1.0 + alpha) / 2.0) + 0.1

    def gap(c: np.ndarray, r: np.ndarray) -> np.ndarray:
        return std_normal_cdf_array(c + r) - std_normal_cdf_array(-c) - alpha

    roots = solve_monotone_elementwise(gap, Bracket(lo, hi, tol=1e-10), ratio.ravel())
    return float(roots[0]) if ratio.ndim == 0 else roots.reshape(ratio.shape)


def _extend(lower, upper, c_n, se):
    """Confidence-set endpoints: [lower, upper] widened by c_n * se on each
    side (scalars or arrays); a ValueError if one overflows."""
    ext = c_n * se
    cs_lower, cs_upper = lower - ext, upper + ext
    if not (np.isfinite(cs_lower).all() and np.isfinite(cs_upper).all()):
        raise ValueError("the confidence set overflows float64; the standard error is too large")
    return cs_lower, cs_upper


def _sets(m, se, fa, fb, alpha):
    """(lower, upper, c_n, cs_lower, cs_upper) for arrays of contrasts ``m``,
    SEs ``se`` and scale factors ``fa``, ``fb``: :func:`summary_mode_infer`'s
    arithmetic on every element, C_n in one call.  An endpoint overflowing
    to inf ends as the "interval width must be finite" error."""
    with np.errstate(over="ignore"):
        a, b = m * fa, m * fb
        lower, upper = np.minimum(a, b), np.maximum(a, b)
        se_ext = se * np.maximum(fa, fb)
        c_n = critical_value_cn(upper - lower, se_ext, alpha)
        return (lower, upper, c_n, *_extend(lower, upper, c_n, se_ext))


def confidence_set(
    mu_l_hat: float, mu_u_hat: float, vc: VarianceComponents, alpha: float
) -> ConfidenceSet:
    """Extend [mu_l_hat, mu_u_hat] by C_n * se on each side."""
    _check_alpha(alpha)
    if mu_l_hat > mu_u_hat:
        raise ValueError(
            f"endpoints must be ordered: lower {mu_l_hat} > upper {mu_u_hat}"
        )
    delta_hat = mu_u_hat - mu_l_hat
    c_n = critical_value_cn(delta_hat, vc.se, alpha)
    lower, upper = _extend(mu_l_hat, mu_u_hat, c_n, vc.se)
    return ConfidenceSet(
        lower=lower,
        upper=upper,
        c_n=c_n,
        alpha=alpha,
        delta_hat=delta_hat,
        components=vc,
    )


def tstar(alpha: float) -> float:
    """Positive root of Phi(t) - Phi(-t/2) = alpha.

    A no-anticipation t-statistic beyond this threshold keeps rejecting
    the zero-effect null for every anticipation probability, in the
    opposite-signs regime.
    """
    _check_alpha(alpha)
    lo = std_normal_quantile(alpha)
    # The root never exceeds twice the two-sided critical value; pad the
    # stated [lo, 6] bracket so extreme alpha cannot escape it.
    hi = max(6.0, 2.0 * std_normal_quantile((1.0 + alpha) / 2.0) + 1.0)

    def gap(t: float) -> float:
        return std_normal_cdf(t) - std_normal_cdf(-t / 2.0) - alpha

    return solve_monotone(gap, Bracket(lo, hi, tol=1e-10))


def robust_null_check(t_tilde: float, alpha: float, regime: SignRegime) -> str:
    """Is the zero-effect rejection immune to any anticipation probability?

    Applies only when the declared treatment and anticipatory effects have
    opposite signs; then |t| > t*(alpha) keeps 0 outside the confidence
    set for every pi.
    """
    if regime.s != -1:
        raise ValueError(
            "robust-null cutoff applies to opposite-sign regimes only "
            f"(got {regime.describe()})"
        )
    return ROBUSTLY_REJECTED if abs(t_tilde) > tstar(alpha) else NOT_ROBUST


def summary_mode_infer(
    m_hat: float,
    se: float,
    pi: float,
    epsilon: float | None,
    regime: SignRegime,
    alpha: float,
) -> tuple[IdentifiedInterval, ConfidenceSet]:
    """Identified set and confidence set from (m_hat, SE) alone.

    The supplied SE is that of the no-anticipation DID contrast; each
    endpoint's SE is that times its scale factor, and the larger one
    extends both sides.  Sample size plays no further role once the SE is
    given.  The confidence set carries these standard errors as
    ``components``.
    """
    _check_contrast(m_hat, se)
    interval = _identified_set(m_hat, pi, epsilon, regime)
    vc = _endpoint_components(m_hat, se, pi, regime, epsilon)
    return interval, confidence_set(interval.lower, interval.upper, vc, alpha)


def _check_contrast(m_hat: float, se: float) -> None:
    """A DID contrast and its SE must be finite, the SE positive."""
    if not math.isfinite(m_hat):
        raise ValueError(f"contrast m_hat must be finite, got {m_hat}")
    if not (math.isfinite(se) and se > 0.0):
        raise ValueError(f"standard error must be finite and positive, got {se}")


def _check_alpha(alpha: float) -> None:
    if not (0.5 < alpha < 1.0):
        raise ValueError(f"confidence level must lie in (0.5, 1), got {alpha}")
    if (1.0 + alpha) / 2.0 == 1.0:
        # the two-sided quantile Phi^-1((1+alpha)/2) would be infinite
        raise ValueError(f"confidence level {alpha} is too close to 1")
