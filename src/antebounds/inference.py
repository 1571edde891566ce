"""Uniformly valid confidence sets for the interval-identified effect.

The two interval endpoints are proportional transforms of the same
difference-in-differences contrast, hence perfectly correlated; a valid
confidence set extends BOTH endpoints outward by the same length
C_n * se, where se is the larger of the two endpoint standard errors and
C_n solves

    Phi(C_n + (upper - lower) / se) - Phi(-C_n) = alpha.

C_n interpolates between the one-sided and two-sided normal critical
values as the estimated interval widens.  Only the contrast m_hat and
its SE enter (Imbens and Manski 2004, Stoye 2009): ``_sets`` is the one
route from (m_hat, SE) and the endpoint scale factors to C_n and the
confidence set, for one contrast (:func:`confidence_set`, hence
:func:`summary_mode_infer`) or arrays of them (sensitivity sweeps, the
coverage engine).  Panel data supply both from one pass over the unit
changes g(y1) - g(y0): :func:`contrast_moments` adds the variance to
``bounds._contrast_means``, the one arithmetic of every DID contrast.
Published tables need no micro-data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    IdentifiedInterval,
    SignRegime,
    _contrast_means,
    _identified_set,
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
class ConfidenceSet:
    """Equal-length extension of the estimated interval on both sides, by
    ``c_n * se``.

    ``se_l`` and ``se_u`` are the standard errors of the interval's lower
    and upper endpoints, ``se_m`` that of the DID contrast both rescale.
    The endpoint correlation is 1 by the proportional construction and is
    not stored.
    """

    lower: float
    upper: float
    c_n: float
    alpha: float
    delta_hat: float
    se_l: float
    se_u: float
    se_m: float

    @property
    def se(self) -> float:
        """max(se_l, se_u), the extension-length scale."""
        return max(self.se_l, self.se_u)

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def as_tuple(self) -> tuple[float, float]:
        return (self.lower, self.upper)


def contrast_moments(dy, d) -> tuple[np.ndarray, np.ndarray]:
    """DID contrast and its sqrt(n)-scaled variance along the last axis.

    ``dy`` holds each unit's outcome change g(y1) - g(y0) and ``d`` its
    treatment indicator; a leading axis stacks independent samples (one
    row per Monte Carlo replication).  The contrast and the group means are
    :func:`bounds._contrast_means`; the variance added here is
    Var1/p + Var0/(1-p) with n_d - 1 denominators, which equals
    (s11 + s10 - 2cov1)/p + (s01 + s00 - 2cov0)/(1-p).  A ValueError names
    a group of fewer than two units, or an overflow of either.
    """
    dy = np.asarray(dy, dtype=float)
    d = np.asarray(d, dtype=bool)
    # the means' weight (w1, w0, w1) and scratch buffers serve the deviations
    shape = np.broadcast_shapes(dy.shape, d.shape)
    w, buf = np.empty(shape), np.empty(shape)
    m, mean1, mean0, n1, n0 = _contrast_means(dy, d, 2, (w, buf))
    with np.errstate(over="ignore", invalid="ignore"):
        var0 = _group_variance(dy, mean0, w, buf, n0)
        var1 = _group_variance(dy, mean1, np.subtract(1.0, w, out=w), buf, n1)
        p = n1 / d.shape[-1]
        var_m = var1 / p + var0 / (1 - p)
    if not np.isfinite(var_m).all():
        raise ValueError(
            "the variance of the DID contrast overflows float64; rescale the outcomes"
        )
    return m, var_m


def _group_variance(dy, mean, w, buf, k) -> np.ndarray:
    """(k - 1)-denominator variance along the last axis of the k ``dy``
    whose 0/1 weight ``w`` is 1, about their ``mean``; ``buf`` is scratch."""
    np.subtract(dy, mean[..., None], out=buf)
    buf *= w
    buf *= buf
    return buf.sum(axis=-1) / (k - 1)


def contrast_se(panel: TwoPeriodPanel, g: GTransform) -> float:
    """Standard error of the DID contrast, sqrt(variance / n) with the
    variance of :func:`contrast_moments`; DegenerateVarianceError if 0."""
    return _panel_contrast(panel, g)[1]


def _panel_contrast(panel: TwoPeriodPanel, g: GTransform) -> tuple[float, float]:
    """(m_hat, se) of a panel's DID contrast, from one pass over its changes."""
    m_hat, se = _contrast_and_se(g.change(panel.y0, panel.y1), panel.d)
    return float(m_hat), float(se)


def _contrast_and_se(dy, d) -> tuple[np.ndarray, np.ndarray]:
    """(m_hat, se) along the last axis: :func:`contrast_moments` and
    sqrt(variance) / sqrt(n); DegenerateVarianceError if any se is 0."""
    m_hat, var_m = contrast_moments(dy, d)
    se = np.sqrt(var_m) / math.sqrt(np.shape(d)[-1])
    if not (se > 0.0).all():
        raise DegenerateVarianceError("zero variance for the DID contrast; outcomes are degenerate")
    return m_hat, se


def _endpoint_ses(m_hat: float, se: float, fa: float, fb: float) -> tuple[float, float]:
    """(se_l, se_u): se*fa and se*fb in the order the interval sorts m_hat*fa, m_hat*fb."""
    se_a, se_b = se * fa, se * fb
    return (se_b, se_a) if m_hat * fa > m_hat * fb else (se_a, se_b)


def bound_variances(
    panel: TwoPeriodPanel,
    g: GTransform,
    pi_hat: float,
    regime: SignRegime,
    epsilon: float | None = None,
) -> tuple[float, float, float]:
    """(se_l, se_u, se_m) from panel data: the endpoint standard errors and
    the contrast SE (:func:`contrast_se`) they rescale, ordered as
    :func:`confidence_set` orders them.

    pi_hat enters as a constant: its own sampling noise is ignored,
    matching the estimator the variance formulas are written for.
    """
    m_hat, se_m = _panel_contrast(panel, g)
    fa, fb = endpoint_scale_factors(pi_hat, regime, epsilon)
    return (*_endpoint_ses(m_hat, se_m, fa, fb), se_m)


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
    SEs ``se`` and scale factors ``fa``, ``fb``, C_n in one call.  An
    endpoint overflowing to inf ends as the "interval width must be finite"
    error."""
    with np.errstate(over="ignore"):
        a, b = m * fa, m * fb
        lower, upper = np.minimum(a, b), np.maximum(a, b)
        se_ext = se * np.maximum(fa, fb)
        c_n = critical_value_cn(upper - lower, se_ext, alpha)
        return (lower, upper, c_n, *_extend(lower, upper, c_n, se_ext))


def confidence_set(m_hat: float, se: float, fa: float, fb: float, alpha: float) -> ConfidenceSet:
    """The confidence set for the interval sorted(m_hat*fa, m_hat*fb) from a
    contrast ``m_hat`` with standard error ``se``: ``_sets`` on one element."""
    lower, upper, c_n, cs_lower, cs_upper = map(float, _sets(m_hat, se, fa, fb, alpha))
    se_l, se_u = _endpoint_ses(m_hat, se, fa, fb)
    return ConfidenceSet(
        lower=cs_lower, upper=cs_upper, c_n=c_n, alpha=alpha, delta_hat=upper - lower,
        se_l=se_l, se_u=se_u, se_m=se,
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
    given.  The confidence set carries these standard errors.
    """
    _check_contrast(m_hat, se)
    interval = _identified_set(m_hat, pi, epsilon, regime)
    fa, fb = endpoint_scale_factors(pi, regime, epsilon)
    return interval, confidence_set(m_hat, se, fa, fb, alpha)


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
