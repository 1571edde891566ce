"""Uniformly valid confidence sets for the interval-identified effect.

The two interval endpoints are proportional transforms of the same
difference-in-differences contrast, hence perfectly correlated; a valid
confidence set extends BOTH endpoints outward by the same length
C_n * sigma / sqrt(n), where sigma is the larger of the two endpoint
standard deviations and C_n solves

    Phi(C_n + sqrt(n) * (upper - lower) / sigma) - Phi(-C_n) = alpha.

C_n interpolates between the one-sided and two-sided normal critical
values as the estimated interval widens.  A summary-statistics mode takes
just (m_hat, SE) so published tables can be re-analyzed without
micro-data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    IdentifiedInterval,
    SignRegime,
    endpoint_scale_factors,
    identified_set_benchmark,
    identified_set_imperfect,
)
from .numerics import Bracket, solve_monotone, std_normal_cdf, std_normal_quantile
from .panel import GTransform, TwoPeriodPanel

__all__ = [
    "DegenerateVarianceError",
    "VarianceComponents",
    "ConfidenceSet",
    "contrast_moments",
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
    """Both endpoint variances are zero; the asymptotics are vacuous."""


@dataclass(frozen=True)
class VarianceComponents:
    """Standard deviations of the sqrt(n)-scaled endpoint estimators.

    ``sigma`` is the max of the two; the confidence set uses it for both
    sides.  The endpoint correlation is 1 by the proportional construction
    and is not stored.  ``sigma_m``, when known, is the standard deviation
    of the scaled DID contrast that both endpoints rescale.
    """

    sigma_l: float
    sigma_u: float
    n: int
    sigma_m: float | None = None

    def __post_init__(self) -> None:
        if self.sigma_l < 0 or self.sigma_u < 0:
            raise ValueError("endpoint standard deviations must be nonnegative")
        if self.sigma == 0.0:
            raise DegenerateVarianceError(
                "zero variance for both interval endpoints; outcomes are degenerate"
            )
        if self.n < 1:
            raise ValueError(f"sample size must be positive, got {self.n}")

    @property
    def sigma(self) -> float:
        return max(self.sigma_l, self.sigma_u)

    @property
    def se(self) -> float:
        """sigma / sqrt(n), the extension-length scale."""
        return self.sigma / math.sqrt(self.n)

    @property
    def se_m(self) -> float:
        """sigma_m / sqrt(n), the standard error of the DID contrast."""
        if self.sigma_m is None:
            raise ValueError("these components carry no contrast standard deviation")
        return self.sigma_m / math.sqrt(self.n)


@dataclass(frozen=True)
class ConfidenceSet:
    """Equal-length extension of the estimated interval on both sides."""

    lower: float
    upper: float
    c_n: float
    alpha: float
    delta_hat: float

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
        If any sample has fewer than two units in a group.
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
    mean1 = (dy * w1).sum(axis=-1) / n1
    mean0 = (dy * w0).sum(axis=-1) / n0
    dev1 = (dy - mean1[..., None]) * w1
    dev0 = (dy - mean0[..., None]) * w0
    var1 = (dev1 * dev1).sum(axis=-1) / (n1 - 1)
    var0 = (dev0 * dev0).sum(axis=-1) / (n0 - 1)
    p = n1 / n
    return mean1 - mean0, var1 / p + var0 / (1 - p)


def bound_variances(
    panel: TwoPeriodPanel,
    g: GTransform,
    pi_hat: float,
    regime: SignRegime,
    epsilon: float | None = None,
) -> VarianceComponents:
    """Plug-in endpoint variances from the contrast variance.

    The scaled endpoint inherits the contrast variance of
    :func:`contrast_moments` times the squared scale factor (1/(1+pi) or
    1/(1-pi) depending on the sign regime).  pi_hat enters as a constant:
    its own sampling noise is ignored, matching the estimator the
    variance formulas are written for.
    """
    m_hat, var_m = contrast_moments(g.apply(panel.y1) - g.apply(panel.y0), panel.d == 1)
    sigma_m = math.sqrt(var_m)
    fa, fb = endpoint_scale_factors(pi_hat, regime, epsilon)
    # Endpoint order follows the realized interval: sorted(m*fa, m*fb).
    sd_a, sd_b = sigma_m * abs(fa), sigma_m * abs(fb)
    if m_hat * fa <= m_hat * fb:
        sigma_l, sigma_u = sd_a, sd_b
    else:
        sigma_l, sigma_u = sd_b, sd_a
    return VarianceComponents(sigma_l=sigma_l, sigma_u=sigma_u, n=panel.n, sigma_m=sigma_m)


def critical_value_cn(delta_hat: float, sigma: float, n: int, alpha: float) -> float:
    """Critical value solving Phi(C + sqrt(n)*delta/sigma) - Phi(-C) = alpha.

    Monotone in C, so bisection on a bracket slightly padding the analytic
    range [Phi^-1(alpha), Phi^-1((1+alpha)/2)] always converges.
    """
    _check_alpha(alpha)
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if delta_hat < 0.0:
        raise ValueError(f"interval width must be nonnegative, got {delta_hat}")
    ratio = math.sqrt(n) * delta_hat / sigma
    lo = std_normal_quantile(alpha) - 0.1
    hi = std_normal_quantile((1.0 + alpha) / 2.0) + 0.1

    def gap(c: float) -> float:
        return std_normal_cdf(c + ratio) - std_normal_cdf(-c) - alpha

    return solve_monotone(gap, Bracket(lo, hi, tol=1e-10))


def confidence_set(
    mu_l_hat: float, mu_u_hat: float, vc: VarianceComponents, alpha: float
) -> ConfidenceSet:
    """Extend [mu_l_hat, mu_u_hat] by C_n * sigma / sqrt(n) on each side."""
    _check_alpha(alpha)
    if mu_l_hat > mu_u_hat:
        raise ValueError(
            f"endpoints must be ordered: lower {mu_l_hat} > upper {mu_u_hat}"
        )
    delta_hat = mu_u_hat - mu_l_hat
    c_n = critical_value_cn(delta_hat, vc.sigma, vc.n, alpha)
    ext = c_n * vc.se
    return ConfidenceSet(
        lower=mu_l_hat - ext,
        upper=mu_u_hat + ext,
        c_n=c_n,
        alpha=alpha,
        delta_hat=delta_hat,
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

    The supplied SE is taken as sigma/sqrt(n) of the no-anticipation DID
    estimator; each endpoint's SE is that times its scale factor, and the
    larger one extends both sides.  Sample size plays no further role once
    the SE is given.
    """
    if se <= 0.0:
        raise ValueError(f"standard error must be positive, got {se}")
    if epsilon is None:
        interval = identified_set_benchmark(m_hat, pi, regime)
    else:
        interval = identified_set_imperfect(m_hat, pi, epsilon, regime)
    fa, fb = endpoint_scale_factors(pi, regime, epsilon)
    se_a, se_b = se * abs(fa), se * abs(fb)
    if m_hat * fa <= m_hat * fb:
        se_l, se_u = se_a, se_b
    else:
        se_l, se_u = se_b, se_a
    vc = VarianceComponents(sigma_l=se_l, sigma_u=se_u, n=1)
    cs = confidence_set(interval.lower, interval.upper, vc, alpha)
    return interval, cs


def _check_alpha(alpha: float) -> None:
    if not (0.5 < alpha < 1.0):
        raise ValueError(f"confidence level must lie in (0.5, 1), got {alpha}")
