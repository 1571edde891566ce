"""Synthetic data-generating processes and Monte Carlo verification engines.

Generators return only their panels.  Each check computes the value it
predicts from the config itself (the biased contrast mu - lam * tau, the
cohort contrast mu - h * tau, the treatment share that caps the
anticipation share), so bounds and confidence procedures are checked
against the truth they are supposed to cover.  Each quantity is drawn
once: the benchmark and post-treatment models share one draw, and the toy
check draws only the indicators it compares.  Replications are seeded by
mixing a master seed with the replication index (SplitMix64), making
every study reproducible bit-for-bit and independent of execution order
or worker count.

Falsification configs (anticipation share above the cap, or anticipatory
effects larger than the treatment effect) are first-class but must be
tagged: they exist to demonstrate that the bounds break when their
assumptions do.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .bounds import (
    SignRegime,
    _contrast_means,
    _staggered_changes,
    endpoint_scale_factors,
)
from .cic import CicData
from .inference import (
    _check_alpha,
    _contrast_and_se,
    _panel_contrast,
    _sets,
)
from .panel import CohortPanel, GTransform, TwoPeriodPanel

__all__ = [
    "DgpConfig",
    "CicDgpConfig",
    "GridPointResult",
    "CoverageReport",
    "CheckReport",
    "derive_seed",
    "generate_two_period",
    "generate_imperfect",
    "generate_post_treatment",
    "generate_staggered",
    "generate_cic",
    "coverage_study",
    "decomposition_check",
    "staggered_identity_check",
    "toy_bound_check",
    "post_treatment_identity_check",
]

_MASK64 = (1 << 64) - 1


def derive_seed(master: int, index: int) -> int:
    """SplitMix64 mix of a master seed and a replication index.

    Deterministic and well-spread, so replication streams are independent
    of the order in which workers execute them.
    """
    z = (master + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class DgpConfig:
    """Two-period (and staggered) DGP parameters with known ground truth.

    ``lam`` is the true anticipation probability among the treated (and,
    where the scenario allows it, the control group); ``epsilon`` the
    wrong-anticipation rate among anticipators.  ``noise_rho`` is the
    cross-period correlation of the unit noise: 1 would make within-group
    outcome changes degenerate, so the default keeps it interior.
    """

    n: int
    mu: float
    tau: float
    lam: float
    epsilon: float = 0.0
    p_treat: float = 0.5
    base_means: tuple[float, float] = (0.0, 1.0)
    trend: float = 0.5
    noise_sd: float = 1.0
    noise_rho: float = 0.5
    noise_dist: str = "normal"
    noise_df: float = 5.0
    tau1: float = 0.0
    tau2: float = 0.0
    delta: float = 0.9
    toy_alpha: float | None = None
    toy_power: float = 1.0
    seed: int = 0
    falsification: bool = False

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"n must be at least 4, got {self.n}")
        for name in ("mu", "tau", "trend", "noise_sd", "noise_df", "tau1", "tau2", "toy_power"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if not all(map(math.isfinite, self.base_means)):
            raise ValueError(f"base_means must be finite, got {self.base_means}")
        for name in ("lam", "epsilon"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not (0.0 < self.p_treat < 1.0):
            raise ValueError(f"p_treat must lie in (0, 1), got {self.p_treat}")
        if self.noise_sd <= 0.0:
            raise ValueError(f"noise_sd must be positive, got {self.noise_sd}")
        if not (0.0 <= self.noise_rho <= 1.0):
            raise ValueError(f"noise_rho must lie in [0, 1], got {self.noise_rho}")
        if self.noise_dist not in ("normal", "student_t"):
            raise ValueError(f"noise_dist must be 'normal' or 'student_t'")
        if self.noise_dist == "student_t" and self.noise_df <= 2.0:
            raise ValueError("student_t noise needs noise_df > 2 for finite variance")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    def satisfies_assumptions(self, pi: float) -> bool:
        """Magnitude restriction plus anticipation share within the cap."""
        return abs(self.tau) <= abs(self.mu) + 1e-12 and self.lam <= pi + 1e-12

    def regime(self) -> SignRegime:
        sign_mu = 1 if self.mu >= 0 else -1
        sign_tau = 0 if self.tau == 0 else (1 if self.tau > 0 else -1)
        return SignRegime(sign_mu=sign_mu, sign_tau=sign_tau)

    def to_dict(self) -> dict:
        return asdict(self)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed & _MASK64)


def _unit_noise(rng: np.random.Generator, cfg: DgpConfig, periods: int = 2) -> np.ndarray:
    """(n, periods) noise with cross-period correlation noise_rho.

    Callers draw under ``np.errstate(over="ignore")``: a huge noise_sd
    overflows to inf, which panel validation or :func:`contrast_moments`
    then names as a typed error.
    """
    if cfg.noise_dist == "normal":
        draw = lambda size: rng.standard_normal(size)
    else:
        scale = math.sqrt((cfg.noise_df - 2.0) / cfg.noise_df)
        draw = lambda size: rng.standard_t(cfg.noise_df, size) * scale
    common = draw(cfg.n)[:, None]
    idio = draw((cfg.n, periods))
    rho = cfg.noise_rho
    return cfg.noise_sd * (math.sqrt(rho) * common + math.sqrt(1.0 - rho) * idio)


def _outcomes(rng: np.random.Generator, cfg: DgpConfig, d, shift0, shift1=None):
    """(y0, y1): group base mean plus unit noise, shifted by ``shift0`` at
    t=0, and by the common trend, mu for the treated and ``shift1`` (if
    given) at t=1."""
    noise = _unit_noise(rng, cfg)
    base = np.where(d, cfg.base_means[1], cfg.base_means[0])
    y0 = base + noise[:, 0] + shift0
    y1 = base + cfg.trend + noise[:, 1] + d * cfg.mu
    if shift1 is not None:
        y1 += shift1
    return y0, y1


def _draw_two_period(rng: np.random.Generator, cfg: DgpConfig, tau0, tau1=None):
    """Benchmark-style draws: (y0, y1, d), treated anticipators shifted by
    ``tau0`` at t=0 and by ``tau1`` (if given) at t=1."""
    d = rng.random(cfg.n) < cfg.p_treat
    a = d & (rng.random(cfg.n) < cfg.lam)
    y0, y1 = _outcomes(rng, cfg, d, a * tau0, None if tau1 is None else a * tau1)
    return y0, y1, d


@np.errstate(over="ignore")
def generate_two_period(cfg: DgpConfig) -> TwoPeriodPanel:
    """Benchmark DGP: perfect anticipation, treated anticipators only.

    Both groups share the trend, so parallel trends holds by construction;
    anticipators shift the pre-period outcome by tau, which biases the DID
    contrast to mu - lam * tau.
    """
    return TwoPeriodPanel(range(cfg.n), *_draw_two_period(_rng(cfg.seed), cfg, cfg.tau))


@np.errstate(over="ignore")
def generate_imperfect(cfg: DgpConfig) -> TwoPeriodPanel:
    """Imperfect anticipation: anticipators in both groups, wrong with
    probability epsilon.

    Only units whose ANTICIPATED status is treated shift in the
    pre-period: correct anticipators in the treated group and wrong ones
    in the control group.  The contrast converges to
    mu - lam * (1 - 2*epsilon) * tau.
    """
    rng = _rng(cfg.seed)
    d = rng.random(cfg.n) < cfg.p_treat
    anticipates = rng.random(cfg.n) < cfg.lam
    wrong = anticipates & (rng.random(cfg.n) < cfg.epsilon)
    # anticipated-treated layer: treated & correct, or control & wrong
    shifts = anticipates & ((d & ~wrong) | (~d & wrong))
    y0, y1 = _outcomes(rng, cfg, d, shifts * cfg.tau)
    return TwoPeriodPanel(range(cfg.n), y0, y1, d)


def _draw_toy(rng: np.random.Generator, cfg: DgpConfig):
    """Toy-model draws: (d, a), with a the anticipators of both groups,
    A = 1{U <= alpha * P[D=1]}; no outcomes, which the check never reads.

    U follows F(x) = x^k on [0, 1] with k >= 1, a nondecreasing density;
    with alpha <= 1 this keeps the anticipation share below the treatment
    share."""
    if cfg.toy_alpha is None:
        raise ValueError("toy model requires toy_alpha to be set")
    if not (0.0 < cfg.toy_alpha <= 1.0):
        raise ValueError(
            f"toy_alpha must lie in (0, 1] so the signal level stays in the "
            f"U support, got {cfg.toy_alpha}"
        )
    if cfg.toy_power < 1.0:
        raise ValueError(
            f"toy_power < 1 gives a decreasing density for U, which breaks "
            f"the anticipation-share bound (got {cfg.toy_power})"
        )
    d = rng.random(cfg.n) < cfg.p_treat
    u = rng.random(cfg.n) ** (1.0 / cfg.toy_power)
    return d, u <= cfg.toy_alpha * cfg.p_treat


@np.errstate(over="ignore")
def generate_post_treatment(cfg: DgpConfig) -> TwoPeriodPanel:
    """Anticipators shift by tau1 before treatment and tau2 after it.

    The contrast converges to mu - lam * (tau1 - tau2): equal pre and post
    anticipatory effects cancel and leave identification untouched.
    """
    draw = _draw_two_period(_rng(cfg.seed), cfg, cfg.tau1, cfg.tau2)
    return TwoPeriodPanel(range(cfg.n), *draw)


@np.errstate(over="ignore", invalid="ignore")
def generate_staggered(cfg: DgpConfig, T: int, cohort_shares: Sequence[float]) -> CohortPanel:
    """Staggered adoption: cohort e first treated at period e, treated ever
    after; anticipation in pre-period s with probability lam * delta^(e-s).

    A single uniform draw per unit thresholds every pre-period, so
    anticipation switches on at some period and stays on while matching
    the marginal probabilities exactly.
    """
    if T < 2:
        raise ValueError(f"staggered design needs T >= 2, got {T}")
    shares = np.asarray(cohort_shares, dtype=float)
    if shares.ndim != 1 or len(shares) > T:
        raise ValueError("cohort_shares must list shares for cohorts e = 1..L, L <= T")
    if (shares < 0).any() or shares.sum() > 1.0 + 1e-12:
        raise ValueError("cohort shares must be nonnegative and sum to at most 1")
    never_share = max(0.0, 1.0 - shares.sum())
    if never_share <= 0.0:
        raise ValueError("staggered design needs a never-treated remainder share")
    rng = _rng(cfg.seed)
    cohorts_values = np.array([float(e) for e in range(1, len(shares) + 1)] + [math.inf])
    probs = np.concatenate((shares, [never_share]))
    probs = probs / probs.sum()
    cohorts = rng.choice(cohorts_values, size=cfg.n, p=probs)
    v = rng.random(cfg.n)
    noise = _unit_noise(rng, cfg, periods=T)
    base = np.where(np.isfinite(cohorts), cfg.base_means[1], cfg.base_means[0])
    periods = np.arange(1, T + 1)[None, :]
    # never-treated units (cohort inf) are never treated, and their h is 0
    treated_now = periods >= cohorts[:, None]
    h = h_probability(cfg, cohorts[:, None], periods)
    anticipating = v[:, None] < np.where(periods < cohorts[:, None], h, 0.0)
    outcomes = (
        base[:, None]
        + cfg.trend * periods
        + noise
        + cfg.mu * treated_now
        + cfg.tau * anticipating
    )
    return CohortPanel(unit_ids=range(cfg.n), outcomes=outcomes, cohorts=cohorts)


def h_probability(cfg: DgpConfig, e, s):
    """Anticipation probability lam * delta^(e-s) in pre-period s < e for
    cohort e; arrays of e and s broadcast."""
    return cfg.lam * cfg.delta ** (e - s)


@dataclass(frozen=True)
class CicDgpConfig:
    """Changes-in-changes DGP with constant quantile effect.

    Clean outcomes are phi(u, 0) = u and phi(u, 1) = intercept + slope*u
    (strictly increasing, slope away from 1 so the magnitude-route root is
    well-defined); the treated draw U from [u_lo, u_hi] inside the control
    support [0, 1].  Treated units gain ``effect`` at t=1 and anticipators
    (share lam) shift by ``tau_shift`` at t=0, so mu(q) = effect and
    tau(q) = tau_shift at every q.
    """

    n: int
    effect: float
    tau_shift: float = 0.0
    lam: float = 0.0
    slope: float = 0.5
    intercept: float = 0.25
    u_lo: float = 0.0
    u_hi: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if self.slope <= 0.0:
            raise ValueError("slope must be positive for a monotone period map")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if not (0.0 <= self.u_lo < self.u_hi <= 1.0):
            raise ValueError("treated U support must be inside [0, 1]")

    def true_counterfactual_quantile(self, q: float) -> float:
        """Quantile of the clean treated outcome at t=1: intercept +
        slope * Q_{U|treated}(q)."""
        return self.intercept + self.slope * (self.u_lo + q * (self.u_hi - self.u_lo))


def generate_cic(cfg: CicDgpConfig) -> CicData:
    """Draw the four observed samples of the changes-in-changes DGP."""
    rng = _rng(cfg.seed)
    n_t = cfg.n // 2
    n_c = cfg.n - n_t
    u_control = rng.random(n_c)
    u_treated = cfg.u_lo + (cfg.u_hi - cfg.u_lo) * rng.random(n_t)
    a = rng.random(n_t) < cfg.lam
    y00 = u_control
    y01 = cfg.intercept + cfg.slope * u_control
    y10 = u_treated + a * cfg.tau_shift
    y11 = cfg.intercept + cfg.slope * u_treated + cfg.effect
    return CicData.from_samples(
        treated_t0=y10, treated_t1=y11, control_t0=y00, control_t1=y01
    )


@dataclass(frozen=True)
class GridPointResult:
    """Per-grid-point coverage, its Monte Carlo SE, average set lengths and
    the average critical value C_n."""

    lam: float
    coverage: float
    coverage_se: float
    mean_set_length: float
    mean_cs_length: float
    mean_c_n: float
    reps: int
    falsification: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CoverageReport:
    """Coverage study output: one entry per DGP grid point."""

    points: tuple
    pi: float
    alpha: float
    reps: int
    master_seeds: tuple

    @property
    def min_coverage(self) -> float:
        return min(p.coverage for p in self.points)

    def to_dict(self) -> dict:
        return {
            "pi": self.pi,
            "alpha": self.alpha,
            "reps": self.reps,
            "master_seeds": list(self.master_seeds),
            "points": [p.to_dict() for p in self.points],
            "min_coverage": self.min_coverage,
        }


# Replications per block of the coverage engine and the identity check.
# Blocks are keyed by replication index, so results do not depend on how
# blocks are spread over workers; the size bounds the (block, n) buffers.
REPLICATION_BLOCK = 32


def _block_changes(cfg: DgpConfig, start: int, stop: int, tau0, tau1=None):
    """(dy, d) of replications start..stop-1, one row each: the outcome
    changes and treatment indicators of :func:`_draw_two_period` with the
    shifts ``tau0`` and ``tau1``, each from its own derive_seed generator."""
    dy = np.empty((stop - start, cfg.n))
    d = np.empty((stop - start, cfg.n), dtype=bool)
    # an overflow leaves inf or nan in dy, which the contrast rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for row, rep in enumerate(range(start, stop)):
            y0, y1, d[row] = _draw_two_period(_rng(derive_seed(cfg.seed, rep)), cfg, tau0, tau1)
            np.subtract(y1, y0, out=dy[row])
    return dy, d


def _coverage_block(job) -> np.ndarray:
    """(m_hat, se) of the replications start..stop-1 that :func:`generate_two_period`
    would draw, one row each, with the arithmetic of :func:`contrast_se`."""
    cfg, start, stop = job
    return np.column_stack(_contrast_and_se(*_block_changes(cfg, start, stop, cfg.tau)))


def _point_tables(
    cfg_grid: Sequence[DgpConfig],
    pi_for_estimator: float,
    alpha: float,
    reps: int,
    workers: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(table, C_n) per grid point: a (reps, 3) table of each
    replication's (covered, interval width, CS length), and the
    replications' critical values.

    Replications run in blocks of REPLICATION_BLOCK; with workers > 1 one
    process pool serves every (grid point, block) job and results are
    reassembled in job order, so the tables are identical for any worker
    count.  The sets of a grid point come from one array call over its
    replications in order, with the arithmetic of :func:`summary_mode_infer`.
    """
    _check_alpha(alpha)
    if reps < 1:
        raise ValueError("reps must be positive")
    factors = [endpoint_scale_factors(pi_for_estimator, cfg.regime()) for cfg in cfg_grid]
    starts = range(0, reps, REPLICATION_BLOCK)
    jobs = [
        (cfg, start, min(start + REPLICATION_BLOCK, reps)) for cfg in cfg_grid for start in starts
    ]
    if workers > 1:
        # imported here, since a run on one worker never needs them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            blocks = list(
                pool.map(_coverage_block, jobs, chunksize=max(1, len(jobs) // (4 * workers)))
            )
    else:
        blocks = [_coverage_block(job) for job in jobs]
    k = len(starts)
    out = []
    for cfg, (fa, fb), i in zip(cfg_grid, factors, range(0, len(blocks), k)):
        m_hat, se = np.concatenate(blocks[i : i + k]).T
        lower, upper, c_n, cs_lower, cs_upper = _sets(m_hat, se, fa, fb, alpha)
        covered = (cs_lower <= cfg.mu) & (cfg.mu <= cs_upper)
        out.append((np.column_stack((covered, upper - lower, cs_upper - cs_lower)), c_n))
    return out


def coverage_study(
    cfg_grid: Sequence[DgpConfig],
    pi_for_estimator: float,
    alpha: float,
    reps: int,
    workers: int = 1,
) -> CoverageReport:
    """Empirical coverage of the confidence set across a DGP grid.

    Each replication draws a fresh benchmark panel, runs the estimate ->
    interval -> variance -> confidence-set pipeline, and records whether
    the true effect landed inside (see :func:`_point_tables`).
    Configs violating the assumptions are rejected unless explicitly
    tagged as falsification runs, whose points are flagged in the report.
    Pool workers are spawned, not forked, so a script calling this with
    workers > 1 needs an ``if __name__ == "__main__":`` guard.
    """
    if not cfg_grid:
        raise ValueError("the DGP grid is empty")
    for cfg in cfg_grid:
        if not cfg.satisfies_assumptions(pi_for_estimator) and not cfg.falsification:
            raise ValueError(
                f"config with lam={cfg.lam}, tau={cfg.tau}, mu={cfg.mu} violates "
                f"the assumptions for pi={pi_for_estimator}; tag it falsification "
                "if that is intentional"
            )
    points = []
    for cfg, (arr, c_n) in zip(
        cfg_grid, _point_tables(cfg_grid, pi_for_estimator, alpha, reps, workers)
    ):
        coverage = float(arr[:, 0].mean())
        points.append(
            GridPointResult(
                lam=cfg.lam,
                coverage=coverage,
                coverage_se=math.sqrt(coverage * (1.0 - coverage) / reps),
                mean_set_length=float(arr[:, 1].mean()),
                mean_cs_length=float(arr[:, 2].mean()),
                mean_c_n=float(c_n.mean()),
                reps=reps,
                falsification=cfg.falsification,
            )
        )
    return CoverageReport(
        points=tuple(points),
        pi=pi_for_estimator,
        alpha=alpha,
        reps=reps,
        master_seeds=tuple(cfg.seed for cfg in cfg_grid),
    )


@dataclass(frozen=True)
class CheckReport:
    """Generic estimate-versus-prediction check with a 3-sigma verdict."""

    name: str
    estimate: float
    predicted: float
    se: float
    passed: bool
    details: dict = field(default_factory=dict)

    @property
    def z(self) -> float | None:
        """(estimate - predicted) / se; None (JSON null) when se is 0."""
        return (self.estimate - self.predicted) / self.se if self.se > 0 else None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "estimate": self.estimate,
            "predicted": self.predicted,
            "se": self.se,
            "z": self.z,
            "passed": self.passed,
            "details": dict(self.details),
        }


def decomposition_check(cfg: DgpConfig, variant: str = "benchmark") -> CheckReport:
    """One large-n draw: the DID contrast against its predicted bias.

    Benchmark predicts mu - lam*tau; the imperfect variant predicts
    mu - lam*(1-2*epsilon)*tau.
    """
    if variant == "benchmark":
        panel = generate_two_period(cfg)
        predicted = cfg.mu - cfg.lam * cfg.tau
    elif variant == "imperfect":
        panel = generate_imperfect(cfg)
        predicted = cfg.mu - cfg.lam * (1.0 - 2.0 * cfg.epsilon) * cfg.tau
    else:
        raise ValueError(f"unknown variant {variant!r}")
    m_hat, se = _panel_contrast(panel, GTransform.identity())
    passed = abs(m_hat - predicted) <= 3.0 * se
    return CheckReport(
        name=f"decomposition/{variant}",
        estimate=m_hat,
        predicted=predicted,
        se=se,
        passed=passed,
        details={"lam": cfg.lam, "epsilon": cfg.epsilon, "n": cfg.n},
    )


def staggered_identity_check(
    cfg: DgpConfig, T: int, cohort_shares: Sequence[float], e: int, s: int, t: int
) -> CheckReport:
    """Staggered contrast against mu - lam * delta^(e-s) * tau."""
    panel = generate_staggered(cfg, T, cohort_shares)
    rows = _staggered_changes(panel, e, s, t, GTransform.identity())
    m_hat, se = map(float, _contrast_and_se(*rows))
    h = h_probability(cfg, e, s)
    predicted = cfg.mu - h * cfg.tau
    passed = abs(m_hat - predicted) <= 3.0 * se
    return CheckReport(
        name="staggered-identity",
        estimate=m_hat,
        predicted=predicted,
        se=se,
        passed=passed,
        details={"e": e, "s": s, "t": t, "h": h, "n": cfg.n},
    )


def toy_bound_check(cfg: DgpConfig) -> CheckReport:
    """Empirical anticipation share against the treatment share bound."""
    d, a = _draw_toy(_rng(cfg.seed), cfg)
    share = float(a.mean())
    ratio = float(d.mean())
    se = math.sqrt(share * (1.0 - share) / cfg.n + ratio * (1.0 - ratio) / cfg.n)
    passed = share <= ratio + 3.0 * max(se, 1e-12)
    return CheckReport(
        name="toy-anticipation-bound",
        estimate=share,
        predicted=ratio,
        se=se,
        passed=passed,
        details={
            "toy_alpha": cfg.toy_alpha,
            "toy_power": cfg.toy_power,
            "theoretical_share": (cfg.toy_alpha * cfg.p_treat) ** cfg.toy_power,
            "n": cfg.n,
        },
    )


def post_treatment_identity_check(cfg: DgpConfig, reps: int) -> CheckReport:
    """Across replications, the mean contrast against mu - lam*(tau1-tau2)."""
    if reps < 2:
        raise ValueError("identity check needs at least 2 replications")
    blocks = (
        _block_changes(cfg, start, min(start + REPLICATION_BLOCK, reps), cfg.tau1, cfg.tau2)
        for start in range(0, reps, REPLICATION_BLOCK)
    )
    m_hats = np.concatenate([_contrast_means(dy, d)[0] for dy, d in blocks])
    predicted = cfg.mu - cfg.lam * (cfg.tau1 - cfg.tau2)
    se = float(m_hats.std(ddof=1) / math.sqrt(reps))
    estimate = float(m_hats.mean())
    passed = abs(estimate - predicted) <= 3.0 * max(se, 1e-12)
    return CheckReport(
        name="post-treatment-identity",
        estimate=estimate,
        predicted=predicted,
        se=se,
        passed=passed,
        details={"tau1": cfg.tau1, "tau2": cfg.tau2, "lam": cfg.lam, "reps": reps},
    )
