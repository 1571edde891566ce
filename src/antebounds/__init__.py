"""Treatment-effect bounds and uniform inference under anticipatory behavior.

Units that foresee a coming treatment can react before it arrives, which
biases difference-in-differences contrasts.  This package partially
identifies the effect under a cap on the anticipation probability and a
magnitude restriction on the anticipatory effect, builds uniformly valid
confidence sets for the resulting intervals, extends the bounds to
imperfect anticipation, staggered adoption, strata, quantile
(changes-in-changes) effects, and assumption-free alternatives, and ships
a seeded Monte Carlo harness that verifies every bound and coverage claim
against synthetic data with known ground truth.
"""

import os

# The package makes no BLAS call; without this, numpy's OpenBLAS starts a
# worker per extra CPU at import, and each spins before it sleeps.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .altbounds import OutcomeBounds, bounded_outcome_set, common_term, trimming_set
from .bounds import (
    IdentifiedInterval,
    SignRegime,
    SweepRow,
    conditional_estimand,
    did_estimand,
    identified_set_benchmark,
    identified_set_imperfect,
    reconcile_regime,
    robustness_cutoff,
    sensitivity_sweep,
    staggered_estimand,
    staggered_pi,
)
from .cic import (
    CicBoundsResult,
    CicData,
    EmpiricalDistribution,
    cic_identified_set,
    cic_m,
    counterfactual_quantile,
    shifted_quantile_bound,
    solve_phi,
)
from .inference import (
    ConfidenceSet,
    DegenerateVarianceError,
    bound_variances,
    confidence_set,
    contrast_se,
    critical_value_cn,
    robust_null_check,
    summary_mode_infer,
    tstar,
)
from .numerics import (
    Bracket,
    NoRootInBracketError,
    solve_monotone,
    std_normal_cdf,
    std_normal_quantile,
)
from .panel import (
    CohortPanel,
    GroupStats,
    GTransform,
    PanelFormatError,
    TwoPeriodPanel,
    group_stats,
    load_cohort,
    load_two_period,
    treatment_ratio,
)
from .simulate import (
    CheckReport,
    CicDgpConfig,
    CoverageReport,
    DgpConfig,
    coverage_study,
    decomposition_check,
    derive_seed,
    generate_cic,
    generate_imperfect,
    generate_post_treatment,
    generate_staggered,
    generate_toy_anticipation,
    generate_two_period,
    post_treatment_identity_check,
    staggered_identity_check,
    toy_bound_check,
)

__version__ = "0.1.0"
