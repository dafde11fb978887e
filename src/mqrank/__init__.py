"""Simultaneous quantile-regression inference via multivariate rank-scores.

Workflow: build a :class:`Dataset` and :class:`QuantileSpec`, compute the
shared :func:`score_state`, then either evaluate individual subset tests
(:func:`statistic_standard`, :func:`statistic_generalized`) or run the
full closed-testing procedure (:func:`closed_test`) for familywise error
control. :mod:`mqrank.simulation` replicates the calibration and power
experiments; the ``mqrank`` console script exposes everything on the
command line.
"""

from .datamodel import (Dataset, HypothesisSubset, QuantileSpec, all_subsets,
                        validate)
from .distributions import (WeightedChiSquareMixture, chisq_noncentral_upper,
                            chisq_upper, imhof_upper, mixture_quantile)
from .exceptions import (BandwidthInfeasible, Degenerate, MqrankError,
                         NotConverged, NotPositiveDefinite, QuadratureFailure,
                         SingularA, SingularCovariance, SingularProjection,
                         TooManyHypotheses, ValidationError)
from .multiplicity import ClosureReport, bonferroni, closed_test, holm
from .qrsolver import QuantileFit, fit, fit_levels, rank_score_function
from .rankscore import (RankScoreState, SparsityEstimates, TestOutcome,
                        WeightingMatrix, analytic_power, bridge_covariance,
                        estimate_sparsity, noncentrality_generalized,
                        noncentrality_standard, score_state,
                        statistic_generalized, statistic_standard,
                        weighted_projection)
from .simulation import (MonteCarloReport, Scenario, generate, load_scenario,
                         run_monte_carlo, wald_test)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "QuantileSpec", "HypothesisSubset", "all_subsets", "validate",
    "QuantileFit", "fit", "fit_levels", "rank_score_function",
    "RankScoreState", "SparsityEstimates", "TestOutcome", "WeightingMatrix",
    "score_state", "statistic_standard", "statistic_generalized",
    "estimate_sparsity", "weighted_projection", "bridge_covariance",
    "noncentrality_standard", "noncentrality_generalized", "analytic_power",
    "WeightedChiSquareMixture", "chisq_upper", "chisq_noncentral_upper",
    "imhof_upper", "mixture_quantile",
    "ClosureReport", "closed_test", "bonferroni", "holm",
    "Scenario", "MonteCarloReport", "generate", "run_monte_carlo", "wald_test",
    "load_scenario",
    "MqrankError", "ValidationError", "Degenerate", "NotConverged",
    "BandwidthInfeasible", "SingularProjection", "NotPositiveDefinite",
    "SingularA", "QuadratureFailure", "TooManyHypotheses", "SingularCovariance",
]
