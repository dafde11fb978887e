"""Simultaneous quantile-regression inference via multivariate rank-scores.

Workflow: build a :class:`Dataset` and :class:`QuantileSpec`, compute the
shared :func:`score_state`, then either evaluate individual subset tests
(:func:`statistic_standard`, :func:`statistic_generalized`) or run the
full closed-testing procedure (:func:`closed_test`) for familywise error
control. :mod:`mqrank.simulation` replicates the calibration and power
experiments; the ``mqrank`` console script exposes everything on the
command line.

The package is a lazy namespace (PEP 562): ``import mqrank`` imports no
submodule, and so no numpy. Each public name, and each submodule, is
imported from the module that owns it on first access.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that owns them
_EXPORTS = {
    "datamodel": ("Dataset", "QuantileSpec", "HypothesisSubset", "all_subsets",
                  "validate"),
    "qrsolver": ("QuantileFit", "fit", "fit_levels", "rank_score_function"),
    "rankscore": ("RankScoreState", "SparsityEstimates", "TestOutcome",
                  "WeightingMatrix", "score_state", "statistic_standard",
                  "statistic_generalized", "estimate_sparsity",
                  "weighted_projection", "bridge_covariance",
                  "noncentrality_standard", "noncentrality_generalized",
                  "analytic_power"),
    "distributions": ("WeightedChiSquareMixture", "chisq_upper",
                      "chisq_noncentral_upper", "imhof_upper", "upper_tails",
                      "mixture_quantile"),
    "multiplicity": ("ClosureReport", "closed_test", "bonferroni", "holm"),
    "simulation": ("Scenario", "MonteCarloReport", "generate",
                   "run_monte_carlo", "wald_test", "load_scenario"),
    "exceptions": ("MqrankError", "ValidationError", "Degenerate",
                   "NotConverged", "BandwidthInfeasible", "SingularProjection",
                   "NotPositiveDefinite", "SingularA", "QuadratureFailure",
                   "TooManyHypotheses", "SingularCovariance"),
}
_SUBMODULES = tuple(_EXPORTS)
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
