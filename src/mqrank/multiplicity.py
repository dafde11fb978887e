"""Closed testing over all intersection hypotheses, plus step-down comparators.

The closed procedure rejects an individual hypothesis at level alpha when
every intersection hypothesis containing it is rejected by its local
test. Reporting adjusted p-values (the maximum local p over all subsets
containing the hypothesis) is decision-equivalent and strictly more
informative than the binary rule. All 2^K - 1 subsets are enumerated
outright: each one is a cheap quadratic form in the shared score vector,
and the generalized local tests admit no consonance shortcut.

:func:`closure_adjust` is the one closure reduction: a max over the rows
of the subset plan's membership matrix. :func:`closed_test` applies it to
local p-values, and the Monte Carlo engine to its local accept flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import HypothesisSubset
from .rankscore import RankScoreState, SubsetPlan, WeightingMatrix


@dataclass(frozen=True)
class ClosureReport:
    """Local p-values for every nonempty subset plus per-hypothesis decisions."""

    k: int
    alpha: float
    local_p: dict
    adjusted_p: np.ndarray
    rejected: np.ndarray

    def subset_p(self, indices) -> float:
        return self.local_p[HypothesisSubset(tuple(indices))]


def closure_adjust(local_p, member: np.ndarray) -> np.ndarray:
    """Adjusted p-value of hypothesis j: max local p over the subsets
    containing j, in the row order of the membership matrix ``member``
    (:class:`~mqrank.rankscore.SubsetPlan`). On boolean accept flags it
    tells whether any subset containing j was accepted. A stack (..., S)
    of local values gives one row of K per row of S."""
    local_p = np.asarray(local_p)
    return np.where(member, local_p[..., :, None], False).max(axis=-2)


def closed_test(state: RankScoreState, weighting: WeightingMatrix,
                alpha: float = 0.05) -> ClosureReport:
    """Evaluate the local test on every nonempty subset and close it.

    Subset evaluations are pure reads of the shared state; the report is a
    deterministic reduction independent of evaluation order.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")

    plan = SubsetPlan(state.taus, weighting)
    local_p = plan.p_values(state.score, state.v_bar)
    adjusted = closure_adjust(local_p, plan.member)
    return ClosureReport(k=state.k, alpha=alpha,
                         local_p=dict(zip(plan.subsets, local_p.tolist())),
                         adjusted_p=adjusted, rejected=adjusted <= alpha)


def bonferroni(p) -> np.ndarray:
    """Bonferroni-adjusted p-values: K * p, clamped at 1."""
    p = np.asarray(p, dtype=float)
    return np.minimum(1.0, p * p.size)


def holm(p) -> np.ndarray:
    """Holm step-down adjusted p-values.

    Sort ascending, scale the i-th smallest by (K - i), enforce the
    running maximum so adjusted values are monotone in the raw ordering,
    clamp at 1, and undo the sort.
    """
    p = np.asarray(p, dtype=float)
    k = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * (k - np.arange(k))
    adjusted = np.minimum(1.0, np.maximum.accumulate(scaled))
    out = np.empty(k)
    out[order] = adjusted
    return out
