"""Input objects for multi-quantile testing and their finite-sample checks.

A problem instance is a response vector, a single target covariate whose
effect is under test, and a nuisance design whose first column must be an
all-ones intercept. The quantile levels of interest, together with the
null value of the target coefficient at each level, live in
:class:`QuantileSpec`. Only finite-sample-checkable preconditions are
enforced here; asymptotic regularity conditions cannot be verified from a
single dataset and are deliberately not guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .exceptions import TooManyHypotheses, ValidationError, ValidationIssue

MAX_HYPOTHESES = 15


@dataclass(frozen=True)
class Dataset:
    """Response ``y``, scalar target covariate ``x``, nuisance design ``Z``.

    ``Z`` has shape (n, p) and must carry the intercept as its first
    column, exactly 1.0 in every row. Arrays are stored as float64 and
    never mutated.
    """

    y: np.ndarray
    x: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.ascontiguousarray(self.y, dtype=float))
        object.__setattr__(self, "x", np.ascontiguousarray(self.x, dtype=float))
        object.__setattr__(self, "Z", np.ascontiguousarray(self.Z, dtype=float))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.Z.shape[1]

    def full_design(self) -> np.ndarray:
        """Target column prepended to the nuisance design: [x Z]."""
        return np.column_stack([self.x, self.Z])


@dataclass(frozen=True)
class QuantileSpec:
    """K quantile levels plus the null value of the target coefficient at each.

    Levels are stored sorted ascending (null values are permuted along);
    duplicates are kept so validation can report them.
    """

    taus: tuple
    null_values: tuple = None

    def __post_init__(self):
        taus = tuple(float(t) for t in self.taus)
        if self.null_values is None:
            nulls = (0.0,) * len(taus)
        else:
            nulls = tuple(float(b) for b in self.null_values)
        order = np.argsort(taus, kind="stable")
        object.__setattr__(self, "taus", tuple(taus[i] for i in order))
        if len(nulls) == len(taus):
            nulls = tuple(nulls[i] for i in order)
        object.__setattr__(self, "null_values", nulls)

    @property
    def k(self) -> int:
        return len(self.taus)


@dataclass(frozen=True)
class HypothesisSubset:
    """Nonempty subset of the hypothesis indices {1, ..., K}, ascending."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if not idx:
            raise ValueError("hypothesis subset must be nonempty")
        if len(set(idx)) != len(idx):
            raise ValueError("hypothesis subset has duplicate indices")
        if idx[0] < 1:
            raise ValueError("hypothesis indices are 1-based")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)

    def positions(self) -> np.ndarray:
        """0-based positions into a length-K array."""
        return np.asarray(self.indices, dtype=int) - 1

    def contains(self, j: int) -> bool:
        return j in self.indices

    def __str__(self):
        return ",".join(str(i) for i in self.indices)


def all_subsets(k: int):
    """Every nonempty subset of {1..k} in size-major, lexicographic order;
    TooManyHypotheses when K exceeds MAX_HYPOTHESES."""
    return [HypothesisSubset(tuple(row)) for pos in subset_positions(k)
            for row in (pos + 1).tolist()]


def subset_positions(k: int) -> list:
    """The 0-based positions of :func:`all_subsets` (k), one (comb(k, m), m)
    array of lexicographic rows per subset size m = 1..k; TooManyHypotheses
    when K exceeds MAX_HYPOTHESES."""
    if k > MAX_HYPOTHESES:
        raise TooManyHypotheses(
            f"closed testing enumerates 2^K - 1 = {2 ** k - 1} subsets; K={k} "
            f"exceeds the cap of {MAX_HYPOTHESES}")
    return [np.array(list(combinations(range(k), m)), dtype=int)
            for m in range(1, k + 1)]


def validate(dataset: Dataset, spec: QuantileSpec):
    """Check every finite-sample invariant; return the pair unchanged.

    All violations are collected before raising, so an error report names
    each broken invariant, not just the first.
    """
    issues = []

    y, x, Z = dataset.y, dataset.x, dataset.Z
    if y.ndim != 1 or x.ndim != 1 or Z.ndim != 2:
        issues.append(ValidationIssue(
            "NonFiniteData", "y and x must be 1-D and Z 2-D"))
        raise ValidationError(issues)
    n, p = Z.shape
    if x.shape[0] != n or y.shape[0] != n:
        issues.append(ValidationIssue(
            "NonFiniteData", "y, x and Z disagree on the number of rows"))
        raise ValidationError(issues)

    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))
            and np.all(np.isfinite(Z))):
        issues.append(ValidationIssue(
            "NonFiniteData", "inputs contain NaN or infinite entries"))

    if n < p + 2:
        issues.append(ValidationIssue(
            "SampleTooSmall", f"need n >= p + 2, got n={n}, p={p}"))

    if p < 1 or not np.all(Z[:, 0] == 1.0):
        issues.append(ValidationIssue(
            "MissingIntercept", "first column of Z must be exactly all ones"))

    if _distinct_count(y) < p + 1:
        issues.append(ValidationIssue(
            "SampleTooSmall",
            f"y has fewer than p + 1 = {p + 1} distinct values; the "
            "quantile-regression program would be degenerate"))

    issues.extend(_spec_issues(spec))
    if issues:
        raise ValidationError(issues)
    return dataset, spec


def validate_spec(spec: QuantileSpec) -> QuantileSpec:
    """Check the level set alone (range, distinctness, null-value count)."""
    issues = _spec_issues(spec)
    if issues:
        raise ValidationError(issues)
    return spec


def _distinct_count(values) -> int:
    """``np.unique(values).size``: every NaN counts as one value, and -0.0
    equals 0.0. Sorting and comparing neighbours, since numpy 2's
    ``np.unique`` imports ``numpy.ma`` on its first call."""
    v = np.sort(np.ravel(values))
    nan = np.isnan(v)
    v = v[~nan]
    return (int(v.size > 0) + int(np.count_nonzero(v[1:] != v[:-1]))
            + int(nan.any()))


def _spec_issues(spec: QuantileSpec) -> list:
    issues = []
    taus = np.asarray(spec.taus, dtype=float)
    if taus.size < 1:
        issues.append(ValidationIssue("QuantileOutOfRange", "no quantile levels given"))
    if np.any(taus <= 0.0) or np.any(taus >= 1.0) or not np.all(np.isfinite(taus)):
        issues.append(ValidationIssue(
            "QuantileOutOfRange", "quantile levels must lie strictly in (0, 1)"))
    if _distinct_count(taus) != taus.size:
        issues.append(ValidationIssue(
            "DuplicateQuantile", "quantile levels must be distinct"))
    if len(spec.null_values) != taus.size:
        issues.append(ValidationIssue(
            "NullValueCount",
            "null_values length does not match the number of quantile levels"))
    return issues
