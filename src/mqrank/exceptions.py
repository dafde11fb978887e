"""Exception types shared across the package.

Validation problems are collected into a single :class:`ValidationError`
carrying every violated invariant; numerical and algorithmic failures get
their own exception class so callers can map them to exit codes.
"""

from __future__ import annotations


class MqrankError(Exception):
    """Base class for all package-specific errors."""


class ValidationIssue:
    """One violated input invariant: a stable code plus a human message."""

    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message

    def __repr__(self):
        return f"ValidationIssue({self.code!r}, {self.message!r})"


class ValidationError(MqrankError):
    """Raised by ``validate`` with the full list of violated invariants."""

    def __init__(self, issues):
        self.issues = list(issues)
        lines = "; ".join(f"{i.code}: {i.message}" for i in self.issues)
        super().__init__(f"invalid inputs ({lines})")

    @property
    def codes(self):
        return [i.code for i in self.issues]


# numerical / algorithmic failures -----------------------------------------

class Degenerate(MqrankError):
    """Design matrix is rank deficient or the LP is otherwise degenerate."""


class NotConverged(MqrankError):
    """LP solver hit its iteration cap before reaching optimality."""


class BandwidthInfeasible(MqrankError):
    """No usable difference-quotient bandwidth exists for this quantile."""


class SingularProjection(MqrankError):
    """Weighted projection is singular (target lies in the nuisance span)."""


class NotPositiveDefinite(MqrankError):
    """A weighting matrix failed the symmetric positive-definite check."""


class SingularA(MqrankError):
    """Score covariance matrix is singular and cannot be inverted."""


class QuadratureFailure(MqrankError):
    """Numerical inversion did not reach the requested tolerance."""


class TooManyHypotheses(MqrankError):
    """Closed testing over 2^K - 1 subsets is capped at K = 15."""


class SingularCovariance(MqrankError):
    """Wald covariance matrix of the coefficient estimates is singular."""
