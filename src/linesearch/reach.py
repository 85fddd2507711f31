"""Maximal reach: the largest Lambda searchable within a given ratio budget.

Inverting CR = 2 a0 + 1 gives a0 = (R - 1)/2 directly.  Since
p_j(a0) - p_{j-1}(a0) = p_{j+1}(a0) / a0, the terms lambda p_j(a0) rise
while p_{j+1}(a0) >= 0 and first fall past the bracket n with
alpha_{n+1} <= a0 < alpha_{n+2}: the reach is their peak Lambda = lambda
p_n(a0), and the n terms before it are the witness's turns.  One pass of the
turn recurrence, run in absolute units, gives them all, finite wherever
Lambda is even if p_n alone is not.
"""

from __future__ import annotations

import math

from ._base import Record, set_field
from .optimal import Strategy, check_lambda, expand_sequence
# Unused: kept so bench/tracing.py's ("reach", "eval_p") site resolves.  That
# site records nothing (p_n comes from the turn recurrence); drop both together.
from .polynomials import eval_p  # noqa: F401


class UnboundedReachError(ValueError):
    """R >= 9 allows arbitrarily distant targets; there is no finite reach."""


class InfeasibleRatioError(ValueError):
    """R < 3 is unachievable even when the distance is known exactly."""


class ReachQuery(Record):
    """Ratio budget R and lower distance bound for the reach problem."""

    __slots__ = ("ratio", "lambda_")

    def __init__(self, ratio: float, lambda_: float = 1.0) -> None:
        check_lambda(lambda_)
        if math.isnan(ratio):
            raise ValueError("ratio budget must be a number, got nan")
        if ratio < 3.0:
            raise InfeasibleRatioError(
                f"ratio budget {ratio} is below 3, the cost of a known distance"
            )
        if ratio >= 9.0:
            raise UnboundedReachError(f"ratio budget {ratio} >= 9 gives unbounded reach")
        set_field(self, "ratio", ratio)
        set_field(self, "lambda_", lambda_)


class ReachResult(Record):
    __slots__ = ("Lambda", "n", "strategy", "a0")

    def __init__(self, Lambda: float, n: int, strategy: Strategy, a0: float) -> None:
        set_field(self, "Lambda", Lambda)
        set_field(self, "n", n)
        set_field(self, "strategy", strategy)
        set_field(self, "a0", a0)


def maximal_reach(query: ReachQuery) -> ReachResult:
    """Largest Lambda coverable with competitive ratio <= query.ratio.

    n is estimated as floor(pi / theta) - 3 with a0 = 4 cos^2 theta, within
    one of the peak, as pi / theta carries about n ulps; the walk from one
    below it stops at the first term that the next does not reach, so an
    exact tie goes to the larger n, as the half-open bracket does.
    """
    a0 = 0.5 * (query.ratio - 1.0)
    estimate = math.floor(math.pi / math.acos(math.sqrt(a0) / 2.0)) - 3
    # In bracket n, p_n(a0) >= p_n(alpha_{n+1}) = (2 cos(pi/(n+3)))^(n+1) > 2^n,
    # so from n = 2046 on lambda p_n > 2^-1022 2^2046 overflows for every
    # normal lambda; the estimate is at most one low.
    if estimate > 2046:
        raise _overflow()
    lam = query.lambda_
    terms = expand_sequence(a0, estimate + 3, scale=lam)  # lambda p_0 .. p_{estimate+2}
    n = max(estimate - 1, 0)
    # An overflowed term ends the walk, before the inf and nan that follow it.
    while terms[n + 1] >= terms[n] < math.inf:
        n += 1
    Lambda = terms[n]
    if not math.isfinite(Lambda):
        raise _overflow()
    strategy = Strategy(turns=terms[:n], terminal=Lambda, lambda_=lam)
    return ReachResult(Lambda=Lambda, n=n, strategy=strategy, a0=a0)


def _overflow() -> OverflowError:
    return OverflowError("reach exceeds double range; raise the ratio margin below 9")
