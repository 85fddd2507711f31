"""Maximal reach: the largest Lambda searchable within a given ratio budget.

Inverting CR = 2 a0 + 1 gives a0 = (R - 1)/2 directly, the iteration count
follows from which root bracket contains a0, and the reach is Lambda =
p_n(a0) * lambda together with the witnessing strategy.  One pass of the
turn recurrence, run in absolute units, gives lambda p_0 .. lambda p_n: the
first n are the turns and the last is the reach, finite wherever Lambda is
even if p_n alone is not.
"""

from __future__ import annotations

import math

from ._base import Record, set_field
from .optimal import Strategy, _cap_tail, check_lambda, expand_sequence
from .polynomials import alpha
# Unused: kept so bench/tracing.py's ("reach", "eval_p") site resolves.  That
# site records nothing (p_n comes from the turn recurrence); drop both together.
from .polynomials import eval_p  # noqa: F401

# A budget landing exactly on a bracket edge belongs to the larger n; the
# fuzz absorbs the few-ulp noise of the closed-form alphas.
_EDGE_FUZZ = 8.0 * math.ulp(4.0)

# In bracket n, p_n(a0) >= p_n(alpha_{n+1}) = (2 cos(pi/(n+3)))^(n+1) > 2^n, so
# from n = 2046 on lambda p_n > 2^-1022 2^2046 overflows for every normal
# lambda.  Budgets that far up are refused before the bracket search, which
# would otherwise step through n one at a time (for ever once a0 is within
# the fuzz of 4).
_FIRST_OVERFLOWING_A0 = alpha(2047) - _EDGE_FUZZ


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


def _iterations_for(a0: float) -> int:
    """The n with alpha_{n+1} <= a0 < alpha_{n+2}.

    Starts from n = floor(pi / arccos(sqrt(a0)/2)) - 3 and nudges by one
    when floating-point floor lands on the wrong side of an integer
    boundary, validating directly against the root brackets.
    """
    n = int(math.floor(math.pi / math.acos(math.sqrt(a0) / 2.0))) - 3
    n = max(n, 0)
    while n > 0 and a0 < alpha(n + 1) - _EDGE_FUZZ:
        n -= 1
    while a0 >= alpha(n + 2) - _EDGE_FUZZ:
        n += 1
    return n


def maximal_reach(query: ReachQuery) -> ReachResult:
    """Largest Lambda coverable with competitive ratio <= query.ratio."""
    a0 = 0.5 * (query.ratio - 1.0)
    if a0 >= _FIRST_OVERFLOWING_A0:
        raise _overflow()
    n = _iterations_for(a0)
    lam = query.lambda_
    turns = expand_sequence(a0, n + 1, scale=lam)  # lambda p_0 .. lambda p_n
    Lambda = turns.pop()
    if not math.isfinite(Lambda):
        raise _overflow()
    _cap_tail(turns, Lambda)  # in the fuzz below alpha_{n+1}, p_{n+1}(a0) < 0
    strategy = Strategy(turns=turns, terminal=Lambda, lambda_=lam)
    return ReachResult(Lambda=Lambda, n=n, strategy=strategy, a0=a0)


def _overflow() -> OverflowError:
    return OverflowError("reach exceeds double range; raise the ratio margin below 9")
