"""End-to-end computation of the optimal bounded line search strategy.

Given distance bounds 0 < lambda <= D <= Lambda, the optimal strategy turns
at distances a_0 lambda, ..., a_{n-1} lambda and then at Lambda, where the
number of growing turns n is picked in O(1) from rho = Lambda/lambda, a_0
solves p_n(x) = rho on [alpha_{n+1}, alpha_{n+2}), the later ratios follow
the recurrence a_i = a_0 (a_{i-1} - a_{i-2}), so a_i = p_i(a_0), and the
achieved competitive ratio is exactly 2 a_0 + 1.  Beyond the closed forms
(n <= 3) the solve returns theta with a_0 = 4 cos^2 theta, and the a_i are
expanded from theta rather than by the recurrence.  :func:`solve_problem` is
the O(1) solve alone; :func:`optimize` adds the O(n) turn expansion.
"""

from __future__ import annotations

import math
import sys
from operator import le

from . import solve as _solve
from ._base import Emitter, Record, set_field
from .polynomials import p_theta_terms
from .solve import (
    MODE_EXACT,
    cr_error_bound_limit,
    limit_mode_threshold,
    optimal_n,
)

logger = Emitter("linesearch.optimal")


def check_lambda(lambda_: float) -> None:
    """Reject a lower distance bound that is not a positive, normal, finite double.

    Turns are lambda * a_i; below 2^-1022 they would lose mantissa bits, and
    the printed ratio bound would no longer hold for the printed turns.
    """
    if not (lambda_ > 0.0 and math.isfinite(lambda_)):
        raise ValueError(f"lambda must be positive and finite, got {lambda_}")
    if lambda_ < sys.float_info.min:
        raise ValueError(
            f"lambda {lambda_!r} is subnormal (below {sys.float_info.min!r}): "
            "the turns lambda*a_i would lose the bits the printed bound needs"
        )


class SearchProblem(Record):
    """A bounded search instance: target distance lies in [lambda_, Lambda]."""

    __slots__ = ("lambda_", "Lambda", "epsilon")

    def __init__(self, lambda_: float, Lambda: float, epsilon: float = 1e-9) -> None:
        check_lambda(lambda_)
        if not (Lambda >= lambda_ and math.isfinite(Lambda)):
            raise ValueError(f"Lambda must satisfy lambda <= Lambda < inf, got {Lambda}")
        if not (epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        set_field(self, "lambda_", lambda_)
        set_field(self, "Lambda", Lambda)
        set_field(self, "epsilon", epsilon)

    @property
    def rho(self) -> float:
        return self.Lambda / self.lambda_

    @property
    def log2_rho(self) -> float:
        """log2 of the quotient rho; log2 Lambda - log2 lambda_ only where rho overflows."""
        rho = self.rho
        return math.log2(rho) if rho < math.inf else math.log2(self.Lambda) - math.log2(self.lambda_)

    @classmethod
    def from_log2_rho(
        cls, log2_rho: float, lambda_: float = 1.0, epsilon: float = 1e-9
    ) -> "SearchProblem":
        """Build an instance from log2(rho); rejects Lambda beyond float range."""
        if log2_rho < 0.0:
            raise ValueError(f"log2_rho must be non-negative, got {log2_rho}")
        check_lambda(lambda_)
        if log2_rho < 1024.0:
            Lambda = lambda_ * 2.0**log2_rho
        else:
            # 2.0**log2_rho would raise, yet a lambda below 1 can bring Lambda
            # back into range.  The doublings after the first factor are exact
            # up to overflow, and past 2047 any normal lambda overflows.
            Lambda = lambda_ * 2.0 ** (min(log2_rho, 2047.0) - 1024.0) * 2.0**1023 * 2.0
        if Lambda == math.inf:
            raise OverflowError(
                "Lambda exceeds double range; turn distances cannot be materialized"
            )
        return cls(lambda_=lambda_, Lambda=Lambda, epsilon=epsilon)


class Strategy(Record):
    """Turn distances of a periodic monotone strategy.

    ``turns`` holds f(0..n-1) in absolute distance units; every later
    iteration goes to ``terminal`` (= Lambda), so a consumer wanting the
    two closing passes at Lambda applies the tail rule f(i) = terminal
    for i >= n.  :meth:`validate` checks the one chain
    0 < lambda_ <= f(0) <= ... <= f(n-1) <= terminal.
    """

    __slots__ = ("turns", "terminal", "lambda_")

    def __init__(self, turns: tuple[float, ...], terminal: float, lambda_: float) -> None:
        set_field(self, "turns", tuple(turns))
        set_field(self, "terminal", terminal)
        set_field(self, "lambda_", lambda_)

    @property
    def n(self) -> int:
        return len(self.turns)

    def scaled(self, c: float) -> "Strategy":
        """The same strategy with all distances multiplied by c > 0."""
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return Strategy(
            turns=tuple(t * c for t in self.turns),
            terminal=self.terminal * c,
            lambda_=self.lambda_ * c,
        )

    def validate(self) -> None:
        """Check that lambda_ and the terminal are finite and that the chain holds.

        The chain passes in one C-level pass; the turn-by-turn loop runs only
        where it breaks, to name the broken link in one line.
        """
        lam, terminal, turns = self.lambda_, self.terminal, self.turns
        if not (0.0 < lam < math.inf and math.isfinite(terminal)):
            raise ValueError(f"need a finite lambda > 0 and terminal, got {lam}, {terminal}")
        # A NaN breaks the chain, and an inf turn its last link.
        chain = [lam, *turns, terminal]
        if all(map(le, chain, chain[1:])):
            return
        prev = lam
        for i, t in enumerate(turns):
            if not math.isfinite(t):
                raise ValueError(f"turn {i} is not finite: {t}")
            if t < prev:
                broken = "breaks monotonicity" if i else "is below lambda"
                raise ValueError(f"turn {i} {broken}: {t} < {prev}")
            prev = t
        raise ValueError(f"the terminal is below the last turn or lambda: {terminal} < {prev}")


class StrategyReport(Record):
    """Everything optimize() knows about the strategy it produced; a0 = 4 cos^2 theta.

    ``log2_residual`` is |log2 p_n(a0) - log2 rho|.  :func:`solve_problem`
    returns the same record without the turns, with ``strategy`` None.
    """

    __slots__ = (
        "strategy", "n", "a0", "cr", "mode", "cr_error_bound",
        "log2_residual", "bracket_width", "theta",
    )

    def __init__(
        self,
        strategy: Strategy | None,
        n: int,
        a0: float,
        cr: float,
        mode: str,
        cr_error_bound: float,
        log2_residual: float = math.nan,
        bracket_width: float = 0.0,
        theta: float = math.nan,
    ) -> None:
        set_field(self, "strategy", strategy)
        set_field(self, "n", n)
        set_field(self, "a0", a0)
        set_field(self, "cr", cr)
        set_field(self, "mode", mode)
        set_field(self, "cr_error_bound", cr_error_bound)
        set_field(self, "log2_residual", log2_residual)
        set_field(self, "bracket_width", bracket_width)
        set_field(self, "theta", theta)


def expand_sequence(
    a0: float, n: int, scale: float = 1.0, theta: float | None = None
) -> list[float]:
    """The turn ratios a_0 .. a_{n-1} grown by a_i = a_0 (a_{i-1} - a_{i-2}).

    Equal to p_i(a0) for each i; empty for n = 0.  With a scale the same
    recurrence runs directly in absolute distance units (seeded by scale
    and a0*scale), which stays finite even when the dimensionless ratios
    alone would overflow.  Given theta with a0 = 4 cos^2 theta, the turns
    are instead scale * p_i(theta) from :func:`p_theta_terms`: runs of
    complex rotation restarted from the closed form, one complex multiply
    per turn and about 11 ulps at most, however large n is.  The recurrence
    only sees a0 rounded to a double, and one ulp of a0 moves p_i by about
    i^3 ulp(a0) / 100, relative (4e-9 at i = 999).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return []
    if theta is not None:
        return p_theta_terms(n, theta, scale)
    seq = [a0 * scale]
    prev2, prev1 = scale, a0 * scale  # a_{-1} = 1 seeds a_1 = a_0 (a_0 - 1)
    for _ in range(1, n):
        nxt = a0 * (prev1 - prev2)
        seq.append(nxt)
        prev2, prev1 = prev1, nxt
    return seq


def solve_problem(problem: SearchProblem) -> StrategyReport:
    """Pick n and solve for a0 and the exact competitive ratio, in O(1).

    The report is :func:`optimize`'s without the turns: ``strategy`` is None.

    Dispatch: closed forms for n <= 3; the alpha_{n+2} limit approximation
    once n >= 7 eps^{-1/3} - 4 (ratio error below eps by construction);
    bracketed numeric solving to the ulp floor of theta otherwise, which
    keeps the ratio error far inside the reported eps since CR = 2 a0 + 1.
    """
    rho = problem.rho  # may overflow to inf when Lambda/lambda_ exceeds doubles
    log2_rho = problem.log2_rho  # the double that decides n, here and in solve_numeric
    eps = problem.epsilon
    n = optimal_n(log2_rho=log2_rho)
    if n <= 3:
        sol = _solve.solve_exact(n, rho)
        bound = 0.0
    elif n >= limit_mode_threshold(eps):
        sol = _solve.solve_limit(n)
        bound = cr_error_bound_limit(n)
    elif math.isfinite(rho):
        sol = _solve.solve_numeric(n, rho)
        bound = eps
    else:
        sol = _solve.solve_numeric(n, log2_rho=log2_rho)
        bound = eps
    cr = 2.0 * sol.a0 + 1.0
    logger.info(
        "optimize rho=%.6g -> n=%d mode=%s a0=%.17g cr=%.17g", rho, n, sol.mode, sol.a0, cr
    )
    residual = _solve.log2_residual(n, sol.a0, rho, log2_rho)
    return StrategyReport(
        None, n, sol.a0, cr, sol.mode, bound, residual, sol.bracket_width, sol.theta
    )


def optimize(problem: SearchProblem) -> StrategyReport:
    """Compute the unique optimal strategy and its exact competitive ratio.

    :func:`solve_problem` picks n and a0 in O(1); outside the closed forms
    (n <= 3) the turns are then expanded from the solved theta by
    :func:`expand_sequence`, the one O(n) step, to about 11 ulps each.
    """
    sol = solve_problem(problem)
    theta = None if sol.mode == MODE_EXACT else sol.theta
    turns = _capped_turns(sol.a0, sol.n, theta, problem.lambda_, problem.Lambda)
    strategy = Strategy(turns=turns, terminal=problem.Lambda, lambda_=problem.lambda_)
    return StrategyReport(
        strategy, sol.n, sol.a0, sol.cr, sol.mode, sol.cr_error_bound, sol.log2_residual,
        sol.bracket_width, sol.theta,
    )


def _capped_turns(a0: float, n: int, theta: float | None, lam: float, Lam: float) -> list[float]:
    """The turns at scale lam, with the tail above Lam capped at Lam.

    The limit point's top turns overshoot Lambda by up to about half of it.
    At a bracket's lower edge p_{n+1}(a0) is about 0, so in every mode the
    last turn lam p_{n-1} is Lambda = lam p_n give or take a few ulps.
    Capping keeps the chain and only reduces travel, so the ratio bound
    holds.  Where the overshoot passes double range (``p_theta_terms``
    raises), the turns are expanded at lam/2, capped at Lam/2 and doubled:
    exact steps, as each turn is at least lam a0 / 2 >= lam, unless lam/2
    rounds below 2^-1022, which moves the turns by a relative 2^-52 at most.
    """
    try:
        turns, unit = expand_sequence(a0, n, scale=lam, theta=theta), 1.0
    except OverflowError:
        turns, unit = expand_sequence(a0, n, scale=lam / 2.0, theta=theta), 2.0
    _cap_tail(turns, Lam / unit)
    return turns if unit == 1.0 else [t * unit for t in turns]


def _cap_tail(turns: list[float], cap: float) -> None:
    """Cap the nondecreasing turns at cap, in place: only a tail can exceed it."""
    i = len(turns)
    while i and turns[i - 1] > cap:
        i -= 1
    turns[i:] = [cap] * (len(turns) - i)
