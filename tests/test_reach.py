import math
import operator
import random
import sys

import numpy as np
import pytest

from linesearch import reach
from linesearch.optimal import SearchProblem, expand_sequence, optimize
from linesearch.polynomials import alpha, eval_p
from linesearch.reach import (
    InfeasibleRatioError,
    ReachQuery,
    UnboundedReachError,
    maximal_reach,
)
from linesearch.simulate import worst_case_ratio

from _oracles import exact_sup_ratio, p_sequence_mp


def test_reach_ratio_five():
    res = maximal_reach(ReachQuery(5.0, 1.0))
    assert res.Lambda == pytest.approx(2.0, abs=1e-12)
    assert res.n == 1
    assert res.a0 == 2.0


def test_reach_ratio_seven():
    res = maximal_reach(ReachQuery(7.0, 1.0))
    assert res.Lambda == pytest.approx(9.0, abs=1e-12)
    assert res.n == 3
    assert res.strategy.turns == pytest.approx([3.0, 6.0, 9.0], abs=1e-12)


def test_reach_ratio_three():
    res = maximal_reach(ReachQuery(3.0, 1.0))
    assert res.Lambda == pytest.approx(1.0, abs=1e-14)
    assert res.n == 0
    assert res.strategy.turns == ()


def test_reach_scales_with_lambda():
    res = maximal_reach(ReachQuery(7.0, 2.5))
    assert res.Lambda == pytest.approx(22.5, rel=1e-13)


def test_reach_rejects_out_of_range():
    with pytest.raises(InfeasibleRatioError):
        maximal_reach(ReachQuery(2.9, 1.0))
    with pytest.raises(UnboundedReachError):
        maximal_reach(ReachQuery(9.0, 1.0))
    with pytest.raises(ValueError):
        ReachQuery(5.0, 0.0)
    with pytest.raises(ValueError, match="subnormal"):
        ReachQuery(5.0, 1e-315)


def test_round_trip_through_optimize():
    for ratio in (3.5, 5.0, 6.0, 7.0, 8.0, 8.9):
        res = maximal_reach(ReachQuery(ratio, 1.0))
        rep = optimize(SearchProblem(1.0, res.Lambda, 1e-10))
        assert rep.cr == pytest.approx(ratio, abs=1e-8), ratio


def test_round_trip_dense():
    for ratio in np.linspace(3.1, 8.9, 100):
        res = maximal_reach(ReachQuery(float(ratio), 1.0))
        rep = optimize(SearchProblem(1.0, res.Lambda, 1e-10))
        assert abs(rep.cr - ratio) <= 1e-8, ratio


def test_reach_monotone_in_ratio():
    prev = 0.0
    for ratio in np.linspace(3.0, 8.99, 100):
        lam = maximal_reach(ReachQuery(float(ratio), 1.0)).Lambda
        assert lam >= prev - 1e-12 * max(prev, 1.0)
        prev = lam


def test_witness_strategy_achieves_ratio():
    for ratio in (4.2, 5.0, 6.6, 7.0, 8.5):
        res = maximal_reach(ReachQuery(ratio, 1.0))
        report = worst_case_ratio(res.strategy, 1.0, res.Lambda)
        assert report.sup_ratio == pytest.approx(ratio, rel=1e-9)


def test_reach_near_nine_is_large_but_finite():
    res = maximal_reach(ReachQuery(8.99, 1.0))
    assert math.isfinite(res.Lambda)
    assert res.Lambda > 1e20


def test_reach_refuses_a_nan_ratio():
    with pytest.raises(ValueError, match="ratio budget must be a number, got nan"):
        ReachQuery(math.nan)


def _log_uniform(rng, lo_exp, hi_exp):
    return 2.0 ** rng.uniform(lo_exp, hi_exp)


def _reference_reach(n, a0, lam):
    """The exponent-tracked p_n(a0) times lambda, rounded once; inf past double range."""
    p = eval_p(n, a0)
    try:
        return math.ldexp(p.mantissa * lam, p.exp2)
    except OverflowError:
        return math.inf


def _peak_n(a0):
    """The first n whose p_n(a0) the next term does not reach, at 50 digits.

    On an exact tie the walk goes on, so a0 = alpha_{n+1} gives n.
    """
    count = 16
    while True:
        seq = p_sequence_mp(count, a0)
        for n in range(count - 1):
            if seq[n + 1] < seq[n]:
                return n
        count *= 2


def test_reach_is_the_reference_p_n_times_lambda():
    # The turn recurrence runs in absolute units.  At lambda = 1 and at every
    # power of two it scales exactly, so Lambda is bit for bit the reference
    # and the reach is refused exactly where that leaves double range.  At
    # other lambdas the recurrence's own roundings, seeded at lambda and
    # a0 lambda, move Lambda by up to about n^3 ulps.
    rng = random.Random(10)
    overflowed = 0
    for k in range(600):
        if k % 3:
            ratio = 3.0 + 6.0 * rng.random()
        else:  # 9 - ratio log-uniform, n up to about 2 800
            ratio = 9.0 - 6.0 * 10.0 ** rng.uniform(-5.8, 0.0)
        kind = rng.randrange(3)
        lam = (1.0, 2.0 ** rng.randint(-1022, 1023), _log_uniform(rng, -1022, 1023.9))[kind]
        a0 = 0.5 * (ratio - 1.0)
        n = _peak_n(a0)
        want = _reference_reach(n, a0, lam)
        try:
            res = maximal_reach(ReachQuery(ratio, lam))
        except OverflowError:
            res = None
        if kind < 2:
            if want == math.inf:
                assert res is None, (ratio, lam)
                overflowed += 1
                continue
            assert (res.n, res.a0, res.Lambda) == (n, a0, want), (ratio, lam)
            ratios = expand_sequence(a0, n)
            if all(map(math.isfinite, ratios)):
                assert res.strategy.turns == tuple(r * lam for r in ratios), (ratio, lam)
            continue
        slack = 1e-15 * n**3
        if want / (1.0 + slack) > sys.float_info.max:
            assert res is None, (ratio, lam)
            overflowed += 1
        elif want * (1.0 + slack) < sys.float_info.max:
            assert (res.n, res.a0) == (n, a0), (ratio, lam)
            assert abs(res.Lambda - want) <= slack * want, (ratio, lam)
    assert 20 < overflowed < 300


def test_reach_overflows_from_n_2046_whatever_lambda():
    # p_n(a0) > 2^n in bracket n, so from n = 2046 on no normal lambda keeps
    # Lambda finite.  At n = 2045 the top of the bracket already overflows at
    # lambda = 2^-1022, as at n = 1023 with lambda = 1.  The lowest budget
    # tried is 1 + 2 alpha_{n+1} rounded, stepped up by ulps while the oracle
    # puts it in bracket n - 1 (at n = 2045 it does).
    seen = set()
    for n in (1022, 1023, 1024, 2044, 2045, 2046, 2047, 2100):
        first = 1.0 + 8.0 * math.cos(math.pi / (n + 3)) ** 2
        while _peak_n(0.5 * (first - 1.0)) < n:
            first = math.nextafter(first, 9.0)
        hi = 1.0 + 8.0 * math.cos(math.pi / (n + 4)) ** 2
        for ratio in (first, 0.5 * (first + hi), math.nextafter(hi, 0.0)):
            a0 = 0.5 * (ratio - 1.0)
            n_here = _peak_n(a0)
            for lam, edge in ((sys.float_info.min, 2046), (1.0, 1024)):
                want = _reference_reach(n_here, a0, lam)
                finite = want < math.inf
                assert finite or n_here >= edge - 1
                assert not finite or n_here < edge
                seen.add((lam, n_here, finite))
                if finite:
                    assert maximal_reach(ReachQuery(ratio, lam)).Lambda == want
                else:
                    with pytest.raises(OverflowError, match="exceeds double range"):
                        maximal_reach(ReachQuery(ratio, lam))
    tiny = sys.float_info.min
    assert {(tiny, 2045, True), (tiny, 2045, False), (tiny, 2046, False),
            (1.0, 1023, True), (1.0, 1023, False), (1.0, 1024, False)} <= seen


@pytest.mark.parametrize(
    "ratio", [math.nextafter(9.0, 0.0), 8.999999999999998, 8.99999999999995, 9.0 - 1e-9]
)
def test_budgets_past_double_range_are_refused_before_the_bracket_search(ratio):
    # The estimate of n is up to about 10^8 here; the budget is refused
    # before a single term is expanded.
    with pytest.raises(OverflowError, match="exceeds double range"):
        maximal_reach(ReachQuery(ratio, sys.float_info.min))


def test_reach_takes_p_n_from_the_turn_recurrence(monkeypatch):
    def refuse(*args):
        raise AssertionError("eval_p called")

    expected = maximal_reach(ReachQuery(8.99, 1.0))
    monkeypatch.setattr(reach, "eval_p", refuse)
    got = maximal_reach(ReachQuery(8.99, 1.0))
    assert (got.Lambda, got.n, got.strategy.turns) == (
        expected.Lambda, expected.n, expected.strategy.turns)


def test_reach_witness_is_within_its_ratio_in_exact_arithmetic():
    # The exact supremum of the witness strategy over [lambda, Lambda], every
    # distance taken as the rational its double stands for.
    rng = random.Random(2013)
    priced = 0
    while priced < 100:
        ratio = 9.0 - 10.0 ** rng.uniform(-4.0, -0.5)
        lam = _log_uniform(rng, -1021, 1000)
        try:
            res = maximal_reach(ReachQuery(ratio, lam))
        except OverflowError:
            continue
        sup = exact_sup_ratio(res.strategy.turns, res.strategy.terminal, lam)
        excess = (sup - ratio) / math.ulp(ratio)
        assert excess <= 4, (ratio, lam, float(excess))
        priced += 1
    # n from 1024 to 2045 at the smallest lambda: p_n alone is past double
    # range, lambda p_n is not, and the recurrence is seeded at 2^-1022.
    lam = sys.float_info.min
    for _ in range(8):
        ratio = 9.0 - 10.0 ** rng.uniform(-4.7, -4.15)
        res = maximal_reach(ReachQuery(ratio, lam))
        assert res.n >= 1024, ratio
        sup = exact_sup_ratio(res.strategy.turns, res.strategy.terminal, lam)
        excess = (sup - ratio) / math.ulp(ratio)
        assert excess <= 4, (ratio, float(excess))


@pytest.mark.parametrize("n", [1, 3, 4, 50, 294])
@pytest.mark.parametrize("lam", [1.0, 3.7, sys.float_info.min])
def test_reach_witness_at_a_bracket_edge_satisfies_the_exact_chain(n, lam):
    # Near alpha_{n+1}, p_{n+1}(a0) is about 0, so lam p_{n-1} and lam p_n
    # are equal up to rounding.  The reach is the peak of the computed terms,
    # so the turns below it rise strictly and none passes it.
    edge = 1.0 + 2.0 * alpha(n + 1)
    ratios = [7.0 - 1e-14, edge, *(edge + k * 2.0**-50 for k in range(-60, 61, 3))]
    for ratio in ratios:
        res = maximal_reach(ReachQuery(ratio, lam))
        s, m = res.strategy, res.n
        terms = expand_sequence(res.a0, m + 2, scale=lam)
        assert (s.turns, res.Lambda) == (tuple(terms[:m]), terms[m]), ratio
        assert res.Lambda >= max(terms[m - 1 : m] + terms[m + 1 :]), ratio
        assert all(map(operator.lt, s.turns, s.turns[1:])), ratio
        s.validate()
        assert worst_case_ratio(s).sup_ratio <= ratio + 4 * math.ulp(ratio), ratio
        excess = (exact_sup_ratio(s.turns, s.terminal, lam) - ratio) / math.ulp(ratio)
        assert excess <= 4, (ratio, float(excess))


@pytest.mark.parametrize("n", [3, 50, 294])
@pytest.mark.parametrize("lam", [1.0, 3.7])
def test_reach_below_a_bracket_edge_is_what_n_minus_1_iterations_reach_or_more(n, lam):
    # Just below 1 + 2 alpha_{n+1}, p_{n+1}(a0) < 0 and lam p_n(a0) is below
    # lam p_{n-1}(a0): the reach is the larger, whatever n it prints.
    edge = 1.0 + 2.0 * alpha(n + 1)
    for k in range(81):
        ratio = edge - k * 2.0**-50
        res = maximal_reach(ReachQuery(ratio, lam))
        assert res.Lambda >= expand_sequence(res.a0, n, scale=lam)[-1], (k, res.n)
