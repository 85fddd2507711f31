import math
import random
import sys

import numpy as np
import pytest

from linesearch import reach
from linesearch.optimal import SearchProblem, expand_sequence, optimize
from linesearch.polynomials import eval_p
from linesearch.reach import (
    InfeasibleRatioError,
    ReachQuery,
    UnboundedReachError,
    maximal_reach,
)
from linesearch.simulate import worst_case_ratio

from _oracles import exact_sup_ratio


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


def test_reach_is_the_reference_p_n_times_lambda():
    # Lambda is the exponent-tracked p_n(a0) times lambda, the turns the
    # recurrence's p_i times lambda one by one, and the overflow boundary is
    # where that product leaves double range.
    rng = random.Random(10)
    overflowed = 0
    for k in range(600):
        if k % 3:
            ratio = 3.0 + 6.0 * rng.random()
        else:  # 9 - ratio log-uniform, n up to about 2 800
            ratio = 9.0 - 6.0 * 10.0 ** rng.uniform(-5.8, 0.0)
        lam = _log_uniform(rng, -1022, 1023.9)
        a0 = 0.5 * (ratio - 1.0)
        n = reach._iterations_for(a0)
        want = eval_p(n, a0).to_float() * lam
        if not math.isfinite(want):
            overflowed += 1
            with pytest.raises(OverflowError, match="exceeds double range"):
                maximal_reach(ReachQuery(ratio, lam))
            continue
        res = maximal_reach(ReachQuery(ratio, lam))
        assert (res.n, res.a0, res.Lambda) == (n, a0, want), (ratio, lam)
        assert res.strategy.turns == tuple(r * lam for r in expand_sequence(a0, n)), (ratio, lam)
        assert res.strategy.terminal == want
    assert 20 < overflowed < 580


def test_reach_overflows_from_n_1024_whatever_lambda():
    # p_n(a0) > 2^n in bracket n, so from n = 1024 on no lambda keeps Lambda
    # finite; at n = 1023 the top of the bracket already overflows.
    seen = set()
    for n in (1021, 1022, 1023, 1024, 1025, 1100):
        lo, hi = 4.0 * math.cos(math.pi / (n + 3)) ** 2, 4.0 * math.cos(math.pi / (n + 4)) ** 2
        for a0 in (lo, 0.5 * (lo + hi), math.nextafter(hi, 0.0)):
            ratio = 2.0 * a0 + 1.0
            a0 = 0.5 * (ratio - 1.0)
            n_here = reach._iterations_for(a0)
            for lam in (sys.float_info.min, 1.0):
                finite = math.isfinite(eval_p(n_here, a0).to_float() * lam)
                assert finite or n_here >= 1023
                assert not finite or n_here < 1024
                seen.add((n_here, finite))
                if finite:
                    assert maximal_reach(ReachQuery(ratio, lam)).Lambda < math.inf
                else:
                    with pytest.raises(OverflowError, match="exceeds double range"):
                        maximal_reach(ReachQuery(ratio, lam))
    assert {(1023, True), (1023, False), (1024, False)} <= seen


@pytest.mark.parametrize(
    "ratio", [math.nextafter(9.0, 0.0), 8.999999999999998, 8.99999999999995, 9.0 - 1e-9]
)
def test_budgets_past_double_range_are_refused_before_the_bracket_search(ratio):
    # Stepping n up to its bracket would take ~10^8 steps here, and for ever
    # within the edge fuzz of a0 = 4.
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
