import math

import numpy as np
import pytest

from linesearch.optimal import SearchProblem, optimize
from linesearch.reach import (
    InfeasibleRatioError,
    ReachQuery,
    UnboundedReachError,
    maximal_reach,
)
from linesearch.simulate import worst_case_ratio


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
