import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesearch.optimal import SearchProblem, Strategy, optimize
from linesearch.simulate import (
    GeometricGrid,
    IncompleteStrategyError,
    TargetSpec,
    UnreachableTargetError,
    baselines,
    cost,
    grid_sweep_ratio,
    walk_cost,
    worst_case_ratio,
)

from _oracles import (
    brute_worst_ratio,
    grid_ratio_pointwise,
    walk_cost as oracle_walk,
    worst_orientation_cost,
)


def pot(lam=1.0, Lam=10.0):
    return baselines("power_of_two", lam, Lam)


# --- cost --------------------------------------------------------------------


def test_cost_power_of_two_example():
    s = pot()
    assert cost(s, 5.0) == 35.0  # 2(1+2+4+8) + 5
    assert worst_orientation_cost(list(s.turns), s.terminal, 5.0) == 35.0


def test_cost_at_first_turn():
    s = Strategy(turns=(3.0, 6.0), terminal=9.0, lambda_=1.0)
    assert cost(s, 3.0) == 2.0 * 3.0 + 3.0


def test_cost_single_shot():
    s = baselines("single_shot", 1.0, 7.0)
    for d in (1.0, 3.3, 7.0):
        assert cost(s, d) == 2.0 * 7.0 + d


def test_cost_accepts_target_spec():
    s = pot()
    assert cost(s, TargetSpec(5.0, "left")) == 35.0


def test_cost_beyond_terminal():
    with pytest.raises(UnreachableTargetError):
        cost(pot(), 11.0)


def test_cost_matches_walk_oracle_on_grid():
    s = pot()
    for d in np.geomspace(1.0, 10.0, 37):
        d = float(d)
        assert cost(s, d) == pytest.approx(
            worst_orientation_cost(list(s.turns), s.terminal, d), rel=1e-12
        )


def test_walk_cost_orientation():
    s = pot()
    # First reach of 5 is iteration 3 (f = 8), an odd = left iteration.
    assert walk_cost(s, TargetSpec(5.0, "left")) == 2.0 * (1 + 2 + 4) + 5.0
    assert walk_cost(s, TargetSpec(5.0, "right")) == 2.0 * (1 + 2 + 4 + 8) + 5.0
    for d in (1.0, 2.5, 9.9):
        for side in ("left", "right"):
            assert walk_cost(s, TargetSpec(d, side)) == pytest.approx(
                oracle_walk(list(s.turns), s.terminal, d, side), rel=1e-12
            )
    with pytest.raises(ValueError):
        walk_cost(s, TargetSpec(5.0, "up"))


# --- worst_case_ratio ---------------------------------------------------------


def test_equalization_of_optimal_strategy():
    rep = optimize(SearchProblem(1.0, 10.0, 1e-9))
    report = worst_case_ratio(rep.strategy, 1.0, 10.0)
    sups = [s for _, s in report.per_interval]
    assert len(sups) == 4
    for s in sups:
        assert s == pytest.approx(2.0 * rep.a0 + 1.0, rel=1e-9)
    assert report.sup_ratio == pytest.approx(7.0592, abs=1e-4)
    assert report.sup_ratio == max(sups)


def test_single_shot_ratio():
    s = baselines("single_shot", 1.0, 1.5)
    report = worst_case_ratio(s, 1.0, 1.5)
    assert report.sup_ratio == pytest.approx(4.0, rel=1e-12)  # 2 rho + 1
    assert len(report.per_interval) == 1


def test_grid_max_at_lambda_for_single_shot():
    s = baselines("single_shot", 1.0, 2.0)
    assert grid_sweep_ratio(s, 1.0, 2.0, 1000) == pytest.approx(5.0, rel=1e-12)


def test_power_of_two_approaches_nine():
    s = baselines("power_of_two", 1.0, 2.0**30)
    assert grid_sweep_ratio(s, points=100_000) >= 8.99
    assert worst_case_ratio(s).sup_ratio < 9.0 + 1e-9


def test_los_sqrt_gap_shrinks_as_inverse_log_squared():
    gaps = []
    for k in (10, 14, 18, 22, 26, 30):
        s = baselines("los_sqrt", 1.0, 2.0**k)
        sup = worst_case_ratio(s).sup_ratio
        assert sup < 9.0
        gaps.append((9.0 - sup) * k * k)
    # Scaled gaps observed between ~2.2 and ~3.6 over this range.
    assert all(1.0 <= g <= 10.0 for g in gaps)


@pytest.mark.parametrize("name", ["power_of_two", "f_infinity", "los_sqrt"])
@pytest.mark.parametrize(
    "lam, Lam",
    [(1.0, 1e308), (1.0, 2.0**1023 * 1.5), (1.0, 1.7976931348623157e308),
     (2.0**-1022, 1e300), (3.0, 3.0 * 2.0**40), (1.0, 1.0)],
)
def test_baselines_stop_at_the_last_turn_below_Lambda(name, lam, Lam):
    # The turns are factor(i) 2^i lam for i = 0, 1, ... up to the last one
    # below Lam, also where the next one would pass double range.
    factor = {
        "power_of_two": lambda i: 1.0,
        "f_infinity": lambda i: 2.0 * i + 4.0,
        "los_sqrt": lambda i: math.sqrt(1.0 + 0.5 * i),
    }[name]
    turns = baselines(name, lam, Lam).turns
    assert turns == tuple(factor(i) * math.ldexp(lam, i) for i in range(len(turns)))
    assert all(t < Lam for t in turns)
    i = len(turns)
    if i + math.frexp(lam)[1] <= 1024:  # the next turn is a double: it reaches Lam
        assert factor(i) * math.ldexp(lam, i) >= Lam


def test_grid_below_exact_sup():
    rep = optimize(SearchProblem(1.0, 10.0, 1e-9))
    sup = worst_case_ratio(rep.strategy).sup_ratio
    grid = grid_sweep_ratio(rep.strategy, points=1_000_000)
    assert grid <= sup + 1e-12
    assert grid >= sup - 1e-4


def test_oracle_agreement_random_strategies():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lam = 1.0
        n_turns = int(rng.integers(1, 9))
        steps = rng.uniform(1.05, 2.5, size=n_turns)
        turns = lam * np.cumprod(steps)
        Lam = float(turns[-1] * rng.uniform(1.1, 2.0))
        s = Strategy(turns=tuple(float(t) for t in turns), terminal=Lam, lambda_=lam)
        exact = worst_case_ratio(s, lam, Lam).sup_ratio
        grid = grid_sweep_ratio(s, lam, Lam, 100_000)
        assert exact - 1e-3 <= grid <= exact + 1e-12
        brute = brute_worst_ratio(list(s.turns), s.terminal, lam, Lam)
        assert brute == pytest.approx(exact, rel=1e-6)


def test_duplicate_turns_handled():
    s = Strategy(turns=(2.0, 2.0, 5.0), terminal=8.0, lambda_=1.0)
    report = worst_case_ratio(s, 1.0, 8.0)
    brute = brute_worst_ratio([2.0, 2.0, 5.0], 8.0, 1.0, 8.0, grid=20000)
    assert report.sup_ratio == pytest.approx(brute, rel=1e-6)


def test_turn_at_lambda_handled():
    s = Strategy(turns=(1.0, 3.0), terminal=6.0, lambda_=1.0)
    report = worst_case_ratio(s, 1.0, 6.0)
    brute = brute_worst_ratio([1.0, 3.0], 6.0, 1.0, 6.0, grid=20000)
    assert report.sup_ratio == pytest.approx(brute, rel=1e-6)


def test_dominance_over_baselines():
    for rho in (4.0, 10.0, 100.0, 1e4):
        rep = optimize(SearchProblem(1.0, rho, 1e-9))
        opt_ratio = worst_case_ratio(rep.strategy, 1.0, rho).sup_ratio
        for name in ("power_of_two", "f_infinity", "los_sqrt", "single_shot"):
            b = baselines(name, 1.0, rho)
            assert opt_ratio <= worst_case_ratio(b, 1.0, rho).sup_ratio + 1e-9, (rho, name)


def test_scale_invariance():
    rep = optimize(SearchProblem(1.0, 10.0, 1e-9))
    base = worst_case_ratio(rep.strategy, 1.0, 10.0).sup_ratio
    for c in (0.1, 3.0, 1000.0):
        scaled = rep.strategy.scaled(c)
        got = worst_case_ratio(scaled, c, 10.0 * c).sup_ratio
        assert got == pytest.approx(base, rel=1e-12)


def test_incomplete_strategy_rejected():
    s = Strategy(turns=(2.0,), terminal=5.0, lambda_=1.0)
    with pytest.raises(IncompleteStrategyError):
        worst_case_ratio(s, 1.0, 8.0)


def test_non_monotone_strategy_rejected():
    s = Strategy(turns=(5.0, 2.0), terminal=8.0, lambda_=1.0)
    with pytest.raises(ValueError):
        worst_case_ratio(s, 1.0, 8.0)


def test_grid_needs_two_points():
    with pytest.raises(ValueError):
        grid_sweep_ratio(pot(), points=1)


# --- the grid pricer against the point-by-point oracle -------------------------

GRID_POINTS = (2, 3, 1000, 100_000)


def assert_grid_is_pointwise(s, lam, Lam, points=GRID_POINTS):
    for p in points:
        want = grid_ratio_pointwise(s.turns, s.terminal, lam, Lam, p)
        assert grid_sweep_ratio(s, lam, Lam, p) == want, (p, lam, Lam, s.n)


def test_grid_is_pointwise_on_random_strategies():
    rng = random.Random(31)
    for _ in range(8):
        lam = 10.0 ** rng.uniform(-3.0, 3.0)
        turns, t = [], lam * rng.uniform(1.0, 2.0)
        for _ in range(rng.randint(0, 40)):
            turns.append(t)
            t *= rng.uniform(1.01, 3.0)
        Lam = t
        s = Strategy(turns=tuple(turns), terminal=Lam, lambda_=lam)
        # Also price a sub-range that starts between two turns.
        for lo in (lam, lam * rng.uniform(1.0, Lam / lam)):
            assert_grid_is_pointwise(s, lo, Lam)


@pytest.mark.parametrize(
    "log2_rho,eps",
    [(0.3, 1e-9), (2.5, 1e-9), (10.7, 1e-9), (57.2, 1e-9), (300.9, 1e-6), (400.4, 1e-3), (999.5, 1e-9)],
)
def test_grid_is_pointwise_on_optimal_strategies(log2_rho, eps):
    rep = optimize(SearchProblem.from_log2_rho(log2_rho, 1.5, eps))
    assert_grid_is_pointwise(rep.strategy, 1.5, rep.strategy.terminal)


def test_grid_is_pointwise_on_edges():
    # lambda = Lambda: every grid point is the one distance.
    s = Strategy(turns=(2.0, 5.0), terminal=8.0, lambda_=1.0)
    for d in (1.0, 2.0, 3.5, 8.0):
        assert_grid_is_pointwise(s, d, d)
    # A strategy with no turns at all.
    assert_grid_is_pointwise(baselines("single_shot", 1.0, 7.0), 1.0, 7.0)
    # Lambda past the terminal within the 1e-12 slack: the points beyond
    # it are served by the terminal.
    Lam = 8.0 * (1.0 + 5e-13)
    assert_grid_is_pointwise(s, 1.0, Lam)
    assert grid_sweep_ratio(s, Lam, Lam, 2) == 2.0 * 15.0 / Lam + 1.0
    # A turn exactly on a grid point belongs to the run it closes; a turn a
    # double below one leaves that point to the next run.  The far terminal
    # puts the largest ratio on the first point past the turn.
    for p in GRID_POINTS:
        grid = GeometricGrid(1.0, 8.0, p)
        for k in sorted({0, 1, p - 2} | set(range(p // 7, p - 2, max(1, p // 7)))):
            for turn in (grid[k], math.nextafter(grid[k], 0.0)):
                if turn >= 1.0:
                    t = Strategy(turns=(turn,), terminal=1e3, lambda_=1.0)
                    assert_grid_is_pointwise(t, 1.0, 8.0, (p,))


def test_geometric_grid_points():
    g = GeometricGrid(2.0, 1e300, 1000)
    pts = list(g)
    assert len(pts) == len(g) == 1000
    assert pts[0] == 2.0 and pts[-1] == g[999] == 1e300
    assert all(a < b for a, b in zip(pts, pts[1:]))
    assert pts[500] == 2.0 * math.exp(500 * (math.log(1e300 / 2.0) / 999))
    assert list(GeometricGrid(3.0, 9.0, 1)) == [3.0]
    with pytest.raises(IndexError):
        g[1000]
    # hi / lo beyond double range: points still run from lo to hi.
    wide = list(GeometricGrid(1e-300, 1e300, 50))
    assert wide[0] == 1e-300 and wide[-1] == 1e300
    assert all(a < b for a, b in zip(wide, wide[1:]))


def test_grid_cost_does_not_grow_with_points():
    rep = optimize(SearchProblem(1.0, 2.0**200))
    sup = worst_case_ratio(rep.strategy).sup_ratio
    grid = grid_sweep_ratio(rep.strategy, points=10**15)  # would never finish point by point
    assert sup - 1e-9 <= grid <= sup + 1e-12


def test_grid_beyond_double_ratio():
    rep = optimize(SearchProblem(1e-300, 1e300))
    sup = worst_case_ratio(rep.strategy).sup_ratio
    assert sup - 1e-3 <= grid_sweep_ratio(rep.strategy) <= sup + 1e-12


# --- baselines -----------------------------------------------------------------


def test_baseline_power_of_two():
    s = baselines("power_of_two", 1.0, 10.0)
    assert s.turns == (1.0, 2.0, 4.0, 8.0)
    assert s.terminal == 10.0


def test_baseline_f_infinity():
    # Truncation keeps every turn strictly below Lambda: 80 < 100 stays.
    s = baselines("f_infinity", 1.0, 100.0)
    assert s.turns == (4.0, 12.0, 32.0, 80.0)


def test_baseline_single_shot():
    s = baselines("single_shot", 1.0, 7.0)
    assert s.turns == () and s.terminal == 7.0


def test_baseline_los_sqrt():
    s = baselines("los_sqrt", 1.0, 40.0)
    expected = [math.sqrt(1.0 + 0.5 * i) * 2.0**i for i in range(5)]
    expected = [v for v in expected if v < 40.0]
    assert list(s.turns) == pytest.approx(expected, rel=1e-15)


def test_baseline_unknown():
    with pytest.raises(ValueError):
        baselines("sqrt_of_two", 1.0, 10.0)


# --- property-based -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.floats(min_value=1.01, max_value=2.0), min_size=1, max_size=8),
    head=st.floats(min_value=0.1, max_value=3.0),
)
def test_worst_ratio_vs_brute_property(data, head):
    lam = 1.0
    turns = []
    cur = 1.0 + head
    for step in data:
        turns.append(cur)
        cur *= step
    Lam = cur
    s = Strategy(turns=tuple(turns), terminal=Lam, lambda_=lam)
    exact = worst_case_ratio(s, lam, Lam).sup_ratio
    brute = brute_worst_ratio(turns, Lam, lam, Lam, grid=2500)
    assert brute <= exact + 1e-9
    assert brute >= exact * (1.0 - 2e-3)
