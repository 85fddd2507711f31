import math
import pickle
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesearch import simulate
from linesearch.optimal import SearchProblem, Strategy, optimize
from linesearch.simulate import (
    BASELINES,
    GeometricGrid,
    IncompleteStrategyError,
    RatioReport,
    baseline_ratios,
    baselines,
    grid_sweep_ratio,
    worst_case_ratio,
)
from linesearch.solve import MODE_EXACT, MODE_LIMIT, MODE_NUMERIC

from _oracles import (
    brute_worst_ratio,
    grid_ratio_pointwise,
    worst_case_ratio_loop,
    worst_orientation_cost,
)


def pot(lam=1.0, Lam=10.0):
    return baselines("power_of_two", lam, Lam)


# --- cost --------------------------------------------------------------------


def test_cost_power_of_two_example():
    # The brute-force checks below price targets with this walk.
    s = pot()
    assert worst_orientation_cost(list(s.turns), s.terminal, 5.0) == 35.0  # 2(1+2+4+8) + 5
    # Just above the turn at 4 the turn at 8 serves: (2(1+2+4+8) + 4) / 4.
    assert worst_case_ratio(s).per_interval[3] == ((4.0, 8.0), 8.5)


def test_cost_at_first_turn():
    # A target on the first turn is found there: (2 * 3 + 3) / 3.
    s = Strategy(turns=(3.0, 6.0), terminal=9.0, lambda_=1.0)
    assert worst_case_ratio(s, 3.0, 9.0).per_interval[0] == ((3.0, 6.0), 3.0)


def test_cost_single_shot():
    # Out to Lambda = 7 on the wrong side first: (2 * 7 + D) / D peaks at D = 1.
    s = baselines("single_shot", 1.0, 7.0)
    assert worst_case_ratio(s).per_interval == (((1.0, 7.0), 15.0),)


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


@pytest.mark.parametrize(
    "turns, terminal, lam, where",
    [
        ((2.0, math.nan, 8.0), 10.0, 1.0, "turn 1"),
        ((2.0, 8.0, math.inf), 10.0, 1.0, "turn 2"),
        ((-math.inf, 2.0), 10.0, 1.0, "turn 0"),
        ((2.0, 8.0), math.nan, 1.0, "terminal"),
        ((2.0, 8.0), math.inf, 1.0, "terminal"),
        ((2.0, 8.0), 10.0, math.nan, "lambda"),
        ((), 10.0, math.inf, "lambda"),
    ],
)
def test_validate_refuses_non_finite_distances(turns, terminal, lam, where):
    s = Strategy(turns=turns, terminal=terminal, lambda_=lam)
    for check in (s.validate, lambda: worst_case_ratio(s, 1.0, 5.0),
                  lambda: grid_sweep_ratio(s, 1.0, 5.0, 100)):
        with pytest.raises(ValueError, match="finite") as err:
            check()
        assert where in str(err.value) and "\n" not in str(err.value)


def assert_refused(s, lam, Lam, where):
    """validate and both pricers raise one line that names the broken link."""
    for check in (s.validate, lambda: worst_case_ratio(s, lam, Lam),
                  lambda: grid_sweep_ratio(s, lam, Lam, 1000)):
        with pytest.raises(ValueError) as err:
            check()
        assert where in str(err.value) and "\n" not in str(err.value)


# Turns that dip: below lambda, and below the turn before, also down to an
# earlier turn's value, each by 5e-9 or less.
DIPS = Strategy(
    turns=(1.0 - 5e-9, 2.0, 2.0 + 5e-9, 2.0, 3.0, 3.0 - 5e-9, 6.0, 6.0, 6.0 - 1e-9, 9.0),
    terminal=10.0,
    lambda_=1.0,
)

# DIPS with each turn raised to lambda and to every turn before it: the
# nearest chain, with an equal-turn run where DIPS dips.
RAISED_DIPS = Strategy(
    turns=(1.0, 2.0, 2.0 + 5e-9, 2.0 + 5e-9, 3.0, 3.0, 6.0, 6.0, 6.0, 9.0),
    terminal=10.0,
    lambda_=1.0,
)

# (label, strategy, lam, Lam, the link named): every strategy that breaks the
# chain 0 < lambda <= t_0 <= ... <= terminal, by however little, is refused.
BROKEN_CHAINS = [
    ("a 60% dip at terminal 1e10",
     Strategy(turns=(5.0, 2.0, 40.0), terminal=1e10, lambda_=1.0), 1.0, 1e10, "turn 1"),
    ("a dip at terminal 1e300",
     Strategy(turns=(1.5e291, 0.6e291, 2e291), terminal=1e300, lambda_=1.0), 1.0, 1e300, "turn 1"),
    ("a turn below lambda", Strategy(turns=(0.5, 2.0), terminal=8.0, lambda_=1.0), 1.0, 8.0,
     "turn 0"),
    ("a turn an ulp below lambda",
     Strategy(turns=(math.nextafter(3.0, 0.0), 5.0), terminal=8.0, lambda_=3.0), 3.0, 8.0,
     "turn 0"),
    ("lambda = 0", Strategy(turns=(2.0,), terminal=8.0, lambda_=0.0), 1.0, 8.0, "lambda"),
    ("lambda < 0", Strategy(turns=(), terminal=8.0, lambda_=-1.0), 1.0, 8.0, "lambda"),
    ("a terminal below the last turn", Strategy(turns=(2.0, 9.0), terminal=8.0, lambda_=1.0),
     1.0, 8.0, "terminal"),
    ("a terminal below lambda", Strategy(turns=(), terminal=8.0, lambda_=9.0), 1.0, 8.0,
     "terminal"),
    ("dips", DIPS, 1.0, 10.0, "turn 0"),
    ("dips, lam inside", DIPS, 2.5, 10.0, "turn 0"),
    ("dips, lam inside a dip", DIPS, 2.0 + 2e-9, 10.0, "turn 0"),
    ("a dip under lam", Strategy(turns=(4.0 + 5e-9, 4.0, 8.0), terminal=8.0, lambda_=1.0),
     4.0 + 2e-9, 8.0, "turn 1"),
    ("a dip below Lam", Strategy(turns=(1.5, 3.0, 3.0 - 5e-9, 6.0), terminal=8.0, lambda_=1.0),
     1.0, 8.0, "turn 2"),
    ("a dip after Lam", Strategy(turns=(2.0, 5.0, 8.0, 8.0 - 5e-9), terminal=8.0, lambda_=1.0),
     1.0, 8.0, "turn 3"),
    # A first turn at or below 0 lies below lambda, however large the
    # terminal; one after a positive turn breaks monotonicity.
    ("a first turn at 0", Strategy(turns=(0.0, 5.0), terminal=1e9, lambda_=1e-3), 1e-3, 1e9,
     "turn 0 is below lambda"),
    ("a negative first turn", Strategy(turns=(-0.5, 5.0), terminal=1e9, lambda_=1e-3), 1e-3, 1e9,
     "turn 0 is below lambda"),
    ("a negative turn after a positive one",
     Strategy(turns=(1e-10, -1e-10, 0.5), terminal=1.0, lambda_=1e-10), 1e-10, 1.0,
     "turn 1 breaks monotonicity"),
]


@pytest.mark.parametrize("label, s, lam, Lam, where", BROKEN_CHAINS,
                         ids=[c[0] for c in BROKEN_CHAINS])
def test_validate_refuses_a_broken_chain(label, s, lam, Lam, where):
    assert_refused(s, lam, Lam, where)


def test_grid_needs_two_points():
    with pytest.raises(ValueError):
        grid_sweep_ratio(pot(), points=1)


# --- the C-level passes against the turn-by-turn references --------------------

# (log2 rho, lambda, eps, mode, capped): optimize() output in every solve mode;
# "capped" marks a limit-mode strategy whose top turn was cut back to Lambda.
OPTIMAL_CASES = [
    (0.0, 1.0, 1e-9, MODE_EXACT, False),
    (0.3, 1.0, 1e-9, MODE_EXACT, False),
    (2.5, 1.5, 1e-9, MODE_EXACT, False),
    (10.7, 1.0, 1e-9, MODE_NUMERIC, False),
    (57.2, 1.5, 1e-9, MODE_NUMERIC, False),
    (300.9, 1e-200, 1e-6, MODE_NUMERIC, False),
    (999.5, 1.0, 1e-9, MODE_NUMERIC, False),
    (71.0, 1.0, 1e-3, MODE_LIMIT, True),
    (400.9, 3.0, 1e-3, MODE_LIMIT, False),
    (900.5, 1.0, 1e-3, MODE_LIMIT, True),
    (117.3, 1.0, 1e-3, MODE_LIMIT, True),
]


def _optimal_report(log2_rho, lam, eps):
    return optimize(SearchProblem.from_log2_rho(log2_rho, lam, eps))


def test_optimal_cases_cover_every_mode_and_a_capped_tail():
    for log2_rho, lam, eps, mode, capped in OPTIMAL_CASES:
        rep = _optimal_report(log2_rho, lam, eps)
        assert rep.mode == mode
        assert (rep.strategy.turns[-1:] == (rep.strategy.terminal,)) == capped


# Strategies whose grid maximum sits at lam, with every later run pruned
# (2 * 10 + 1 = 21 at lam = 1, each later bound at most 2 * 30 / 10 + 1 = 7),
# or just past it.  FIRST_BELOW_LAM is priced from lam = 1e-3, above its
# lambda and its first turn: the next run holds lam.  BY_AN_ULP's first turn
# lies a double below point 408 of the 1000 from 1 to 30, and its second
# makes that point price one ulp above the ratio at lam, 2 t_0 + 1: the
# run's bound beats that ratio by two ulps.
ALL_PRUNED = Strategy(turns=(10.0, 20.0, 40.0, 80.0), terminal=160.0, lambda_=1.0)
FIRST_BELOW_LAM = Strategy(turns=(5e-4, 5.0), terminal=1e9, lambda_=5e-4)
BY_AN_ULP = Strategy(turns=(4.0111485001551275, 12.078163790141607), terminal=30.0, lambda_=1.0)


def _pricing_cases():
    """(label, strategy, lam, Lam) for the bit-for-bit comparisons."""
    cases = []
    for log2_rho, lam, eps, _, _ in OPTIMAL_CASES:
        s = _optimal_report(log2_rho, lam, eps).strategy
        cases.append((f"optimal({log2_rho}, {lam}, {eps})", s, s.lambda_, s.terminal))
    for lam, Lam in ((1.0, 10.0), (1.0, 1e6), (1.0, 1e300), (3.0, 3.0 * 2.0**40), (1e-300, 1e-10)):
        for name in ("power_of_two", "f_infinity", "los_sqrt", "single_shot"):
            cases.append((f"{name}({lam}, {Lam})", baselines(name, lam, Lam), lam, Lam))
    runs = Strategy(turns=(2.0, 2.0, 5.0, 5.0, 5.0, 7.0), terminal=8.0, lambda_=1.0)
    on_lambda = Strategy(turns=(1.0, 3.0), terminal=6.0, lambda_=1.0)
    on_big_lambda = Strategy(turns=(2.0, 6.0), terminal=6.0, lambda_=1.0)
    long_tail = Strategy(turns=(1.5, 2.0, 4.0, 8.0, 12.0), terminal=20.0, lambda_=1.0)
    cases += [
        ("equal-turn runs", runs, 1.0, 8.0),
        ("equal-turn runs, lam on a run", runs, 5.0, 8.0),
        # The dip cases, raised onto the chain (each dipping one is refused).
        ("dips", RAISED_DIPS, 1.0, 10.0),
        ("dips, lam inside", RAISED_DIPS, 2.5, 10.0),
        ("dips, lam inside a dip", RAISED_DIPS, 2.0 + 2e-9, 10.0),
        # The next turn is served past the equal copy, not from lam below it.
        ("a dip under lam",
         Strategy(turns=(4.0 + 5e-9, 4.0 + 5e-9, 8.0), terminal=8.0, lambda_=1.0), 4.0 + 2e-9, 8.0),
        ("lambda on a turn", on_lambda, 1.0, 6.0),
        ("Lambda on a turn", on_big_lambda, 1.0, 6.0),
        ("lam above the first turn", long_tail, 2.5, 20.0),
        ("lam on a later turn", long_tail, 4.0, 20.0),
        ("Lam below the terminal", long_tail, 1.0, 10.0),
        ("lam = Lam", long_tail, 3.0, 3.0),
        ("every later grid run pruned", ALL_PRUNED, 1.0, 160.0),
        ("a first turn in (0, lambda)", FIRST_BELOW_LAM, 1e-3, 1e9),
        ("a grid run beats lam by an ulp", BY_AN_ULP, 1.0, 30.0),
        ("no turns", baselines("single_shot", 1.0, 7.0), 1.0, 7.0),
        ("no turns, lam = Lam", baselines("single_shot", 2.0, 2.0), 2.0, 2.0),
    ]
    return cases


PRICING_CASES = _pricing_cases()


@pytest.mark.parametrize("label, s, lam, Lam", PRICING_CASES, ids=[c[0] for c in PRICING_CASES])
def test_worst_case_ratio_is_the_loop_reference(label, s, lam, Lam):
    report = worst_case_ratio(s, lam, Lam)
    want = worst_case_ratio_loop(s.turns, s.terminal, lam, Lam)
    assert (report.sup_ratio, report.argmax_interval, report.per_interval) == want


# Walks of turns from lambda = 1 that rise and repeat, priced over a range
# [lam, Lam] anywhere inside [lambda, terminal].
WALKS = dict(
    head=st.floats(min_value=1.0, max_value=3.0),
    moves=st.lists(st.sampled_from(["same", "up", "up", "up"]), max_size=25),
    steps=st.lists(st.floats(min_value=1.0, max_value=3.0), min_size=25, max_size=25),
    lo=st.floats(min_value=0.0, max_value=1.0),
    hi=st.floats(min_value=0.0, max_value=1.0),
)


def walk(head, moves, steps, lo, hi):
    """(strategy, lam, Lam) for one draw of WALKS."""
    turns, t = [], head
    for move, step in zip(moves, steps):
        turns.append(t)
        if move == "up":
            t *= step
    terminal = max([*turns, 1.0]) * 3.0
    s = Strategy(turns=tuple(turns), terminal=terminal, lambda_=1.0)
    return s, terminal ** min(lo, hi), terminal ** max(lo, hi)


@settings(max_examples=150, deadline=None)
@given(**WALKS)
def test_worst_case_ratio_is_the_loop_reference_property(head, moves, steps, lo, hi):
    s, lam, Lam = walk(head, moves, steps, lo, hi)
    report = worst_case_ratio(s, lam, Lam)
    want = worst_case_ratio_loop(s.turns, s.terminal, lam, Lam)
    assert (report.sup_ratio, report.argmax_interval, report.per_interval) == want


@pytest.mark.parametrize("bound", [("Lambda", 1e308), ("log2_rho", 1023.5), ("log2_rho", 1023.89)])
def test_top_of_double_range_prices_in_scaled_units(bound):
    # Twice the sum of the turns overflows here, so the loop reference gives
    # inf at the late breakpoints.  The package prices in units of a power
    # of two: each ratio is that of the strategy scaled down by 2^-16, and
    # every ratio the reference could give finitely is unchanged.
    kind, value = bound
    problem = (SearchProblem(1.0, value) if kind == "Lambda"
               else SearchProblem.from_log2_rho(value))
    rep = optimize(problem)
    s = rep.strategy
    report = worst_case_ratio(s)
    assert abs(report.sup_ratio - rep.cr) <= rep.cr_error_bound
    down = s.scaled(2.0**-16)
    sup, best, entries = worst_case_ratio_loop(
        down.turns, down.terminal, down.lambda_, down.terminal
    )
    assert (report.sup_ratio, report.argmax_interval) == (sup, best)
    assert [r for _, r in report.per_interval] == [r for _, r in entries]
    assert [bounds for bounds, _ in report.per_interval] == [
        (lo * 2.0**16, hi * 2.0**16) for (lo, hi), _ in entries
    ]
    _, _, unscaled = worst_case_ratio_loop(s.turns, s.terminal, s.lambda_, s.terminal)
    assert math.inf in [r for _, r in unscaled]
    assert all(r == mine for (_, r), (_, mine) in zip(unscaled, report.per_interval)
               if math.isfinite(r))
    for points in (2, 1000, 100_000):
        assert grid_sweep_ratio(s, points=points) == grid_ratio_pointwise(
            down.turns, down.terminal, down.lambda_, down.terminal, points
        )


@pytest.mark.parametrize("lam", [2.0**-1022, 3e-308, 1e-307])
def test_only_the_late_sums_are_scaled(lam):
    # rho is near 2^2046: scaling every reach down would take lam and the
    # early turns below the normal range.  The early ratios are the loop
    # reference's unscaled ones, and the ratios it gives as inf are those of
    # the strategy scaled down by 2^-16, where the late turns stay normal.
    rep = optimize(SearchProblem(lam, 1.7e308))
    s = rep.strategy
    assert rep.n > 2040
    report = worst_case_ratio(s)
    assert abs(report.sup_ratio - rep.cr) <= rep.cr_error_bound
    _, _, unscaled = worst_case_ratio_loop(s.turns, s.terminal, s.lambda_, s.terminal)
    down = s.scaled(2.0**-16)
    _, _, late = worst_case_ratio_loop(down.turns, down.terminal, down.lambda_, down.terminal)
    want = [u if math.isfinite(u) else d for (_, u), (_, d) in zip(unscaled, late)]
    assert math.inf in [u for _, u in unscaled] and math.isfinite(max(want))
    assert list(report.interval_sups) == want
    assert rep.cr - 1e-3 <= grid_sweep_ratio(s, points=1000) <= report.sup_ratio


@pytest.fixture
def branches(monkeypatch):
    """The slow branches a pricing call takes, read off helpers only they call.

    "compress": worst_case_ratio keeps the last copy of equal turns in its slice.
    "first_above": the grid bisects for a run's first point.
    """
    seen = set()
    compress = simulate.compress
    monkeypatch.setattr(simulate, "compress", lambda *args: seen.add("compress") or compress(*args))
    first_above = GeometricGrid.first_above
    monkeypatch.setattr(
        GeometricGrid, "first_above", lambda grid, b: seen.add("first_above") or first_above(grid, b)
    )
    return seen


_ON_GRID = GeometricGrid(1.0, 8.0, 1000)[21]  # its guess is 21.99999...: k = 21 fails the check
_TAIL = Strategy(turns=(1.5, 2.0, 4.0, 8.0, 12.0), terminal=20.0, lambda_=1.0)

# (label, strategy, lam, Lam, grid points, branches of worst_case_ratio, of grid_sweep_ratio)
BRANCH_CASES = [
    ("optimal, n = 999", _optimal_report(999.5, 1.0, 1e-9).strategy, None, None, 100_000,
     set(), set()),
    ("optimal, capped at Lambda", _optimal_report(71.0, 1.0, 1e-3).strategy, None, None, 1000,
     set(), set()),
    ("strictly increasing, lam and Lam on turns", _TAIL, 2.0, 8.0, 1000, set(), set()),
    ("strictly increasing, lam = Lam on a turn", _TAIL, 4.0, 4.0, 2, set(), set()),
    ("equal turns from Lam on", Strategy(turns=(1.5, 3.0, 6.0, 6.0), terminal=6.0, lambda_=1.0),
     1.0, 6.0, 1000, set(), set()),
    ("an equal-turn run below Lam",
     Strategy(turns=(1.5, 3.0, 3.0, 6.0), terminal=8.0, lambda_=1.0), 1.0, 8.0, 1000,
     {"compress"}, set()),
    ("a turn on a grid point", Strategy(turns=(_ON_GRID,), terminal=1e3, lambda_=1.0),
     1.0, 8.0, 1000, set(), {"first_above"}),
]


@pytest.mark.parametrize(
    "label, s, lam, Lam, points, wcr_branches, grid_branches", BRANCH_CASES,
    ids=[c[0] for c in BRANCH_CASES],
)
def test_each_branch_is_the_loop_reference(
    branches, label, s, lam, Lam, points, wcr_branches, grid_branches
):
    lo = s.lambda_ if lam is None else lam
    hi = s.terminal if Lam is None else Lam
    sup, best, table = worst_case_ratio_loop(s.turns, s.terminal, lo, hi)
    want_grid = grid_ratio_pointwise(s.turns, s.terminal, lo, hi, points)
    report = worst_case_ratio(s, lam, Lam)
    assert branches == wcr_branches
    assert (report.sup_ratio, report.argmax_interval) == (sup, best)
    assert report.interval_sups == tuple(r for _, r in table)
    assert report.per_interval == table
    assert (report.lam, report.Lam) == (lo, hi)
    branches.clear()
    assert grid_sweep_ratio(s, lam, Lam, points) == want_grid
    assert branches == grid_branches


def test_scaled_units_take_the_slice(branches):
    # At Lambda = 1e308 twice the sum of the reaches overflows: both pricers
    # work in units of 2^-16, on the same branches as unscaled turns.
    s = optimize(SearchProblem(1.0, 1e308)).strategy
    down = s.scaled(2.0**-16)
    sup, best, entries = worst_case_ratio_loop(down.turns, down.terminal, down.lambda_, down.terminal)
    report = worst_case_ratio(s)
    assert (report.sup_ratio, report.argmax_interval) == (sup, best)
    assert report.interval_sups == tuple(r for _, r in entries)
    assert report.per_interval == tuple(
        ((a * 2.0**16, b * 2.0**16), r) for (a, b), r in entries
    )
    assert grid_sweep_ratio(s, points=1000) == grid_ratio_pointwise(
        down.turns, down.terminal, down.lambda_, down.terminal, 1000
    )
    assert branches == set()


def test_report_parts_and_tables_compare_alike():
    # The table is built from the record's own fields on each read, so
    # reading it changes nothing the record compares, hashes or prints by.
    s = optimize(SearchProblem(1.0, 1e6)).strategy
    fresh, read = worst_case_ratio(s), worst_case_ratio(s)
    table = read.per_interval
    assert fresh == read and hash(fresh) == hash(read) and repr(fresh) == repr(read)
    assert pickle.loads(pickle.dumps(read)) == fresh
    assert read.per_interval == table
    assert read.interval_sups == tuple(r for _, r in table)
    assert read.breakpoints == tuple(lo for (lo, _), _ in table[1:])
    built = RatioReport(*(getattr(read, f) for f in RatioReport.__slots__))
    assert built == fresh and built.per_interval == table


# --- the grid pricer against the point-by-point oracle -------------------------

GRID_POINTS = (2, 3, 1000, 100_000)


def assert_grid_is_pointwise(s, lam, Lam, points=GRID_POINTS):
    for p in points:
        want = grid_ratio_pointwise(s.turns, s.terminal, lam, Lam, p)
        assert grid_sweep_ratio(s, lam, Lam, p) == want, (p, lam, Lam, len(s.turns))


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


@pytest.mark.parametrize("label, s, lam, Lam", PRICING_CASES, ids=[c[0] for c in PRICING_CASES])
def test_grid_is_pointwise_on_pricing_cases(label, s, lam, Lam):
    assert_grid_is_pointwise(s, lam, Lam)


def test_grid_is_pointwise_on_edges():
    # lambda = Lambda: every grid point is the one distance.
    s = Strategy(turns=(2.0, 5.0), terminal=8.0, lambda_=1.0)
    for d in (1.0, 2.0, 3.5, 8.0):
        assert_grid_is_pointwise(s, d, d)
    # A strategy with no turns at all.
    assert_grid_is_pointwise(baselines("single_shot", 1.0, 7.0), 1.0, 7.0)
    # Lambda one ulp past the terminal: the strategy does not cover it.
    Lam = math.nextafter(8.0, math.inf)
    for check in (lambda: worst_case_ratio(s, 1.0, Lam), lambda: grid_sweep_ratio(s, 1.0, Lam)):
        with pytest.raises(IncompleteStrategyError, match="does not cover"):
            check()
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


@pytest.mark.parametrize("lo, hi, points, ks", [
    (1.0, 8.0, 2, (0, 1)),
    (1.0, 8.0, 3, (0, 1, 2)),
    (1.0, 8.0, 1000, (0, 1, 2, 500, 997, 998, 999)),
    (1e-3, 1e100, 100_000, (0, 1, 60_000, 99_998, 99_999)),
    # hi / lo overflows, and the formula's exp(ln lo) is an ulp above lo.
    (1e-300, 1e300, 1000, (0, 1, 2)),
])
def test_a_run_found_from_its_guessed_index_is_pointwise(lo, hi, points, ks):
    # A turn a double below a point, on it and a double above it, so the
    # guessed k is the index of that point or the next: k - 1 = 0 from lo on,
    # k = P - 1 below hi.  A far terminal puts the largest ratio on the first
    # point past the turn, so the run is priced, not skipped.
    grid = GeometricGrid(lo, hi, points)
    turns = {math.nextafter(grid[k], to) for k in ks for to in (0.0, math.inf)}
    turns |= {grid[k] for k in ks}
    priced = 0
    for t in sorted(b for b in turns if lo <= b < hi):
        terminal = max(4.0 * t * (grid.first_above(t)[1] / lo), hi)
        s = Strategy(turns=(t,), terminal=terminal, lambda_=lo)
        got = grid_sweep_ratio(s, lo, hi, points)
        assert got == grid_ratio_pointwise(s.turns, s.terminal, lo, hi, points), t
        priced += got > 2.0 * t / lo + 1.0
    assert priced >= len(ks)


def test_a_turn_on_lo_keeps_its_guess_where_hi_over_lo_overflows(branches):
    # exp(ln lo) is an ulp above lo here, but d_0 is lo itself, so the
    # guess k = 1 stands and the grid does not bisect.
    lo, hi = 1e-300, 1e300
    assert math.exp(math.log(lo)) > lo and hi / lo == math.inf
    s = Strategy(turns=(lo, 2e-299), terminal=hi, lambda_=lo)
    got = grid_sweep_ratio(s, lo, hi, 1000)
    assert got == grid_ratio_pointwise(s.turns, s.terminal, lo, hi, 1000) > 3.0
    assert branches == set()


@pytest.mark.parametrize("s", [
    Strategy(turns=(1.5, 8.0), terminal=8.0, lambda_=1.0),  # capped at Lambda
    Strategy(turns=(1.5, 8.0, 8.0), terminal=8.0, lambda_=1.0),
    Strategy(turns=(1.5, 7.99, 8.0), terminal=1e3, lambda_=1.0),
    Strategy(turns=(2.0, 10.0), terminal=1e3, lambda_=1.0),  # past Lambda
    Strategy(turns=(1.5, 8.0, 50.0), terminal=1e3, lambda_=1.0),
])
@pytest.mark.parametrize("points", [2, 3, 1000])
def test_a_turn_at_or_above_hi_has_no_point_to_find(s, points):
    assert grid_sweep_ratio(s, 1.0, 8.0, points) == grid_ratio_pointwise(
        s.turns, s.terminal, 1.0, 8.0, points)


# --- the pruned grid -------------------------------------------------------------
#
# The grid prices lam first and finds a first point only for the runs whose
# bound 2 S / max(peak, lam) / u + 1 beats it.


def ratio_at(s, d):
    """The grid's ratio at the one point d, from the oracle."""
    return grid_ratio_pointwise(s.turns, s.terminal, d, d, 2)


@pytest.mark.parametrize(
    "label, s, lam, Lam, past_lam",
    [
        ("a turn on a grid point", Strategy(turns=(_ON_GRID,), terminal=1e3, lambda_=1.0),
         1.0, 8.0, True),
        ("power_of_two", pot(1.0, 1e6), 1.0, 1e6, True),
        ("by an ulp", BY_AN_ULP, 1.0, 30.0, True),
        ("a first turn in (0, lambda)", FIRST_BELOW_LAM, 1e-3, 1e9, True),
        ("dips", RAISED_DIPS, 1.0, 10.0, True),
        ("every later run pruned", ALL_PRUNED, 1.0, 160.0, False),
    ],
)
def test_the_pruning_cases_hold_their_maximum_where_they_say(label, s, lam, Lam, past_lam):
    # Each is one of PRICING_CASES or BRANCH_CASES, checked against the
    # point-by-point oracle there; here a run past lam beats it, or none does.
    got = grid_sweep_ratio(s, lam, Lam, 1000)
    assert got == grid_ratio_pointwise(s.turns, s.terminal, lam, Lam, 1000)
    assert (got > ratio_at(s, lam)) == past_lam


def test_pruned_grid_is_pointwise_on_random_strategies():
    rng = random.Random(19)
    past_lam = 0
    for _ in range(200):
        lam = 10.0 ** rng.uniform(-3.0, 3.0)
        turns, t = [], lam * rng.uniform(1.0, 3.0)
        for _ in range(rng.randint(0, 30)):
            turns.append(t)
            if rng.random() > 0.2:  # or repeat the turn
                t *= rng.uniform(1.0, 4.0)
        s = Strategy(turns=tuple(turns), terminal=t * rng.uniform(1.0, 3.0), lambda_=lam)
        lo = lam * (s.terminal / lam) ** rng.choice([0.0, rng.random()])
        points = rng.choice([2, 3, 10, 1000])
        got = grid_sweep_ratio(s, lo, s.terminal, points)
        assert got == grid_ratio_pointwise(s.turns, s.terminal, lo, s.terminal, points)
        past_lam += got > ratio_at(s, lo)
    assert 20 <= past_lam <= 180  # both outcomes of the pruning are drawn


@settings(max_examples=100, deadline=None)
@given(points=st.sampled_from([2, 3, 1000]), **WALKS)
def test_pruned_grid_is_pointwise_property(head, moves, steps, lo, hi, points):
    s, lam, Lam = walk(head, moves, steps, lo, hi)
    assert grid_sweep_ratio(s, lam, Lam, points) == grid_ratio_pointwise(
        s.turns, s.terminal, lam, Lam, points
    )


@pytest.fixture
def bounds_searched(monkeypatch):
    """The turns of the runs each grid_sweep_ratio call hands on to have their first point found."""
    seen = []
    near = simulate._runs_near_points

    def spy(grid, best, runs, turns, limits):
        kept = near(grid, best, runs, turns, limits)
        seen.append([turns[j - 1] for j, _ in kept])
        return kept

    monkeypatch.setattr(simulate, "_runs_near_points", spy)
    return seen


def test_pruning_finds_no_point_where_lam_holds_the_maximum(bounds_searched):
    assert grid_sweep_ratio(ALL_PRUNED, points=1000) == 21.0
    assert sum(map(len, bounds_searched)) == 0


def test_pruning_searches_every_run_of_power_of_two(bounds_searched):
    # Its ratios grow run by run from 3 at lam towards 9: nothing to prune.
    s = pot(1.0, 1e6)
    grid_sweep_ratio(s, points=1000)
    assert bounds_searched == [list(s.turns)]


def one_ulp_winner(grid, k):
    """(t, u) over lam = grid.lo: d_k is one double above t, and prices one ulp above lam.

    lam's ratio is 2 t / lam + 1; u serves d_k, at 2 (t + u) / d_k + 1, and
    reaches past the grid, so no later run has a point.  None where no u
    near t (d_k / lam - 1) prices d_k at exactly that ulp, or covers hi.
    """
    lam, d = grid.lo, grid[k]
    t = math.nextafter(d, 0.0)
    target = math.nextafter(2.0 * t / lam + 1.0, math.inf)
    u = t * (d / lam - 1.0)
    for _ in range(8):
        r = 2.0 * (t + u) / d + 1.0
        if r != target:
            u = math.nextafter(u, 0.0 if r > target else math.inf)
    if 2.0 * (t + u) / d + 1.0 != target or not u >= max(grid.hi, t):
        return None
    return Strategy(turns=(t, u), terminal=u, lambda_=lam)


@pytest.mark.parametrize("lam, Lam, points, ks", [
    (1.0, 8.0, 3, (2,)),
    (1.0, 8.0, 1000, range(500, 1000, 25)),
    (1.0, 1e150, 1000, range(500, 1000, 25)),
    (1e-300, 1e-100, 1000, range(500, 1000, 25)),
    (1e-3, 1e100, 100_000, (60_000, 99_998, 99_999)),
])
def test_a_run_that_wins_by_an_ulp_one_ulp_past_its_turn_is_priced(lam, Lam, points, ks):
    # The tightest case for the runs the grid skips: the window in which a
    # point can beat lam is an ulp wide, and the point lies an ulp into it.
    grid = GeometricGrid(lam, Lam, points)
    built = 0
    for k in ks:
        s = one_ulp_winner(grid, k)
        if s is None:
            continue
        built += 1
        want = grid_ratio_pointwise(s.turns, s.terminal, lam, Lam, points)
        assert want == math.nextafter(2.0 * s.turns[0] / lam + 1.0, math.inf)
        assert grid_sweep_ratio(s, lam, Lam, points) == want, k
    assert built >= len(ks) * 2 // 3


def test_the_optimum_at_1e300_leaves_almost_no_run_to_find(bounds_searched, monkeypatch):
    # 323 runs' limit ratios beat lam's by a few ulps; their first points
    # all lie too far above their turns to price above it.
    s = optimize(SearchProblem(1.0, 1e300)).strategy
    got = grid_sweep_ratio(s)
    assert sum(map(len, bounds_searched)) <= 3
    bounds_searched.clear()
    monkeypatch.setattr(simulate, "_LOG_SLACK", math.inf)  # no run is too far from a point
    assert grid_sweep_ratio(s) == got
    assert sum(map(len, bounds_searched)) == 323


# --- one validation and one set of sums per strategy --------------------------------


def copy_of(s):
    return Strategy(turns=s.turns, terminal=s.terminal, lambda_=s.lambda_)


def test_pricing_one_strategy_after_another_is_pricing_fresh_copies():
    a = optimize(SearchProblem(1.0, 1e40)).strategy
    b = optimize(SearchProblem(1.0, 1e308)).strategy  # its late sums are scaled
    calls = [
        (worst_case_ratio, a, ()), (worst_case_ratio, b, ()), (grid_sweep_ratio, a, ()),
        (grid_sweep_ratio, a, (2.0, 1e30, 1000)), (worst_case_ratio, a, (3.0, 1e20)),
        (grid_sweep_ratio, b, (1.0, 1e300, 1000)), (worst_case_ratio, b, ()),
    ]
    for price, s, args in calls:
        assert price(s, *args) == price(copy_of(s), *args), (price.__name__, args)


def oracle_pricing(s, lam, Lam, points):
    """((sup, argmax, per_interval), grid) of ``_oracles``, in the package's units.

    Where twice a sum overflows the loop references give inf; those ratios
    are the references' on the strategy scaled by the unit of its late sums.
    """
    _, _, entries = worst_case_ratio_loop(s.turns, s.terminal, lam, Lam)
    grid = grid_ratio_pointwise(s.turns, s.terminal, lam, Lam, points)
    unit = simulate._reach_sums(s)[1][-1]
    if unit != 1.0:
        down = s.scaled(unit)
        _, _, late = worst_case_ratio_loop(down.turns, down.terminal, lam * unit, Lam * unit)
        entries = tuple((bounds, r if math.isfinite(r) else d)
                        for (bounds, r), (_, d) in zip(entries, late))
        if grid == math.inf:
            grid = grid_ratio_pointwise(down.turns, down.terminal, lam * unit, Lam * unit, points)
    sups = [r for _, r in entries]
    return (max(sups), sups.index(max(sups)), entries), grid


def test_one_strategy_priced_over_many_ranges_reads_one_ratio_table():
    # Both pricers read the limit ratios built for the last strategy: over
    # sub-ranges that start and end on turns, between them and on one point,
    # for a strategy whose late sums are scaled, one with equal turns and an
    # optimum, alternated so the table is rebuilt and reused.
    big = optimize(SearchProblem(1.0, 1.7e308)).strategy
    equal = Strategy(turns=(1.5, 3.0, 3.0, 6.0, 6.0, 6.0, 12.0), terminal=20.0, lambda_=1.0)
    mid = optimize(SearchProblem(1.0, 1e40)).strategy
    assert math.inf in [r for _, r in worst_case_ratio_loop(
        big.turns, big.terminal, 1.0, big.terminal)[2]]
    ranges = {
        big: [(None, None), (big.turns[100], big.turns[900]), (3.0, 1e300),
              (big.turns[-3], big.terminal), (big.turns[-2], big.turns[-2]), (1e307, 1.6e308)],
        equal: [(None, None), (3.0, 6.0), (3.0, 12.0), (2.0, 7.0), (6.0, 6.0), (1.0, 3.0)],
        mid: [(None, None), (2.0, 1e30), (mid.turns[5], mid.turns[80]), (7.5, 7.5)],
    }
    calls = [(s, lam, Lam) for k in range(6) for s, todo in ranges.items()
             for lam, Lam in todo[k:k + 1]]
    for s, lam, Lam in calls + calls[::-1]:
        lo = s.lambda_ if lam is None else lam
        hi = s.terminal if Lam is None else Lam
        want_report, want_grid = oracle_pricing(s, lo, hi, 1000)
        for priced in (s, copy_of(s)):
            report = worst_case_ratio(priced, lam, Lam)
            assert (report.sup_ratio, report.argmax_interval, report.per_interval) == want_report
            assert grid_sweep_ratio(priced, lam, Lam, 1000) == want_grid, (lo, hi)


def test_an_invalid_strategy_raises_on_every_call():
    good = pot()
    bad = Strategy(turns=(5.0, 2.0), terminal=8.0, lambda_=1.0)
    for _ in range(2):
        for price in (worst_case_ratio, grid_sweep_ratio):
            price(good)
            with pytest.raises(ValueError, match="monotonicity"):
                price(bad)
            with pytest.raises(ValueError, match="monotonicity"):
                price(bad)


def test_threads_pricing_different_strategies_agree_with_one_thread(monkeypatch):
    # More threads than a 2-CPU machine has cores; each prices its own
    # strategy and, in between, one they all share.
    own = [optimize(SearchProblem(1.0, 1e20)).strategy, pot(1.0, 1e30),
           baselines("f_infinity", 1.0, 1e30)]
    shared = Strategy(turns=(1.5, 3.0, 3.0, 6.0), terminal=8.0, lambda_=1.0)

    def prices(s):
        return worst_case_ratio(s), grid_sweep_ratio(s, points=1000)

    want = [[prices(s), prices(shared)] * 200 for s in own]
    got = [[] for _ in own]

    def work(k):
        for _ in range(200):
            got[k] += [prices(own[k]), prices(shared)]

    # Hand another thread its turn while the sums are being built, and
    # switch threads as often as the interpreter can.
    reach_sums = simulate._reach_sums
    monkeypatch.setattr(simulate, "_reach_sums", lambda s: time.sleep(0) or reach_sums(s))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(own))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


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


def test_first_above_is_the_first_point_a_scan_finds():
    # Grids with hi / lo in and beyond double range; b on a point, a double
    # either side of it, and outside [lo, hi].
    rng = random.Random(28)
    for _ in range(200):
        log2_lo = rng.uniform(-1022, 1000)
        log2_hi = log2_lo + rng.uniform(0, 2000)
        lo, hi = 2.0**log2_lo, 2.0**log2_hi if log2_hi < 1024 else sys.float_info.max
        grid = GeometricGrid(lo, hi, rng.randint(2, 1000))
        points = list(grid)
        near = [math.nextafter(d, to) for d in rng.sample(points, 5) for to in (0.0, math.inf)]
        for b in [*points[::97], *near, math.nextafter(lo, 0.0), lo / 2, hi, 2 * hi]:
            want = next(((k, d) for k, d in enumerate(points) if d > b), (len(grid), math.inf))
            assert grid.first_above(b) == want, (lo, hi, len(grid), b)


def test_grid_cost_does_not_grow_with_points():
    rep = optimize(SearchProblem(1.0, 2.0**200))
    sup = worst_case_ratio(rep.strategy).sup_ratio
    grid = grid_sweep_ratio(rep.strategy, points=10**15)  # would never finish point by point
    assert sup - 1e-9 <= grid <= sup + 1e-12


def test_grid_points_are_capped_at_two_to_the_53():
    # Past 2^53, k * step no longer resolves the index, and from 2^63 on
    # len() itself overflows; the cap is refused by name.
    s = Strategy((2.0, 5.0), 8.0, 1.0)
    assert grid_sweep_ratio(s, points=2**53) == 7.999999999999998
    for points in (2**53 + 1, 10**19):
        with pytest.raises(ValueError, match=r"at most 2\*\*53 points"):
            grid_sweep_ratio(s, points=points)


def test_grid_beyond_double_ratio():
    rep = optimize(SearchProblem(1e-300, 1e300))
    sup = worst_case_ratio(rep.strategy).sup_ratio
    assert sup - 1e-3 <= grid_sweep_ratio(rep.strategy) <= sup + 1e-12


def test_integer_bounds_price_as_their_floats():
    # SearchProblem passes an int lambda through to the strategy; every
    # pricer and the grid take int bounds as the floats they equal.
    s = optimize(SearchProblem(1, 10)).strategy
    f = optimize(SearchProblem(1.0, 10.0)).strategy
    assert grid_sweep_ratio(s) == grid_sweep_ratio(f)
    assert grid_sweep_ratio(s, 1, 8, 1000) == grid_sweep_ratio(f, 1.0, 8.0, 1000)
    assert worst_case_ratio(s).sup_ratio == worst_case_ratio(f).sup_ratio
    assert list(GeometricGrid(1, 8, 5)) == list(GeometricGrid(1.0, 8.0, 5))
    assert GeometricGrid(1, 8, 5).first_above(3) == GeometricGrid(1.0, 8.0, 5).first_above(3.0)
    for name in ("power_of_two", "f_infinity", "los_sqrt"):
        turns = baselines(name, 1, 100).turns
        assert turns == baselines(name, 1.0, 100.0).turns
        assert all(type(t) is float for t in turns)


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


@pytest.mark.parametrize("lam, Lam", [(1.0, math.inf), (math.inf, math.inf), (1.0, math.nan)])
def test_baselines_need_a_finite_Lambda(lam, Lam):
    with pytest.raises(ValueError, match="Lambda"):
        baselines("power_of_two", lam, Lam)
    with pytest.raises(ValueError, match="Lambda"):
        baseline_ratios(lam, Lam)


def generic_baseline_ratios(lam, Lam):
    return {name: worst_case_ratio(baselines(name, lam, Lam)).sup_ratio for name in BASELINES}


def assert_bitwise_equal(got, want, case):
    assert list(got) == list(want), case
    assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()], case


def test_baseline_ratios_are_the_generic_pricing(monkeypatch):
    monkeypatch.setattr(simulate, "_TABLES", {})
    rng = random.Random(17)
    top = 1.7976931348623157e308
    # lam log-uniform over the normal range, an int among them; the last
    # lambdas come back after more distinct ones than the cache holds.
    lams = [math.exp(rng.uniform(math.log(2.2250738585072014e-308), math.log(1e300)))
            for _ in range(simulate._TABLE_CACHE_SIZE)]
    lams = [2.0**-1022, 1.0, 3, 3.7, *lams, 1e300, 3.7, 1.0, 2.0**-1022]
    checked = 0
    for lam in lams:
        first_turns = baselines("f_infinity", lam, top).turns
        on_turn = first_turns[len(first_turns) // 2] if first_turns else lam
        # Lambda = lam, on the second power_of_two turn (k = 1), below f_infinity's
        # first turn 4 lam (k = 0), between its first two (k = 1), on a turn.
        Lams = [lam, lam * 2.0, lam * 3.0, lam * 6.0, on_turn, top, top / 1.5]
        Lams += [min(lam * math.exp(rng.uniform(0.0, math.log(top / lam))), top) for _ in range(6)]
        # Growing, shrinking and growing again: tables grow between calls.
        for Lam in (*sorted(Lams), *sorted(Lams, reverse=True), *Lams):
            assert_bitwise_equal(baseline_ratios(lam, Lam), generic_baseline_ratios(lam, Lam),
                                 (lam, Lam))
            checked += 1
    assert checked == len(lams) * 39
    assert len(simulate._TABLES) == simulate._TABLE_CACHE_SIZE
    # No turn below Lambda (k = 0): Lambda = lam, or below f_infinity's first
    # turn 4 lam, and lambdas so large that 4 lam, 2 lam or 2 Lambda overflow.
    half_up = math.nextafter(top / 2.0, math.inf)
    no_turns = [(1.0, 1.0), (1.0, math.nextafter(4.0, 0.0)), (2.0**-1022, 3.0 * 2.0**-1022),
                (half_up, half_up), (top / 3.0, top), (top / 4.0, top), (top / 1.5, top),
                (top, top), (0.3 * top, 0.9 * top)]
    for _ in range(200):
        lam = math.exp(rng.uniform(math.log(2.2250738585072014e-308), math.log(top)))
        no_turns.append((lam, min(lam * rng.uniform(1.0, 4.0), top)))
    for lam, Lam in no_turns:
        assert baselines("f_infinity", lam, Lam).turns == ()
        want = generic_baseline_ratios(lam, Lam)
        assert want["single_shot"] == want["f_infinity"] == 2.0 * (Lam / lam) + 1.0
        assert_bitwise_equal(baseline_ratios(lam, Lam), want, (lam, Lam))
    # Lambda above max/2 with turns below it: twice S_{k-1} + Lambda overflows.
    for lam in (2.0**-1022, 1.0, 1e300, top / 5.0):
        for Lam in (half_up, math.nextafter(top, 0.0), top):
            assert_bitwise_equal(baseline_ratios(lam, Lam), generic_baseline_ratios(lam, Lam),
                                 (lam, Lam))


def test_a_first_call_builds_only_the_turns_it_needs(monkeypatch):
    monkeypatch.setattr(simulate, "_TABLES", {})
    baseline_ratios(1.0, 1e20)
    for name in ("power_of_two", "f_infinity", "los_sqrt"):
        needed = len(baselines(name, 1.0, 1e20).turns)  # the turns below Lambda
        turns, sums, peaks = simulate._TABLES[(name, 1.0)]
        assert needed <= len(turns) <= 2 * needed, name
        assert len(sums) == len(turns) == len(peaks) + 1
    # A smaller Lambda reads the same table; a larger one grows it.
    before = simulate._TABLES[("f_infinity", 1.0)]
    baseline_ratios(1.0, 1e10)
    assert simulate._TABLES[("f_infinity", 1.0)] is before
    baseline_ratios(1.0, 1e300)
    assert len(simulate._TABLES[("f_infinity", 1.0)][0]) >= len(baselines("f_infinity", 1.0, 1e300).turns)


def test_threads_pricing_baselines_at_many_lambdas_agree_with_one_thread(monkeypatch):
    # More distinct lambdas than the table cache holds, so the threads evict
    # tables while others store and read theirs, switching as often as the
    # interpreter can.  The README's promise that every function is safe to
    # call concurrently rests on this test for baseline_ratios.
    monkeypatch.setattr(simulate, "_TABLES", {})
    lams = [2.0**k for k in range(-60, 61)]
    rng = random.Random(23)
    draws = [[rng.choice(lams) for _ in range(3000)] for _ in range(4)]
    want = {lam: baseline_ratios(lam, lam * 2.0**40) for lam in lams}
    got, errors = [[] for _ in draws], []

    def work(k):
        try:
            for lam in draws[k]:
                got[k].append(baseline_ratios(lam, lam * 2.0**40))
        except Exception as exc:  # a thread's exception would be lost otherwise
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(draws))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == [[want[lam] for lam in d] for d in draws]
    # Every store is followed by its own eviction, so the cache ends no
    # larger than its size.  It can end smaller: a key in one thread's
    # snapshot can be moved to the end by another, and still be evicted.
    assert len(simulate._TABLES) <= simulate._TABLE_CACHE_SIZE


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
