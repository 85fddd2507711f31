import math
import random
import sys
from fractions import Fraction
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from linesearch import cli, optimal
from linesearch.optimal import (
    SearchProblem,
    Strategy,
    expand_sequence,
    optimal_n,
    optimize,
    solve_problem,
)
from linesearch.reach import ReachQuery, maximal_reach
from linesearch.simulate import baselines, grid_sweep_ratio, worst_case_ratio
from linesearch.polynomials import eval_p, log2_p_at_alpha_next, log2_p_at_alpha_next2
from linesearch.solve import solve_beyond_alpha, solve_exact

from _oracles import (
    MP_DPS,
    bisect_root,
    exact_sup_ratio,
    p_recurrence_mp,
    poly_coeffs,
    poly_eval,
)


RNG_SWEEP = np.random.default_rng(20240817)


def eq7_holds(n: int, rho: float) -> bool:
    lo, hi = log2_p_at_alpha_next(n), log2_p_at_alpha_next2(n)
    return lo - 1e-12 <= math.log2(rho) < hi


# --- optimal_n -------------------------------------------------------------


def test_optimal_n_examples():
    assert optimal_n(1.0) == 0
    assert optimal_n(4.0) == 1
    assert optimal_n(10.0) == 3
    assert optimal_n(20.0) == 4


@pytest.mark.parametrize("rho", [1.0, 1.9, 2.0, 4.0, 4.2, 10.0, 20.0, 1000.0, 2.0**20])
def test_optimal_n_certificate(rho):
    n = optimal_n(rho)
    assert eq7_holds(n, rho)
    assert n in (max(math.floor(math.log2(rho)) - 1, 0), math.floor(math.log2(rho)))


def test_optimal_n_rejects():
    with pytest.raises(ValueError):
        optimal_n(0.5)
    with pytest.raises(ValueError):
        optimal_n()
    with pytest.raises(ValueError):
        optimal_n(4.0, log2_rho=2.0)


def test_optimal_n_boundary_tie_prefers_larger():
    # rho = p_1(alpha_2) = 2 exactly: the half-open bracket assigns n = 1.
    assert optimal_n(2.0) == 1
    # rho = p_2(alpha_3) = 2 + sqrt 5: assigns n = 2.
    assert optimal_n(2.0 + math.sqrt(5.0)) == 2


def test_optimal_n_log2_path_matches_float_path():
    for rho in (1.5, 7.3, 300.0, 2.0**30):
        assert optimal_n(rho) == optimal_n(log2_rho=math.log2(rho))


def test_certificate_sweep_small():
    # 1000 log-uniform rho in [1, 2^40]: bracket plus the 2^n / 2^(n+2) caps.
    exps = RNG_SWEEP.uniform(0.0, 40.0, size=1000)
    for e in exps:
        rho = float(2.0**e)
        n = optimal_n(rho)
        lo, hi = log2_p_at_alpha_next(n), log2_p_at_alpha_next2(n)
        assert n <= lo + 1e-9 and e < hi and hi <= n + 2 + 1e-9
        assert lo - 1e-9 <= e
        assert n in (math.floor(e) - 1, math.floor(e)) or (math.floor(e) == 0 and n == 0)


def _log2_edge_mp(n: int):
    """log2 p_n(alpha_{n+1}), the lower edge of bracket n, at 50 digits."""
    with mp.workdps(MP_DPS):
        return mp.log(p_recurrence_mp(n, 4 * mp.cos(mp.pi / (n + 3)) ** 2), 2)


@pytest.mark.parametrize("lam", [1.0, 3.7, 1e-300])
@pytest.mark.parametrize("n", [4, 7, 31, 200, 1000])
def test_solve_problem_serves_every_rho_near_a_bracket_edge(n, lam):
    # optimal_n gives bracket n a log2 rho up to its fuzz below the edge.
    # Within 40 ulps of Lambda around that point, every problem solves, to
    # the n whose 50-digit bracket holds rho, or to the larger n where the
    # 50-digit edge is within the fuzz (and a few ulps of rounding) above.
    edge = log2_p_at_alpha_next(n)
    fuzz = 1e-12 * edge
    edge_mp = _log2_edge_mp(n)
    Lam = lam * 2.0 ** (edge - fuzz)
    for _ in range(40):
        Lam = math.nextafter(Lam, 0.0)
    for k in range(81):
        rep = solve_problem(SearchProblem(lam, Lam))
        with mp.workdps(MP_DPS):
            below = edge_mp - mp.log(mpf(Lam) / mpf(lam), 2)
        held = n if below <= 0 else n - 1
        assert rep.n == held or (rep.n == n and below <= fuzz + 16 * math.ulp(edge)), (k, Lam)
        Lam = math.nextafter(Lam, math.inf)


# --- expand_sequence --------------------------------------------------------


def test_expand_at_four():
    assert expand_sequence(4.0, 4) == [4.0, 12.0, 32.0, 80.0]


def test_expand_at_three():
    seq = expand_sequence(3.0, 3)
    assert seq == [3.0, 6.0, 9.0]
    # Next element closes on rho: a_3 = 3 (9 - 6) = 9 = p_3(3).
    assert 3.0 * (seq[2] - seq[1]) == 9.0


def test_expand_matches_polynomials():
    for a0 in (1.7, 2.61, 3.2, 3.9):
        seq = expand_sequence(a0, 12)
        for i, v in enumerate(seq):
            assert v == pytest.approx(eval_p(i, a0).to_float(), rel=1e-12)


def test_expand_trailing_residual():
    a0 = 3.029554825431927  # solves p_3 = 10
    seq = expand_sequence(a0, 3)
    assert seq[0] == pytest.approx(3.0296, abs=1e-4)
    assert seq[1] == pytest.approx(6.149, abs=1e-3)
    assert seq[2] == pytest.approx(9.451, abs=2e-3)
    a3 = a0 * (seq[2] - seq[1])
    assert a3 == pytest.approx(10.0, rel=1e-6)


def test_expand_edges():
    assert expand_sequence(2.5, 0) == []
    assert expand_sequence(2.5, 1) == [2.5]
    with pytest.raises(ValueError):
        expand_sequence(2.5, -1)


# --- SearchProblem ----------------------------------------------------------


def test_problem_validation():
    with pytest.raises(ValueError):
        SearchProblem(0.0, 1.0)
    with pytest.raises(ValueError):
        SearchProblem(2.0, 1.0)
    with pytest.raises(ValueError):
        SearchProblem(1.0, 10.0, epsilon=0.0)
    with pytest.raises(ValueError):
        SearchProblem(1.0, math.inf)


@pytest.mark.parametrize("log2_rho", [math.nan, -math.nan, -1.0, -math.inf])
def test_problem_log2_constructor_refuses_a_log2_rho_that_is_not_non_negative(log2_rho):
    with pytest.raises(ValueError, match="log2_rho must be non-negative"):
        SearchProblem.from_log2_rho(log2_rho)


def test_validate_says_whether_the_turns_strictly_increase():
    assert Strategy(turns=(1.5, 3.0, 6.0), terminal=8.0, lambda_=1.0).validate() is True
    assert Strategy(turns=(1.0, 8.0), terminal=8.0, lambda_=1.0).validate() is True
    assert Strategy(turns=(), terminal=8.0, lambda_=8.0).validate() is True
    assert Strategy(turns=(1.5, 3.0, 3.0, 6.0), terminal=8.0, lambda_=1.0).validate() is False
    assert Strategy(turns=(8.0, 8.0), terminal=8.0, lambda_=1.0).validate() is False
    with pytest.raises(ValueError, match="turn 1 breaks monotonicity: 2.0 < 3.0"):
        Strategy(turns=(3.0, 2.0, 6.0), terminal=8.0, lambda_=1.0).validate()
    with pytest.raises(ValueError, match="turn 1 is not finite: nan"):
        Strategy(turns=(3.0, math.nan), terminal=8.0, lambda_=1.0).validate()
    with pytest.raises(ValueError, match="the terminal is below the last turn"):
        Strategy(turns=(3.0, 3.0), terminal=2.0, lambda_=1.0).validate()


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, 1e308])
def test_scaled_refuses_a_factor_that_leaves_the_distances_non_finite(c):
    s = Strategy(turns=(2.0, 5.0), terminal=8.0, lambda_=1.0)
    err = OverflowError if c == 1e308 else ValueError
    with pytest.raises(err, match="exceeds double range" if c == 1e308 else f"got {c}$"):
        s.scaled(c)
    assert s.scaled(2.0**-16) == Strategy(
        turns=(2.0**-15, 5.0 * 2.0**-16), terminal=2.0**-13, lambda_=2.0**-16
    )


def test_problem_log2_constructor():
    p = SearchProblem.from_log2_rho(1000.0)
    assert p.Lambda == 2.0**1000 and p.rho == 2.0**1000
    with pytest.raises(OverflowError):
        SearchProblem.from_log2_rho(1030.0)


@pytest.mark.parametrize(
    "log2_rho, lam, Lam",
    [
        (1023.99, 1.0, 2.0**1023.99),
        (1023.999999, 1.0, 2.0**1023.999999),
        # 2.0**log2_rho alone would overflow; lambda brings Lambda back.
        (1024.5, 0.5, 2.0**1023.5),
        (2045.0, 2.0**-1022, 2.0**1023),
        (2045.75, 2.0**-1022, 2.0**1023.75),
    ],
)
def test_problem_log2_constructor_up_to_double_range(log2_rho, lam, Lam):
    assert SearchProblem.from_log2_rho(log2_rho, lambda_=lam).Lambda == Lam


@pytest.mark.parametrize(
    "log2_rho, lam",
    [(1024.0, 1.0), (1025.0, 0.5), (2046.0, 2.0**-1022), (2047.5, 2.0**-1022), (1e300, 1.0),
     (math.inf, 2.0**-1022)],
)
def test_problem_log2_constructor_refuses_an_infinite_Lambda(log2_rho, lam):
    with pytest.raises(OverflowError, match="Lambda exceeds double range"):
        SearchProblem.from_log2_rho(log2_rho, lambda_=lam)


def test_problem_rejects_subnormal_lambda():
    smallest_normal = sys.float_info.min
    for lam in (5e-324, 1e-315, smallest_normal * (1.0 - 2.0**-52)):
        with pytest.raises(ValueError, match="subnormal"):
            optimize(SearchProblem(lam, 1.0))
        with pytest.raises(ValueError, match="subnormal"):
            SearchProblem.from_log2_rho(10.0, lambda_=lam)
    rep = optimize(SearchProblem(smallest_normal, 1.0))
    assert rep.strategy.lambda_ == smallest_normal and rep.strategy.terminal == 1.0


def test_cli_subnormal_lambda(capsys):
    assert cli.main(["verify", "--lambda", "1e-315", "--Lambda", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: lambda 1e-315 is subnormal")
    assert cli.main(["verify", "--lambda", "2.2250738585072014e-308", "--Lambda", "1"]) == 0


# --- optimize ---------------------------------------------------------------


def test_optimize_known_distance():
    rep = optimize(SearchProblem(1.0, 1.0))
    assert rep.cr == pytest.approx(3.0, abs=1e-12)
    assert rep.n == 0
    assert rep.strategy.turns == ()
    assert rep.strategy.terminal == 1.0
    assert rep.mode == "exact" and rep.cr_error_bound == 0.0


def test_optimize_boundary_rho_two():
    rep = optimize(SearchProblem(1.0, 2.0))
    assert rep.cr == pytest.approx(5.0, abs=1e-10)
    # Both closed forms agree on the boundary.
    assert solve_exact(0, 2.0).a0 == pytest.approx(solve_exact(1, 2.0).a0, abs=1e-10)


def test_optimize_boundary_golden():
    rho = 2.0 + math.sqrt(5.0)
    rep = optimize(SearchProblem(1.0, rho))
    assert rep.cr == pytest.approx(4.0 + math.sqrt(5.0), abs=1e-10)
    assert solve_exact(1, rho).a0 == pytest.approx(solve_exact(2, rho).a0, abs=1e-10)


def test_optimize_rho_ten_against_oracle():
    rep = optimize(SearchProblem(1.0, 10.0, 1e-9))
    assert rep.n == 3
    coeffs = poly_coeffs(3)
    a0 = bisect_root(lambda x: poly_eval(coeffs, x) - 10.0, 3.0, 3.3)
    assert rep.a0 == pytest.approx(a0, abs=1e-9)
    assert rep.cr == pytest.approx(7.0592, abs=1e-4)
    assert rep.strategy.turns == pytest.approx([3.0296, 6.149, 9.451], abs=2e-3)
    assert rep.strategy.terminal == 10.0
    assert rep.mode == "exact"


def test_optimize_scale_invariance():
    rep1 = optimize(SearchProblem(1.0, 10.0, 1e-9))
    rep2 = optimize(SearchProblem(2.0, 20.0, 1e-9))
    assert rep2.cr == rep1.cr
    assert rep2.strategy.turns == pytest.approx([2.0 * t for t in rep1.strategy.turns], rel=1e-12)


def test_optimize_numeric_mode_and_bound():
    rep = optimize(SearchProblem(1.0, 1e6, 1e-9))
    assert rep.mode == "numeric"
    assert rep.cr_error_bound <= 1e-9
    # a_n closes on rho to the solver's tolerance.
    ratios = [t / 1.0 for t in rep.strategy.turns]
    a_n = rep.a0 * (ratios[-1] - ratios[-2])
    assert a_n == pytest.approx(1e6, rel=1e-9)


def test_optimize_limit_mode():
    rep = optimize(SearchProblem(1.0, 2.0**30, 0.01))
    assert rep.mode == "limit_approx"
    assert rep.cr_error_bound <= 0.01
    rep.strategy.validate()
    assert max(rep.strategy.turns) <= rep.strategy.terminal
    tight = optimize(SearchProblem(1.0, 2.0**30, 1e-12))
    assert abs(rep.cr - tight.cr) <= rep.cr_error_bound


def test_optimize_large_rho_exponent_tracked():
    rep = optimize(SearchProblem.from_log2_rho(1000.0))
    assert rep.cr < 9.0
    assert rep.n in (999, 1000)
    assert all(math.isfinite(t) and t > 0 for t in rep.strategy.turns)
    rep.strategy.validate()


def test_strategy_invariants_emitted():
    for rho in (1.5, 2.5, 4.0, 10.0, 20.0, 100.0, 1e4):
        rep = optimize(SearchProblem(1.0, rho, 1e-9))
        rep.strategy.validate()
        assert all(t >= 1.0 - 1e-12 for t in rep.strategy.turns)
        if rep.n >= 2:
            ratios = list(rep.strategy.turns)
            a_n = rep.a0 * (ratios[-1] - ratios[-2])
            assert a_n == pytest.approx(rho, rel=1e-9)


# --- optimality by exhaustion ----------------------------------------------


@pytest.mark.parametrize("rho", [1.5, 2.5, 4.0, 10.0, 20.0, 100.0, 1e4])
def test_selected_n_minimizes_cr(rho):
    n_star = optimal_n(rho)
    cr_star = 2.0 * (optimize(SearchProblem(1.0, rho, 1e-12)).a0) + 1.0
    for m in range(max(n_star - 2, 0), n_star + 3):
        cr_m = 2.0 * solve_beyond_alpha(m, rho).a0 + 1.0
        assert cr_star <= cr_m + 1e-9, (rho, m)


def test_boundary_tie_cr_equal():
    # At rho = 2 + sqrt 5 the n = 1 and n = 2 strategies tie exactly.
    rho = 2.0 + math.sqrt(5.0)
    cr1 = 2.0 * solve_beyond_alpha(1, rho).a0 + 1.0
    cr2 = 2.0 * solve_beyond_alpha(2, rho).a0 + 1.0
    assert cr1 == pytest.approx(cr2, abs=1e-10)


# --- competitive ratio bands ------------------------------------------------


def test_cr_band_and_rate_over_sweep():
    # For rho < 2 the single-shot value 2 rho + 1 is exact.  From rho = 2 on,
    # the ratio sits in the band the bracket argument supports,
    # [8cos^2(pi/(ceil+1))+1, 8cos^2(pi/(floor+4))+1], stays below 9, and
    # approaches it at the 1/log^2 rate.
    exps = RNG_SWEEP.uniform(0.0, 40.0, size=1500)
    for e in exps:
        rho = float(2.0**e)
        rep = optimize(SearchProblem(1.0, rho, 1e-9))
        assert rep.cr < 9.0
        if rho < 2.0:
            assert rep.cr == pytest.approx(2.0 * rho + 1.0, abs=1e-10)
            continue
        lo = 8.0 * math.cos(math.pi / (math.ceil(e) + 1)) ** 2 + 1.0
        hi = 8.0 * math.cos(math.pi / (math.floor(e) + 4)) ** 2 + 1.0
        assert lo - 1e-9 <= rep.cr <= hi + 1e-9, rho
        rate = (9.0 - rep.cr) * e * e
        assert 1.0 <= rate <= 1e3, rho


def test_quoted_band_lower_edge_is_too_strong():
    # The ceil+2 variant of the lower bound fails just above powers of two;
    # rho = 4.1 is a witness (the bracket argument only gives ceil+1).
    rep = optimize(SearchProblem(1.0, 4.1, 1e-12))
    too_strong = 8.0 * math.cos(math.pi / (math.ceil(math.log2(4.1)) + 2)) ** 2 + 1.0
    assert rep.cr < too_strong - 1e-3
    supported = 8.0 * math.cos(math.pi / (math.ceil(math.log2(4.1)) + 1)) ** 2 + 1.0
    assert rep.cr >= supported


# --- convergence to the unbounded strategy ----------------------------------


def test_turns_approach_f_infinity():
    # (2i + 4) 2^i: the turns of the canonical 9-competitive unbounded strategy.
    f_inf = [(2 * i + 4) * 2**i for i in range(5)]
    gaps = []
    for k in (10, 20, 40):
        rep = optimize(SearchProblem(1.0, 2.0**k, 1e-12))
        gap = max(abs(rep.strategy.turns[i] - f) / f for i, f in enumerate(f_inf))
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]
    # At rho = 2^40 the offset 4 - a0 is about 4 sin^2(pi/43) ~ 0.021, and
    # the first turns inherit roughly twice that relative gap.
    assert gaps[2] < 0.06


# --- property-based ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    log2rho=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)
def test_optimize_properties(lam, log2rho):
    rho = 2.0**log2rho
    rep = optimize(SearchProblem(lam, rho * lam, 1e-9))
    rep.strategy.validate()
    assert rep.cr == pytest.approx(2.0 * rep.a0 + 1.0, rel=1e-15)
    assert 3.0 - 1e-12 <= rep.cr < 9.0
    assert rep.strategy.terminal == rho * lam
    assert eq7_holds(rep.n, rep.strategy.terminal / lam)


def test_printed_bound_holds_for_printed_turns():
    # What optimize prints must be true of the turns it prints: priced as
    # exact rationals, the supremum is at most cr + cr_error_bound, up to the
    # rounding of cr itself (exact mode reports a bound of 0).
    rng = np.random.default_rng(20261018)
    draws = zip(rng.uniform(0.0, 1000.0, 240), repeat(1.0), rng.choice([1e-12, 1e-9, 1e-6], 240))
    # And over the whole lambda range: lambda log-uniform over [2^-1022, 2^1000]
    # and log2 rho up to the edge where Lambda = lambda rho stays finite.
    wide = np.random.default_rng(20261020)
    log2_lams = wide.uniform(-1022.0, 1000.0, 60)
    wide_draws = zip(wide.uniform(0.0, 1.0, 60) * (1023.99 - log2_lams), 2.0**log2_lams,
                     wide.choice([1e-12, 1e-9, 1e-6], 60))
    modes = set()
    for log2_rho, lam, eps in [(0.0, 1.0, 1e-9), (1000.0, 1.0, 1e-12), (1000.0, 1.0, 1e-6),
                               *draws, *wide_draws]:
        problem = SearchProblem.from_log2_rho(float(log2_rho), float(lam), float(eps))
        rep = optimize(problem)
        s = rep.strategy
        sup = exact_sup_ratio(s.turns, s.terminal, s.lambda_)
        allowed = Fraction(rep.cr) + Fraction(rep.cr_error_bound) + 8 * Fraction(math.ulp(rep.cr))
        assert sup <= allowed, (problem, rep.n, rep.mode, float(sup - Fraction(rep.cr)))
        modes.add(rep.mode)
    assert modes == {"exact", "numeric", "limit_approx"}


def test_printed_bound_holds_at_the_tightest_eps():
    # With eps below ulp(cr) the numeric bound is all rounding, so the
    # turns' own errors must keep the exact supremum within 8 ulps of cr.
    rng = np.random.default_rng(20261019)
    for log2_rho, eps in zip(rng.uniform(4.0, 1000.0, 60), rng.choice([1e-15, 1e-16], 60)):
        rep = optimize(SearchProblem.from_log2_rho(float(log2_rho), epsilon=float(eps)))
        assert rep.mode == "numeric"
        s = rep.strategy
        sup = exact_sup_ratio(s.turns, s.terminal, s.lambda_)
        allowed = Fraction(rep.cr) + Fraction(rep.cr_error_bound) + 8 * Fraction(math.ulp(rep.cr))
        assert sup <= allowed, (log2_rho, eps, rep.n, float(sup - Fraction(rep.cr)))


def test_limit_mode_caps_only_the_tail_at_Lambda():
    # The draws of test_printed_bound_holds_for_printed_turns.  The turns
    # increase, so capping the tail that exceeds Lambda must give exactly
    # the turn-by-turn min.
    rng = np.random.default_rng(20261018)
    draws = zip(rng.uniform(0.0, 1000.0, 240), rng.choice([1e-12, 1e-9, 1e-6], 240))
    limit = capped = 0
    for log2_rho, eps in [(0.0, 1e-9), (1000.0, 1e-12), (1000.0, 1e-6), *draws]:
        problem = SearchProblem.from_log2_rho(float(log2_rho), epsilon=float(eps))
        rep = optimize(problem)
        if rep.mode != "limit_approx":
            continue
        raw = expand_sequence(rep.a0, rep.n, scale=problem.lambda_, theta=rep.theta)
        assert rep.strategy.turns == tuple(min(t, problem.Lambda) for t in raw), log2_rho
        limit += 1
        capped += raw[-1] > problem.Lambda
    assert limit > 10 and capped > 0


@pytest.mark.parametrize(
    "n, eps, mode",
    [
        (2, 1e-9, "exact"),
        (3, 1e-9, "exact"),
        (5, 1e-9, "numeric"),
        (40, 1e-9, "numeric"),
        (200, 1e-15, "numeric"),
        (100, 1e-3, "limit_approx"),
    ],
)
@pytest.mark.parametrize("lam", [1.0, 3.7])
def test_strategies_at_a_bracket_edge_satisfy_the_exact_chain(n, eps, mode, lam):
    # At rho = p_n(alpha_{n+1}) the last turn lam p_{n-1} equals Lambda =
    # lam p_n, since p_{n+1} = 0 there.  Within 40 ulps of that rho,
    # rounding and an a0 just below alpha_{n+1} lift it a few ulps past
    # Lambda in every mode; optimize caps it there, and the strategy keeps
    # its ratio bound.
    edge = lam * 2.0 ** log2_p_at_alpha_next(n)
    capped = 0
    for k in range(-40, 41):
        problem = SearchProblem(lam, edge * (1.0 + k * 2.0**-52), eps)
        rep = optimize(problem)
        assert (rep.n, rep.mode) == (n, mode), k
        theta = None if mode == "exact" else rep.theta
        raw = expand_sequence(rep.a0, n, scale=lam, theta=theta)
        assert rep.strategy.turns == tuple(min(t, problem.Lambda) for t in raw), k
        capped += raw[-1] > problem.Lambda
        s = rep.strategy
        s.validate()
        allowed = Fraction(rep.cr) + Fraction(rep.cr_error_bound) + 8 * Fraction(math.ulp(rep.cr))
        assert exact_sup_ratio(s.turns, s.terminal, lam) <= allowed, k
        assert worst_case_ratio(s).sup_ratio <= allowed, k
        assert grid_sweep_ratio(s, points=1000) <= allowed, k
    assert capped >= 20


@pytest.mark.parametrize(
    "lam, Lam, eps",
    [
        (5.239937487811896e57, 1.7e308, 1e-6),
        (1.0, sys.float_info.max, 1e-3),
        (1e-300, 1.7e308, 1e-6),
        (2.0**-1022, sys.float_info.max, 1e-6),
        (math.nextafter(2.0**-1022, 1.0), sys.float_info.max, 1e-6),  # lam / 2 rounds
    ],
)
def test_limit_mode_caps_top_turns_past_double_range(lam, Lam, eps):
    # The limit point's top turns overshoot Lambda by up to about half of
    # it, here past double range; they are capped at Lambda all the same.
    rep = optimize(SearchProblem(lam, Lam, eps))
    assert rep.mode == "limit_approx"
    with pytest.raises(OverflowError):
        expand_sequence(rep.a0, rep.n, scale=lam, theta=rep.theta)
    s = rep.strategy
    s.validate()
    assert s.turns[-1] == Lam and s.turns[0] >= lam
    sup = exact_sup_ratio(s.turns, s.terminal, s.lambda_)
    allowed = Fraction(rep.cr) + Fraction(rep.cr_error_bound) + 8 * Fraction(math.ulp(rep.cr))
    assert sup <= allowed, float(sup - Fraction(rep.cr))


def test_the_package_strategies_satisfy_the_exact_chain():
    # validate() allows no slack, so everything the package builds must
    # satisfy lambda <= t_0 <= ... <= terminal exactly.
    rng = random.Random(20261019)
    top = 1.7e308

    def bounds():
        """lambda log-uniform over the normal range, Lambda = 2^u lambda up to top."""
        log2_lam = rng.uniform(-1022.0, 1023.0)
        u = rng.choice([rng.uniform(0.0, 4.0), rng.uniform(0.0, 2046.0)])
        return 2.0**log2_lam, 2.0 ** min(log2_lam + u, math.log2(top))

    modes = set()
    for eps in (1e-15, 1e-9, 1e-6, 1e-3):
        for _ in range(60):
            lam, Lam = bounds()
            for problem in (SearchProblem(lam, Lam, eps), SearchProblem(lam, top, eps)):
                rep = optimize(problem)
                rep.strategy.validate()
                modes.add(rep.mode)
                # Scaled by a power of two that keeps every distance normal.
                low = -1021 - math.frexp(lam)[1]
                high = 1024 - math.frexp(problem.Lambda)[1]
                scale = 2.0 ** rng.randint(max(low, -1074), min(high, 1023))
                rep.strategy.scaled(scale).validate()
    assert modes == {"exact", "numeric", "limit_approx"}
    reached = 0
    for _ in range(200):
        lam = 2.0 ** rng.uniform(-1022.0, 0.0)
        try:
            res = maximal_reach(ReachQuery(rng.uniform(3.0, 9.0), lam))
        except OverflowError:
            continue
        res.strategy.validate()
        reached += 1
    assert reached > 150
    for _ in range(200):
        lam, Lam = bounds()
        for name in ("power_of_two", "f_infinity", "los_sqrt"):
            baselines(name, lam, Lam).validate()


def test_solve_problem_is_optimize_without_the_turns():
    problems = [
        SearchProblem(1.0, 1.0),
        SearchProblem(2.0, 20.0),
        SearchProblem(1.0, 1e6, 1e-12),
        SearchProblem(1e-300, 1e10),
        SearchProblem.from_log2_rho(1000.0, epsilon=1e-6),
        SearchProblem.from_log2_rho(1023.5),
    ]
    fields = ("n", "a0", "cr", "mode", "cr_error_bound", "log2_residual", "bracket_width", "theta")
    for problem in problems:
        sol, rep = solve_problem(problem), optimize(problem)
        got = [getattr(sol, f) for f in fields]
        want = [getattr(rep, f) for f in fields]
        assert repr(got) == repr(want), problem  # bit for bit, NaN included
        assert sol.strategy is None and type(sol) is type(rep)


def test_optimal_sweep_does_not_expand_turns(monkeypatch, capsys):
    argv = ["optimal", "--sweep", "--rho-min", "1", "--rho-max", "1e300", "--points", "40"]
    assert cli.main(argv) == 0
    expanded = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep row prints no turns")

    monkeypatch.setattr(optimal, "expand_sequence", refuse)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expanded


def test_optimize_wide_scale_rho_beyond_doubles():
    # lambda and Lambda both representable, but their ratio is not: the
    # absolute-unit expansion and the log2 solving path keep this finite.
    rep = optimize(SearchProblem(1e-300, 1e10, 1e-9))
    rep.strategy.validate()
    assert rep.cr < 9.0
    assert all(math.isfinite(t) for t in rep.strategy.turns)
    assert rep.strategy.turns[0] >= 1e-300
    assert max(rep.strategy.turns) <= 1e10 * (1 + 1e-12)


def test_optimize_threadsafe():
    # Everything is a pure function of its inputs; concurrent use must give
    # bit-identical results.
    from concurrent.futures import ThreadPoolExecutor

    rhos = [1.5, 7.0, 42.0, 1e4, 2.0**25, 3.14159e7]
    problems = [SearchProblem(1.0, r, 1e-9) for r in rhos]
    sequential = [optimize(p) for p in problems]
    with ThreadPoolExecutor(max_workers=6) as pool:
        threaded = list(pool.map(optimize, problems * 4))
    for k, rep in enumerate(threaded):
        ref = sequential[k % len(problems)]
        assert rep.a0 == ref.a0
        assert rep.cr == ref.cr
        assert rep.strategy.turns == ref.strategy.turns
