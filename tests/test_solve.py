import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from linesearch import solve as solve_module
from linesearch.optimal import optimal_n
from linesearch.polynomials import (
    alpha,
    eval_p,
    eval_p_and_derivative,
    log2_p_at_alpha_next,
    log2_p_at_alpha_next2,
    theta_of_x,
    x_of_theta,
)
from linesearch.solve import (
    BracketError,
    cr_error_bound_limit,
    limit_mode_threshold,
    log2_residual,
    solve_beyond_alpha,
    solve_exact,
    solve_limit,
    solve_numeric,
)

from _oracles import bisect_root, p_at_theta_mp, p_recurrence_mp, poly_coeffs, poly_eval


def oracle_root(n: int, rho: float, lo: float, hi: float) -> float:
    coeffs = poly_coeffs(n)
    return bisect_root(lambda x: poly_eval(coeffs, x) - rho, lo, hi)


def p_exact(n: int, x: float) -> Fraction:
    """p_n at the double x, exactly: with x = num/den, den^(i+1) p_i is an integer."""
    num, den = x.as_integer_ratio()
    prev, cur = 1, num  # den^0 p_{-1} = 1 seeds p_1 = x (x - 1)
    for _ in range(n):
        prev, cur = cur, num * (cur - den * prev)
    return Fraction(cur, den ** (n + 1))


@pytest.mark.parametrize("n", [60, 300])
def test_eval_p_error_near_a_root_is_within_its_stated_bound(n):
    # One ulp above the largest root alpha_n the recurrence cancels terms of
    # size about 2^(n+1): at n = 300 the error outweighs p_n itself.
    x = math.nextafter(alpha(n), 4.0)
    err = abs(Fraction(eval_p(n, x).to_float()) - p_exact(n, x))
    assert err <= n * n * Fraction(2) ** (n + 1 - 52)


def bracket_edges(n: int) -> tuple[float, float]:
    return 2.0 ** log2_p_at_alpha_next(n), 2.0 ** log2_p_at_alpha_next2(n)


# --- exact solving --------------------------------------------------------


def test_exact_n0():
    res = solve_exact(0, 1.5)
    assert res.a0 == 1.5 and res.mode == "exact"
    # p_0(a0) = rho exactly; the theta form prices it to a few ulps of 1.
    assert log2_residual(0, res.a0, 1.5, math.log2(1.5)) <= 4 * math.ulp(1.0)


def test_exact_n1_boundary():
    # rho = 2 sits on the n0/n1 boundary; both give ratio 5.
    assert solve_exact(1, 2.0).a0 == pytest.approx(2.0, abs=1e-14)
    assert solve_exact(0, 2.0).a0 == 2.0


def test_exact_n1_vs_oracle():
    res = solve_exact(1, 4.0)
    assert res.a0 == pytest.approx((1.0 + math.sqrt(17.0)) / 2.0, rel=1e-15)
    assert res.a0 == pytest.approx(oracle_root(1, 4.0, 1.0, 4.0), abs=1e-13)


def test_exact_n2_vs_oracle():
    for rho in (4.5, 5.0, 6.7, 8.0, 2.0 + math.sqrt(5.0)):
        res = solve_exact(2, rho)
        assert res.a0 == pytest.approx(oracle_root(2, rho, 2.0, 5.0), abs=1e-12)
        assert log2_residual(2, res.a0, rho, math.log2(rho)) <= 1e-12


def test_exact_n2_closed_point():
    # a0 = (3+sqrt 5)/2 solves a0^3 - 2 a0^2 = 2 + sqrt 5.
    res = solve_exact(2, 2.0 + math.sqrt(5.0))
    assert res.a0 == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)


def test_exact_n3_closed_point():
    res = solve_exact(3, 9.0)
    assert res.a0 == pytest.approx(3.0, rel=1e-14)
    assert log2_residual(3, res.a0, 9.0, math.log2(9.0)) <= 1e-12


def test_exact_n3_vs_oracle():
    for rho in (9.0, 10.0, 13.3, 17.9, 18.99):
        res = solve_exact(3, rho)
        assert res.a0 == pytest.approx(oracle_root(3, rho, 2.7, 4.0), abs=1e-12)
        assert log2_residual(3, res.a0, rho, math.log2(rho)) <= 1e-12


def test_exact_rejects():
    with pytest.raises(ValueError):
        solve_exact(4, 20.0)
    with pytest.raises(ValueError):
        solve_exact(1, 0.5)


def test_exact_holds_on_its_stated_range():
    # solve_exact takes rho in [1, 2^24): on a 1/8 step scan of log2 rho, and
    # at the top of the range, the largest root lies within one double of
    # the final bracket (a0's lower neighbour, a0) for every n.  The bracket
    # is where the recurrence crosses rho, and its rounding of p_n moves the
    # crossing by less than a double: at n = 2, rho = sqrt 2 the root is
    # 1.04 ulps below a0.  Past the range, which this scan checks, rho is
    # refused.
    rhos = [2.0 ** (k / 8) for k in range(24 * 8)] + [math.nextafter(2.0**24, 0.0)]
    for n in range(4):
        for rho in rhos:
            a0 = solve_exact(n, rho).a0
            with mp.workdps(50):
                root = mp.findroot(lambda x: p_recurrence_mp(n, x) - rho, mpf(a0))
            below = math.nextafter(math.nextafter(a0, 0.0), 0.0)
            assert below < root < math.nextafter(a0, math.inf), (n, rho)
        for rho in (2.0**24, 2.0**36, 1e300, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"rho in \[1, 2\^24\)"):
                solve_exact(n, rho)


def finished_in_x():
    """(n, rho, solve) for every root finished by Newton in x on the recurrence.

    The exact roots for n = 1, 2, 3 on a 1/64 step scan of log2 rho in
    [0, 24), and within 3 ulps of rho = p_n(4), where their start moves
    from theta to t; and seeded roots above 4 of solve_beyond_alpha, up to
    double range, where p_n' would overflow near x = 4 unscaled.
    """
    cases = [(n, 2.0 ** (k / 64), solve_exact) for n in (1, 2, 3) for k in range(24 * 64)]
    for n, p4 in ((1, 12.0), (2, 32.0), (3, 80.0)):
        rhos = [p4]
        for _ in range(3):
            rhos = [math.nextafter(rhos[0], 0.0), *rhos, math.nextafter(rhos[-1], math.inf)]
        cases += [(n, rho, solve_exact) for rho in rhos]
    rng = random.Random(27)
    for _ in range(300):
        n = rng.randint(1, 1000)
        log2_p4 = n + 1 + math.log2(n + 2)
        cases.append((n, 2.0 ** rng.uniform(log2_p4, 1023.99), solve_beyond_alpha))
    return cases


def test_roots_finished_in_x_keep_the_end_where_p_n_reaches_rho():
    # The driver brackets the root to adjacent doubles, and a0 is the end
    # where the recurrence reaches rho: one double lower, it falls short.
    # bracket_width is that last step, or 0 where p_n(a0) is rho itself.
    for n, rho, solve in finished_in_x():
        res = solve(n, rho)
        below = math.nextafter(res.a0, 0.0)
        assert eval_p_and_derivative(n, res.a0)[0] >= rho >= eval_p_and_derivative(n, below)[0], (
            n, rho, solve.__name__)
        assert res.bracket_width in (0.0, res.a0 - below), (n, rho, solve.__name__)


def test_roots_finished_in_x_take_at_most_five_evaluations(monkeypatch):
    # The theta solve, or the t solve above 4, starts Newton within reach of
    # the root: a bad bracket would show as a bisection, dozens of evaluations.
    kernel, calls = solve_module.eval_p_and_derivative, []

    def spy(n, x, *scale):
        calls.append(n)
        return kernel(n, x, *scale)

    monkeypatch.setattr(solve_module, "eval_p_and_derivative", spy)
    counts = {solve_exact: [], solve_beyond_alpha: []}
    for n, rho, solve in finished_in_x():
        calls.clear()
        solve(n, rho)
        counts[solve].append(len(calls))
    for solve, most, mean in ((solve_exact, 5, 2.5), (solve_beyond_alpha, 3, 2.5)):
        got = counts[solve]
        assert max(got) <= most and sum(got) / len(got) <= mean, (solve.__name__, max(got))


# --- numeric solving ------------------------------------------------------


def test_numeric_example_n3():
    res = solve_numeric(3, 10.0)
    expected = oracle_root(3, 10.0, 3.0, alpha(5))
    assert res.a0 == pytest.approx(expected, abs=1e-12)
    assert res.a0 == pytest.approx(3.0296, abs=2e-4)
    assert res.mode == "numeric"
    assert alpha(4) <= res.a0 <= alpha(5)


def test_numeric_example_n4():
    res = solve_numeric(4, 20.0)
    expected = oracle_root(4, 20.0, alpha(5), alpha(6))
    assert res.a0 == pytest.approx(expected, abs=1e-12)
    assert res.a0 == pytest.approx(3.2566, abs=2e-4)


def test_numeric_matches_exact():
    got = solve_numeric(1, 4.0).a0
    assert abs(got - solve_exact(1, 4.0).a0) <= 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_exact_numeric_agreement_sweep(n):
    lo, hi = bracket_edges(n)
    for k in range(20):
        rho = lo * (hi / lo) ** ((k + 0.5) / 20.0)
        a_exact = solve_exact(n, rho).a0
        a_num = solve_numeric(n, rho).a0
        assert abs(a_exact - a_num) <= 1e-10, (n, rho)


def test_numeric_sign_change_across_result():
    res = solve_numeric(5, 50.0)
    delta = 1e-8
    below = eval_p(5, res.a0 - delta).to_float()
    above = eval_p(5, res.a0 + delta).to_float()
    assert below < 50.0 < above


def test_numeric_rejects_outside_bracket():
    lo, hi = bracket_edges(3)
    with pytest.raises(BracketError):
        solve_numeric(3, hi * 1.001)
    with pytest.raises(BracketError):
        solve_numeric(3, lo * 0.999)
    with pytest.raises(ValueError):
        solve_numeric(3, 10.0, log2_rho=3.2)


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: optimal_n(rho=math.inf), "rho", id="optimal_n-rho-inf"),
        pytest.param(lambda: solve_numeric(5, log2_rho=math.inf), "log2_rho", id="numeric-log2_rho-inf"),
        pytest.param(lambda: optimal_n(log2_rho=math.nan), "log2_rho", id="optimal_n-log2_rho-nan"),
        pytest.param(lambda: solve_numeric(5, rho=math.nan), "rho", id="numeric-rho-nan"),
        pytest.param(lambda: solve_beyond_alpha(5, math.inf), "rho", id="beyond_alpha-rho-inf"),
        pytest.param(lambda: solve_beyond_alpha(5, math.nan), "rho", id="beyond_alpha-rho-nan"),
    ],
)
def test_a_non_finite_rho_is_refused_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and .*, got (inf|nan)$"):
        call()


def test_numeric_refuses_exactly_the_n_that_optimal_n_does_not_pick():
    # n is decided once: around the lower edge of every bracket up to 2001
    # (the upper edge of the bracket below), on the edge and at optimal_n's
    # fuzz below it, solve_numeric(m, rho) raises BracketError exactly when
    # optimal_n(rho) != m, whether rho is given or its log2.
    for n in range(1, 2002):
        edge = log2_p_at_alpha_next(n)
        for base in (edge, edge - 1e-12 * edge):
            for k in (-1, 0, 1):
                l2 = base + k * math.ulp(base)
                given = [{"log2_rho": l2}] + ([{"rho": 2.0**l2}] if l2 < 1024.0 else [])
                for kw in given:
                    held = optimal_n(**kw)
                    for m in (n - 1, n):
                        if m == held:
                            solve_numeric(m, **kw)
                        else:
                            with pytest.raises(BracketError, match=f"n = {held}, not n = {m}"):
                                solve_numeric(m, **kw)


def test_numeric_gives_a_rho_within_the_fuzz_below_the_upper_edge_to_n_plus_1():
    # log2 rho within optimal_n's fuzz below p_50(alpha_52) is bracket 51's;
    # bracket 51 solves it at its lower edge, a0 = alpha_52.
    l2 = log2_p_at_alpha_next2(50) * (1.0 - 0.5e-12)
    assert optimal_n(log2_rho=l2) == 51
    with pytest.raises(BracketError):
        solve_numeric(50, log2_rho=l2)
    assert solve_numeric(51, log2_rho=l2).theta == math.pi / 54


def test_numeric_boundary_grace():
    # rho exactly on the lower bracket edge solves to alpha_{n+1}.
    lo, _ = bracket_edges(7)
    res = solve_numeric(7, lo)
    assert res.a0 == pytest.approx(alpha(8), abs=1e-11)


def test_numeric_log2_input():
    res = solve_numeric(999, log2_rho=1000.0)
    assert alpha(1000) <= res.a0 <= alpha(1001)
    # Same instance through the float path agrees.
    res_f = solve_numeric(999, rho=2.0**1000)
    assert res.a0 == pytest.approx(res_f.a0, abs=1e-12)


@pytest.mark.parametrize("log2_rho", [5.6, 12.9, 151.2, 999.4, 1020.3])
def test_numeric_theta_at_ulp_floor(log2_rho):
    # The root in theta lies within two ulps of the reported theta, by the
    # 50-digit recurrence; a0 is 4 cos^2 theta rounded.
    rho = 2.0**log2_rho
    n = optimal_n(rho)
    res = solve_numeric(n, rho)
    assert math.pi / (n + 4) <= res.theta <= math.pi / (n + 3)
    assert res.a0 == x_of_theta(res.theta)
    below, above = res.theta, res.theta
    for _ in range(2):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
    assert p_at_theta_mp(n, below) >= rho >= p_at_theta_mp(n, above)


def test_numeric_and_limit_do_no_recurrence_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("O(n) recurrence called")

    monkeypatch.setattr(solve_module, "eval_p", forbidden)
    monkeypatch.setattr(solve_module, "eval_p_and_derivative", forbidden)
    res = solve_numeric(999, 2.0**1000)
    assert log2_residual(999, res.a0, 2.0**1000, 1000.0) < 1e-8
    assert solve_numeric(999, log2_rho=1000.0).a0 == res.a0
    lim = solve_limit(999)
    assert lim.theta == math.pi / 1003
    assert math.isfinite(log2_residual(999, lim.a0, 2.0**1000, 1000.0))


def test_numeric_solve_takes_at_most_five_newton_evaluations(monkeypatch):
    # Newton starts where the edge values interpolate linearly in
    # log(pi - (n+2) theta); from there the ulp floor is a few steps away.
    kernel, calls = solve_module.log2_p_theta_excess_and_slope, []

    def spy(n, theta):
        calls.append(n)
        return kernel(n, theta)

    monkeypatch.setattr(solve_module, "log2_p_theta_excess_and_slope", spy)
    rng = random.Random(24)
    counts = []
    for _ in range(1000):
        log2_rho = rng.uniform(5.0, 2000.0)
        calls.clear()
        solve_numeric(optimal_n(log2_rho=log2_rho), log2_rho=log2_rho)
        counts.append(len(calls))
    mean = sum(counts) / len(counts)
    assert max(counts) <= 5 and mean <= 4.5, (max(counts), mean)


def test_beyond_alpha_theta_solve_takes_at_most_a_dozen_evaluations(monkeypatch):
    # Newton starts at u = pi rho / p_n(4), u = pi - (n+2) theta, taken from
    # the top of the bracket: a root within ulps of pi/(n+2), where rho is
    # small against 2^(n+1), is one or two evaluations away.
    kernel, calls = solve_module.log2_p_theta_excess_and_slope, []

    def spy(n, theta):
        calls.append(n)
        return kernel(n, theta)

    monkeypatch.setattr(solve_module, "log2_p_theta_excess_and_slope", spy)
    rng = random.Random(25)
    cases = [(50, 1.5), (300, 2.0**200), (100, 1.0)]
    for _ in range(500):
        n = rng.randint(1, 1000)
        top = n + 1 + math.log2(n + 2)  # log2 p_n(4)
        cases.append((n, 2.0 ** rng.uniform(0.0, top)))  # mostly roots next to alpha_n
        cases.append((n, 2.0 ** max(0.0, rng.uniform(top - 10.0, top))))
    counts = []
    for n, rho in cases:
        calls.clear()
        res = solve_beyond_alpha(n, rho)
        counts.append(len(calls))
        assert 0.0 < theta_of_x(res.a0) < math.pi / (n + 2), (n, rho)  # alpha_n < a0 < 4
    mean = sum(counts) / len(counts)
    assert counts[:3] == [1, 1, 1] and max(counts) <= 12 and mean <= 5.0, (max(counts), mean)


def test_numeric_tolerance_contract():
    # There is no tolerance to ask for: every solve runs to the ulp floor,
    # well inside the 1e-14 any eps would have asked of a0.
    rho = 123.456
    n = optimal_n(rho)
    got = solve_numeric(n, rho).a0
    assert got == pytest.approx(oracle_root(n, rho, alpha(n + 1), alpha(n + 2)), abs=1e-14)
    with pytest.raises(TypeError):
        solve_numeric(n, rho, tol_a0=1e-6)


# --- limit approximation --------------------------------------------------


def test_limit_values():
    res = solve_limit(10)
    assert res.a0 == pytest.approx(4.0 * math.cos(math.pi / 14.0) ** 2, rel=1e-15)
    assert res.mode == "limit_approx"
    assert res.bracket_width == pytest.approx(alpha(12) - alpha(11), rel=1e-12)
    assert solve_limit(6996).a0 == pytest.approx(4.0 * math.cos(math.pi / 7000.0) ** 2, rel=1e-15)
    assert res.theta == math.pi / 14.0 and not hasattr(res, "residual")


def test_limit_error_bound_values():
    assert cr_error_bound_limit(10) == pytest.approx(0.125, rel=1e-15)  # 7^3/14^3
    assert cr_error_bound_limit(96) == pytest.approx(3.43e-4, rel=1e-12)
    assert limit_mode_threshold(1e-9) == pytest.approx(6996.0, rel=1e-12)


@pytest.mark.parametrize("n", [4, 7, 12, 21, 33, 40])
def test_limit_within_cubic_decay_bound(n):
    lo, hi = bracket_edges(n)
    rho = math.sqrt(lo * hi)
    cr_limit = 2.0 * solve_limit(n).a0 + 1.0
    cr_exact = 2.0 * solve_numeric(n, rho).a0 + 1.0
    assert abs(cr_limit - cr_exact) <= cr_error_bound_limit(n)


def test_bracket_width_cubic_decay_bound():
    for n in range(0, 200):
        assert alpha(n + 2) - alpha(n + 1) <= 343.0 / (n + 4) ** 3 / 2.0


# --- general-purpose root beyond alpha_n ----------------------------------


def test_beyond_alpha_matches_numeric_on_optimal_n():
    rho = 50.0
    n = optimal_n(rho)
    a = solve_beyond_alpha(n, rho).a0
    b = solve_numeric(n, rho).a0
    assert a == pytest.approx(b, abs=1e-11)


@pytest.mark.parametrize(
    "n,rho",
    [(1, 100.0), (2, 3.0), (4, 4.1), (7, 19.0), (3, 500.0), (1, 1e300), (50, 1e300), (20, 22.0 * 2.0**21)],
)
def test_beyond_alpha_solves_any_n(n, rho):
    res = solve_beyond_alpha(n, rho)
    assert res.a0 > alpha(n)
    val = eval_p(n, res.a0).to_float()
    assert val == pytest.approx(rho, rel=1e-9)


@pytest.mark.parametrize("rho", [1e10, 1e100, 1e300])
def test_beyond_alpha_large_root_to_a_few_ulps(rho):
    # At n = 1 the root of x (x - 1) = rho is (1 + sqrt(1 + 4 rho)) / 2.
    with mp.workdps(50):
        want = (1 + mp.sqrt(1 + 4 * mpf(rho))) / 2
        got = solve_beyond_alpha(1, rho).a0
        assert abs(mpf(got) - want) <= 4 * math.ulp(got)


@pytest.mark.parametrize("n", [60, 300, 1000])
def test_beyond_alpha_root_within_ulps_of_alpha(n):
    # p_n climbs from 0 to 1 within an ulp of alpha_n here: the root is not
    # representable apart from alpha_n, and the solve returns next to it,
    # yet above alpha_n, where p_n is positive.
    res = solve_beyond_alpha(n, 1.0)
    assert abs(res.a0 - alpha(n)) <= 2 * math.ulp(alpha(n))
    assert p_exact(n, res.a0) > 0


# --- residual ---------------------------------------------------------------


def assert_log2_residual_exact(n: int, a0: float, rho: float, log2_rho: float) -> None:
    p = p_exact(n, a0)
    with mp.workdps(50):
        # Past double range rho is known by its logarithm alone.
        want = mpf(log2_rho) if math.isinf(rho) else mp.log(mpf(rho), 2)
        exact = abs(mp.log(mpf(p.numerator) / p.denominator, 2) - want)
    got = log2_residual(n, a0, rho, log2_rho)
    assert abs(mpf(got) - exact) <= 1e-12, (n, a0, rho, got, exact)


def test_residual_matches_exact_value():
    # Roots below 4 take the residual from the theta form, roots above 4
    # from the recurrence; each is checked against log2 p_n(a0) in exact
    # rational arithmetic, rounded once to 50 digits, up to the top of
    # double range and past it, where rho is known by its logarithm alone.
    rng = random.Random(14)
    log2_rhos = [5.0, 1023.9] + [rng.uniform(5.0, 1023.9) for _ in range(40)]
    for log2_rho in log2_rhos:
        rho = 2.0**log2_rho
        n = optimal_n(rho)
        by_log2 = solve_numeric(n, log2_rho=log2_rho)
        for res in (solve_numeric(n, rho), solve_limit(n), by_log2):
            assert_log2_residual_exact(n, res.a0, rho, log2_rho)
    for log2_rho in (1024.0, 1030.0, 2000.5):
        n = optimal_n(log2_rho=log2_rho)
        for res in (solve_numeric(n, log2_rho=log2_rho), solve_limit(n)):
            assert_log2_residual_exact(n, res.a0, math.inf, log2_rho)
    for rho in (1.0, 2.5, 17.0):
        n = optimal_n(rho)
        assert_log2_residual_exact(n, solve_exact(n, rho).a0, rho, math.log2(rho))
    for n, rho in [(1, 100.0), (3, 500.0), (1, 1e300), (50, 1e300), (400, 2.0**1000)]:
        res = solve_beyond_alpha(n, rho)
        assert res.a0 > 4.0
        assert_log2_residual_exact(n, res.a0, rho, math.log2(rho))


@settings(max_examples=80, deadline=None)
@given(rho=st.floats(min_value=1.0, max_value=1e6, allow_nan=False))
def test_numeric_residual_property(rho):
    n = optimal_n(rho)
    if n <= 3:
        res = solve_exact(n, rho)
    else:
        res = solve_numeric(n, rho)
        assert alpha(n + 1) - 1e-12 <= res.a0 <= alpha(n + 2) + 1e-12
    assert eval_p(n, res.a0).to_float() == pytest.approx(rho, rel=1e-8)
