import math
import random
from fractions import Fraction

import numpy as np
import pytest

from linesearch import cli
from linesearch.mrays import (
    ALPHA_TABLE,
    InfeasibleParamsError,
    RayFamilyParams,
    breakpoint_ratios,
    feasible_b_interval,
    mray_breakpoint_ratios,
    mray_worst_ratio,
    multi_p,
    optimal_cost_coefficient,
    verify_alpha_table,
)
from linesearch.polynomials import alpha, eval_p
from linesearch.simulate import baselines, worst_case_ratio

from _oracles import (
    breakpoint_ratios_loop,
    mray_cost_scan,
    mray_family_ratios_exact,
    mray_worst_cost,
)


# --- family ------------------------------------------------------------------


def test_family_power_of_two():
    params = RayFamilyParams(m=2, a=0.0, b=1.0)
    assert params.turns(4) == [1.0, 2.0, 4.0, 8.0]


def test_family_limit_member():
    params = RayFamilyParams(m=2, a=2.0, b=4.0)
    assert params.turns(3) == [4.0, 12.0, 32.0]


def test_feasible_interval_m2():
    assert feasible_b_interval(2, 1.0) == pytest.approx((2.0, 4.0))
    assert feasible_b_interval(2, 0.0) == pytest.approx((1.0, 4.0))


def test_feasible_interval_m3():
    # M = 27/4: upper bound ((27/4 - 9) a + (3/2)(27/4)) / (27/4 - 3).
    m_big = 27.0 / 4.0
    lo, hi = feasible_b_interval(3, 0.5)
    assert lo == pytest.approx(max(1.0, 1.5))
    assert hi == pytest.approx(((m_big - 9.0) * 0.5 + 1.5 * m_big) / (m_big - 3.0))


def test_infeasible_params_carry_interval():
    with pytest.raises(InfeasibleParamsError) as exc:
        RayFamilyParams(m=2, a=0.0, b=5.0)
    assert exc.value.interval == pytest.approx((1.0, 4.0))
    with pytest.raises(ValueError):
        RayFamilyParams(m=1, a=0.0, b=1.0)
    with pytest.raises(ValueError, match="slope a must be non-negative, got -1.0"):
        feasible_b_interval(3, -1.0)


RAY_CHECKS = {
    "feasible_b_interval": lambda m: feasible_b_interval(m, 0.0),
    "RayFamilyParams": lambda m: RayFamilyParams(m=m, a=0.0, b=1.0),
    "breakpoint_ratios": lambda m: breakpoint_ratios([2.0**i for i in range(12)], m, 1.0, 5),
    "multi_p": lambda m: multi_p(3, (1.0,), m),
}


@pytest.mark.parametrize("entry", RAY_CHECKS)
@pytest.mark.parametrize("m, message", [
    (2.5, "must be an integer, got m=2.5"),
    (3.0, "must be an integer, got m=3.0"),
    (True, "need at least 2 rays, got m=True"),
    (1, "need at least 2 rays, got m=1"),
])
def test_every_entry_refuses_a_ray_count_that_is_not_an_integer_from_2(entry, m, message):
    with pytest.raises(ValueError, match=message):
        RAY_CHECKS[entry](m)


# --- m-ray cost ----------------------------------------------------------------


def test_mray_cost_reduces_to_line_cost():
    # On two rays the cyclic walk is the line's alternating walk, and the
    # terminal serves every distance past the last turn.
    s = baselines("power_of_two", 1.0, 64.0)
    got = breakpoint_ratios([*s.turns, s.terminal], 2, 1.0, len(s.turns))
    assert got == list(worst_case_ratio(s).interval_sups)
    assert got[:4] == [3.0, 7.0, 8.0, 8.5]


def test_mray_cost_three_rays_below_first_turn():
    # D just under f(0) = 1 on 3 rays: clear the other two rays first.
    lam = 1.0 - 1e-9
    ratio = breakpoint_ratios(lambda i: 1.5**i, 3, lam, 3)[0]
    assert ratio * lam == pytest.approx(2.0 * (1.0 + 1.5) + 1.0, rel=1e-8)
    assert ratio <= 1.0 + 2.0 * 27.0 / 4.0  # within the m = 3 optimal bound


def test_mray_cost_matches_walk_oracle():
    # Entry 0 prices D = lam below f(0); entry j + 1 the limit D -> f(j)+.
    lam, horizon = 0.75, 30
    for m in (2, 3, 4, 5):
        f = lambda i, m=m: (0.5 * i + 1.0) * (m / (m - 1.0)) ** i
        ratios = breakpoint_ratios(f, m, lam, horizon)
        assert ratios[0] == pytest.approx(mray_cost_scan(f, m, lam) / lam, rel=1e-12)
        assert ratios[0] == pytest.approx(mray_worst_cost(f, m, lam) / lam, rel=1e-12)
        for j in range(horizon):
            d, above = f(j), f(j) * (1.0 + 1e-12)
            assert ratios[j + 1] == pytest.approx(mray_cost_scan(f, m, d) / d, rel=1e-12)
            assert ratios[j + 1] == pytest.approx(
                mray_worst_cost(f, m, above) / above, rel=1e-9
            ), (m, j)


# --- worst ratio -----------------------------------------------------------------


def test_worst_ratio_limits():
    assert mray_worst_ratio(RayFamilyParams(2, 0.0, 1.0), 40) == pytest.approx(9.0, abs=1e-9)
    assert mray_worst_ratio(RayFamilyParams(3, 0.0, 1.0), 60) == pytest.approx(14.5, abs=1e-9)
    # The limit member equalizes at 9 exactly for every horizon.
    assert mray_worst_ratio(RayFamilyParams(2, 2.0, 4.0), 40) == pytest.approx(9.0, rel=1e-12)


def test_worst_ratio_bounds_random_feasible():
    rng = np.random.default_rng(11)
    for m in (2, 3, 4, 5):
        upper = 1.0 + 2.0 * optimal_cost_coefficient(m)
        lower = 1.0 + 2.0 * (m - 1.0)
        for _ in range(10):
            a = float(rng.uniform(0.0, m / (m - 1.0) ** 2))
            lo, hi = feasible_b_interval(m, a)
            b = float(rng.uniform(lo, hi))
            params = RayFamilyParams(m=m, a=a, b=b)
            ratios = mray_breakpoint_ratios(params, 80)
            assert all(lower - 1e-9 <= r <= upper for r in ratios), (m, a, b)


def test_infeasibility_detected_above_upper_bound():
    for m in (2, 3, 4, 5):
        a = 0.3
        _, hi = feasible_b_interval(m, a)
        b_bad = hi * 1.01
        c = m / (m - 1.0)
        ratios = breakpoint_ratios(lambda i: (a * i + b_bad) * c**i, m, 1.0, 80)
        bound = 1.0 + 2.0 * optimal_cost_coefficient(m)
        assert max(ratios) > bound + 1e-9, m


def test_infeasibility_detected_below_lower_bound():
    # b below m*a (with m*a > 1) also pushes a breakpoint past the bound.
    for m in (2, 3, 4, 5):
        a = 2.0
        lo, _ = feasible_b_interval(m, a)
        b_bad = lo * 0.99
        c = m / (m - 1.0)
        ratios = breakpoint_ratios(lambda i: (a * i + b_bad) * c**i, m, 1.0, 80)
        bound = 1.0 + 2.0 * optimal_cost_coefficient(m)
        assert max(ratios) > bound + 1e-9, m
    # And b below 1 starts the search short of the lower distance bound.
    assert 0.99 * 1.0 < 1.0  # f(0) = b lambda < lambda


def test_worst_ratio_requires_m_horizon():
    params = RayFamilyParams(3, 0.0, 1.0)
    with pytest.raises(ValueError):
        mray_worst_ratio(params, 2)
    # A float horizon is refused by name, whole or not: the entries are
    # priced in integers.
    for horizon in (5.5, 3.0):
        for call in (mray_worst_ratio, mray_breakpoint_ratios,
                     lambda params, h: breakpoint_ratios(params.f, 3, 1.0, h)):
            with pytest.raises(ValueError, match=f"horizon must be an integer, got horizon={horizon}"):
                call(params, horizon)


def test_params_reject_subnormal_lambda():
    with pytest.raises(ValueError, match="subnormal"):
        RayFamilyParams(2, 0.0, 1.0, lambda_=1e-315)


def test_horizon_beyond_double_range(capsys):
    params = RayFamilyParams(2, 2.0, 4.0)
    assert mray_worst_ratio(params, 1011) == pytest.approx(9.0, abs=1e-9)
    # f(i) = (2i + 4) 2^i: the cost sums overflow first, then the turns, then 2^i.
    for horizon in (1012, 1015, 5000):
        with pytest.raises(ValueError, match=f"^horizon {horizon} is too large"):
            mray_worst_ratio(params, horizon)
    # A callable's own overflow, 2.0 ** 1024 here, is the same refusal.
    with pytest.raises(ValueError, match="^horizon 1100 is too large"):
        breakpoint_ratios(lambda i: 2.0**i, 2, 1.0, 1100)
    assert cli.main(["mray", "--m", "2", "--a", "2", "--b", "4", "--horizon", "5000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: horizon 5000 is too large: the turns up to it or their sums overflow a double\n"
    )


def test_small_lambda_keeps_horizons_past_the_power_overflow(capsys):
    # 2^i leaves double range at i = 1024, but 2^i * 1e-100 stays finite to i ~ 1350.
    params = RayFamilyParams(2, 0.0, 1.0, lambda_=1e-100)
    assert params.f(1100) == 2.0**550 * 1e-100 * 2.0**550
    assert mray_worst_ratio(params, 1100) == pytest.approx(9.0, abs=1e-9)
    with pytest.raises(ValueError, match="^horizon 1400 is too large"):
        mray_worst_ratio(params, 1400)
    argv = ["mray", "--m", "2", "--a", "0", "--b", "1", "--lambda", "1e-100", "--horizon", "1100"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and '"worst_ratio": 9.0000000000000000e+00' in out


def test_turns_stay_finite_where_only_the_unscaled_product_overflows():
    # (a i + b) 2^i passes the largest double from i = 1014 here, but lambda
    # brings the turn back to about 1e208; the turns stay finite to i ~ 1340.
    params = RayFamilyParams(2, 1.25, 2.5, lambda_=1e-100)
    assert params.f(1013) == (1.25 * 1013 + 2.5) * 2.0**1013 * 1e-100
    assert params.f(1014) == (1.25 * 1014 + 2.5) * 1e-100 * 2.0**507 * 2.0**507
    assert all(map(math.isfinite, params.turns(1300)))
    # b = m a: every entry past the first is 1 + 2M = 9 exactly.
    assert mray_worst_ratio(params, 1100) == 9.0
    with pytest.raises(ValueError, match="^horizon 1400 is too large"):
        mray_worst_ratio(params, 1400)


def _family_cases():
    rng = random.Random(7)
    cases = [RayFamilyParams(2, 2.0, 4.0), RayFamilyParams(2, 0.0, 1.0, lambda_=1e-100)]
    for k in range(60):
        m = 2 + k % 7
        a = m / (m - 1) ** 2 * rng.random()
        lo, hi = feasible_b_interval(m, a)
        lam = rng.choice([1.0, 1e-100, 1e-300, 2.0**-1022, 1e100, 2.0 ** rng.uniform(-1000, 1000)])
        cases.append(RayFamilyParams(m, a, lo + (hi - lo) * rng.random(), lambda_=lam))
    return cases


def test_turns_are_f_bit_for_bit():
    for params in _family_cases():
        for count in (1, 9, 300, 1100):
            assert params.turns(count) == [params.f(i) for i in range(count)], (params, count)
    # Past i = 1024 the powers overflow and f halves them; turns takes the same path.
    params = RayFamilyParams(2, 0.0, 1.0, lambda_=1e-100)
    assert params.turns(1400) == [params.f(i) for i in range(1400)]
    assert params.turns(1400)[1100] == 2.0**550 * 1e-100 * 2.0**550
    with pytest.raises(OverflowError):
        params.turns(2100)


def test_breakpoint_ratios_are_the_loop_reference():
    for params in _family_cases():
        m, lam = params.m, params.lambda_
        for horizon in (m, 40, 200, 1000, 1100):
            try:
                values = [params.f(i) for i in range(horizon + m - 1)]
            except OverflowError:
                continue
            try:
                want = breakpoint_ratios_loop(values, m, lam, horizon)
            except ValueError:
                for f in (values, params.f):
                    with pytest.raises(ValueError, match="too large"):
                        breakpoint_ratios(f, m, lam, horizon)
                with pytest.raises(ValueError, match="too large"):
                    mray_breakpoint_ratios(params, horizon)
                continue
            assert breakpoint_ratios(values, m, lam, horizon) == want, (params, horizon)
            assert breakpoint_ratios(params.f, m, lam, horizon) == want, (params, horizon)
            exact = mray_family_ratios_exact(m, params.a, params.b, lam, horizon)
            got = mray_breakpoint_ratios(params, horizon)
            assert _ulps_off(got, exact, m) <= 2, (params, horizon)
    # Turns outside the family, callable and listed, including ties.
    flat = [1.0, 1.0, 3.0, 3.0, 3.0, 8.0, 20.0, 20.0, 50.0, 51.0]
    for m in (2, 3, 4):
        horizon = len(flat) - m + 1
        want = breakpoint_ratios_loop(flat, m, 0.5, horizon)
        assert breakpoint_ratios(flat, m, 0.5, horizon) == want
        assert breakpoint_ratios(flat.__getitem__, m, 0.5, horizon) == want


def test_breakpoint_ratios_need_every_turn_of_the_horizon():
    with pytest.raises(ValueError, match="needs 11 turns, got 10"):
        breakpoint_ratios([2.0**i for i in range(10)], 2, 1.0, 10)


def _ulps_off(got, exact, m: int) -> float:
    """The largest |got - exact| over the entries, in ulps of the m-ray bound 1 + 2M.

    ``exact`` holds (numerator, denominator) pairs.
    """
    off = []
    for g, (num, den) in zip(got, exact, strict=True):
        g_num, g_den = g.as_integer_ratio()
        off.append(abs(g_num * den - num * g_den) / (g_den * den))
    return max(off) / math.ulp(1.0 + 2.0 * optimal_cost_coefficient(m))


def _largest(pairs) -> Fraction:
    # The largest ratio rounds to the largest double, so only ties there need exact comparing.
    top = max(num / den for num, den in pairs)
    best = pairs[0]
    for num, den in pairs:
        if num / den == top and num * best[1] > best[0] * den:
            best = num, den
    return Fraction(*best)


def _exact_corpus():
    """Members for m = 2..8: b at lo, at hi, inside and just past hi, at several lambda."""
    rng = random.Random(26)
    for m in range(2, 9):
        for lam in (1.0, 1e-100, 1e100, 2.0**-1022, 2.0 ** rng.uniform(-1000, 1000)):
            a = m / (m - 1) ** 2 * rng.random()
            lo, hi = feasible_b_interval(m, a)
            inside = (lo + (hi - lo) * rng.random() for _ in range(2))
            for b in (lo, hi, *inside, hi * (1 + 1e-13)):
                yield RayFamilyParams(m, a, b, lambda_=lam)


def test_family_pricing_is_the_exact_pricing_rounded():
    priced = 0
    for params in _exact_corpus():
        m, a, b, lam = params.m, params.a, params.b, params.lambda_
        top = 1.0 + 2.0 * optimal_cost_coefficient(m)
        lo, hi = feasible_b_interval(m, a)
        for horizon in (m, 40, 200, 1000):
            try:
                got = mray_breakpoint_ratios(params, horizon)
            except ValueError:
                continue
            exact = mray_family_ratios_exact(m, a, b, lam, horizon)
            assert _ulps_off(got, exact, m) <= 2, (params, horizon)
            # Inside [lo, hi] the worst ratio is held to bound_upper.  Where hi
            # rounds past the exact end of the interval, the exact maximum at
            # b = hi is above bound_upper, and bound_upper is the nearest value
            # that keeps the bound.
            want = _largest(exact)
            if lo <= b <= hi:
                want = min(want, Fraction(top))
            worst = mray_worst_ratio(params, horizon)
            assert _ulps_off([worst], [want.as_integer_ratio()], m) <= 1, (params, horizon)
            priced += 1
    assert priced >= 500


def test_feasible_members_never_price_above_the_bound():
    rng = random.Random(2026)
    priced = 0
    for _ in range(400):
        m = rng.randint(2, 40)
        a = m / (m - 1) ** 2 * rng.random()
        lo, hi = feasible_b_interval(m, a)
        b = rng.choice((lo, hi, lo + (hi - lo) * rng.random()))
        lam = rng.choice((1.0, 1e-100, 1e100, 2.0 ** rng.uniform(-1000, 1000)))
        horizon = rng.choice((m, 200, 1000, 3000))
        try:
            worst = mray_worst_ratio(RayFamilyParams(m, a, b, lambda_=lam), horizon)
        except ValueError:
            continue
        assert worst <= 1.0 + 2.0 * optimal_cost_coefficient(m), (m, a, b, lam, horizon)
        priced += 1
    assert priced >= 300


@pytest.mark.parametrize("name, a, b", [("power_of_two", 0.0, 1.0), ("f_infinity", 2.0, 4.0)])
def test_line_baselines_are_two_ray_members(name, a, b):
    # On two rays, 1 + 2 S_{j+1} / t_j = 9 - 2 (b - 2a) lambda / t_j: the middle
    # intervals of the line simulator's pricing are the family's entries j + 1.
    for lam in (1.0, 0.3, 1e-100, 1e100):
        strategy = baselines(name, lam, lam * 2.0**60)
        turns, sups = strategy.turns, worst_case_ratio(strategy).interval_sups
        family = mray_breakpoint_ratios(RayFamilyParams(2, a, b, lambda_=lam), len(turns) - 1)
        for j, sup in enumerate(sups[1:-1]):
            assert abs(sup - (9.0 - 2.0 * (b - 2.0 * a) * lam / turns[j])) <= math.ulp(9.0)
            assert abs(sup - family[j + 1]) <= math.ulp(9.0), (name, lam, j)
        if name == "f_infinity":
            assert set(family[1:]) == {9.0}


def test_family_pricing_calls_no_method_per_turn(monkeypatch):
    # The closed form reads f only for the overflow refusal, whatever the horizon.
    calls = []
    f = RayFamilyParams.f

    def counted(self, i):
        calls.append(i)
        return f(self, i)

    monkeypatch.setattr(RayFamilyParams, "f", counted)
    counts = []
    for horizon in (200, 1000):
        calls.clear()
        mray_worst_ratio(RayFamilyParams(5, 0.1, 1.2), horizon)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 3
    assert RayFamilyParams(2, 0.0, 1.0).turns(4) == [1.0, 2.0, 4.0, 8.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_family_parameters_are_refused(bad):
    with pytest.raises(ValueError, match="slope a must be finite") as exc:
        feasible_b_interval(2, bad)
    assert type(exc.value) is ValueError
    for a, b in ((bad, 1.0), (0.0, bad)):
        with pytest.raises(ValueError, match="must be finite") as exc:
            RayFamilyParams(2, a, b)
        assert type(exc.value) is ValueError


# --- multivariate recurrence ------------------------------------------------------


def test_multi_p_base_and_examples():
    assert multi_p(2, (1.0, 1.0), 3) == 0.0  # |x|(x0 - 1) = 2 * 0
    assert multi_p(4, (1.5, 1.5), 3) == pytest.approx(0.0, abs=1e-12)
    assert multi_p(0, (1.3, 2.0), 3) == 1.3
    assert multi_p(1, (1.3, 2.0), 3) == 2.0


def test_multi_p_dimension_mismatch():
    with pytest.raises(ValueError):
        multi_p(2, (1.0, 1.0, 1.0), 3)
    with pytest.raises(ValueError):
        multi_p(-1, (1.0,), 2)


def test_multi_p_reduces_to_univariate():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(0, 31))
        x = float(rng.uniform(0.0, 4.0))
        got = multi_p(n, (x,), 2)
        expected = eval_p(n, x).to_float()
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


# --- table verification --------------------------------------------------------------


def test_alpha_table_has_28_entries():
    assert len(ALPHA_TABLE) == 28
    assert set(ALPHA_TABLE) == {(m, n) for m in range(2, 6) for n in range(7)}


def test_alpha_table_all_entries_verify():
    for m in range(2, 6):
        for n in range(7):
            assert verify_alpha_table(m, n), (m, n)


def test_alpha_table_examples():
    assert verify_alpha_table(4, 5)
    assert verify_alpha_table(5, 4)
    assert verify_alpha_table(2, 6)
    # m = 2 column equals the univariate roots.
    for n in range(7):
        assert ALPHA_TABLE[(2, n)][0] == pytest.approx(alpha(n), rel=1e-14, abs=1e-14)


def test_alpha_table_out_of_range():
    with pytest.raises(ValueError):
        verify_alpha_table(6, 0)
    with pytest.raises(ValueError):
        verify_alpha_table(2, 7)


# --- fixed point of the limit strategy ------------------------------------------------


def limit_member(m: int) -> RayFamilyParams:
    """The member with a = m/(m-1)^2 and b = m a, both at their largest allowed values."""
    a = m / (m - 1) ** 2
    return RayFamilyParams(m, a, m * a)


def limit_fixed_point(m: int, n: int) -> bool:
    """p_n(f(0), ..., f(m-2)) = f(n) for the limit member's turns f."""
    turns = limit_member(m).turns(max(n + 1, m - 1))
    lhs, rhs = multi_p(n, turns[: m - 1], m), turns[n]
    return abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def test_limit_family_params_m2():
    params = limit_member(2)
    assert (params.a, params.b) == (2.0, 4.0)
    # The upper b constraint meets b = m a there, closing the b interval.
    for m in range(2, 9):
        params = limit_member(m)
        assert feasible_b_interval(m, params.a) == pytest.approx((params.b, params.b), rel=1e-12)


def test_fixed_point_m2_n5():
    # p_5(4) = 14 * 32 = 448, the sixth turn of the limit strategy.
    assert eval_p(5, 4.0).to_float() == 448.0
    assert limit_fixed_point(2, 5)
    assert limit_fixed_point(2, 0)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 12])
def test_fixed_point_all(m, n):
    assert limit_fixed_point(m, n)


def test_multi_p_takes_plain_coordinates_and_the_table_checks_order(monkeypatch):
    from linesearch import mrays

    assert multi_p(4, (1.5, 1.5), 3) == pytest.approx(0.0, abs=1e-12)
    assert multi_p(4, [1, 2], 3) == multi_p(4, (1.0, 2.0), 3)
    # Each coordinate must be at least the one before it, the first at least 0.
    for unordered in ((1.5, 1.0), (-0.5, 1.5)):
        monkeypatch.setitem(mrays.ALPHA_TABLE, (3, 3), unordered)
        assert not mrays.verify_alpha_table(3, 3)
    monkeypatch.setitem(mrays.ALPHA_TABLE, (3, 3), (1.5, 1.5 - 1e-12))  # within tol
    assert mrays.verify_alpha_table(3, 3, tol=1e-10)


def test_multi_p_sum_identity():
    # p_{n+m-1} = |x| p_n - sum_{i=0}^{n+m-2} p_i, the m-ray analogue of the
    # univariate sum identity; checked on random points.
    rng = np.random.default_rng(17)
    for m in (2, 3, 4, 5):
        for _ in range(20):
            point = tuple(sorted(rng.uniform(0.5, 3.0, size=m - 1)))
            total = sum(point)
            for n in range(0, 10):
                lhs = multi_p(n + m - 1, point, m)
                rhs = total * multi_p(n, point, m) - sum(
                    multi_p(i, point, m) for i in range(n + m - 1)
                )
                scale = max(abs(lhs), abs(rhs), 1.0)
                assert abs(lhs - rhs) <= 1e-10 * scale, (m, n, point)
