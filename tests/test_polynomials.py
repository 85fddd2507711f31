import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmath import mp, mpf

from linesearch import polynomials
from linesearch.polynomials import (
    PolyEval,
    alpha,
    dlog2_p_dt,
    eval_p,
    eval_p_and_derivative,
    log2_p_at_alpha_next,
    log2_p_at_alpha_next2,
    log2_p_cosh_excess,
    log2_p_theta_excess,
    log2_p_theta_excess_and_slope,
    p_theta_terms,
    theta_of_x,
    x_of_theta,
)

from _oracles import p_at_theta_mp, p_recurrence_mp, p_sequence_mp, poly_coeffs, poly_eval


def test_polyeval_roundtrip():
    for v in (0.0, 1.0, -1.0, 3.25, -1.75e300, 5.0e-300, 123456.789):
        pe = PolyEval.from_float(v)
        assert pe.to_float() == v
        if v != 0.0:
            assert 1.0 <= abs(pe.mantissa) < 2.0


def test_eval_p_base_cases():
    assert eval_p(0, 4.0).to_float() == 4.0
    assert eval_p(1, 4.0).to_float() == 12.0
    assert eval_p(0, -2.5).to_float() == -2.5


def test_eval_p_power_point():
    # p_2(4) = 32: the i=2 instance of p_i(4) = (2i+4) 2^i.
    assert eval_p(2, 4.0).to_float() == 32.0


def test_eval_p_degree_three_by_hand():
    # p_3(3) = 3^4 - 3*3^3 + 3^2 = 9, cross-checked against the exact
    # integer-coefficient expansion.
    assert eval_p(3, 3.0).to_float() == 9.0
    assert poly_eval(poly_coeffs(3), 3.0) == 9.0
    assert poly_coeffs(3) == [0, 0, 1, -3, 1]


@pytest.mark.parametrize("x", [0.3, 0.9, 1.7, 2.4, 3.1, 3.9, 4.2])
def test_eval_p4_factored_form(x):
    expected = x**3 * (x - 1.0) * (x - 3.0)
    assert eval_p(4, x).to_float() == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", range(13))
def test_eval_p_matches_integer_expansion(n):
    coeffs = poly_coeffs(n)
    for x in (-0.7, 0.1, 0.5, 1.3, 2.2, 3.4, 3.99, 4.0, 4.7):
        expected = poly_eval(coeffs, x)
        got = eval_p(n, x).to_float()
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-9)


def test_eval_p_rejects_bad_input():
    with pytest.raises(ValueError):
        eval_p(-1, 2.0)
    with pytest.raises(ValueError):
        eval_p(3, math.inf)


def test_alpha_closed_forms():
    assert alpha(0) == 0.0
    assert alpha(1) == pytest.approx(1.0, abs=1e-15)
    assert alpha(2) == pytest.approx(2.0, abs=1e-15)
    assert alpha(3) == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-14)
    assert alpha(4) == pytest.approx(3.0, abs=1e-14)
    assert alpha(6) == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-14)


def test_alpha_strictly_increasing_bounded():
    prev = -1.0
    for n in range(0, 1001):
        a = alpha(n)
        assert prev < a < 4.0
        prev = a


def test_p_at_alpha_values():
    assert 2.0 ** log2_p_at_alpha_next(0) == pytest.approx(1.0, rel=1e-14)
    # n = 3: alpha_4 = 3 and 3^((3+1)/2) = 9; the recurrence agrees.
    assert 2.0 ** log2_p_at_alpha_next(3) == pytest.approx(9.0, rel=1e-13)
    assert eval_p(3, alpha(4)).to_float() == pytest.approx(9.0, rel=1e-12)


def test_p_at_alpha2_matches_quoted_boundary():
    # p_3(alpha_5) = alpha_5^(5/2) = 32 cos^5(pi/7), the largest rho that
    # exact mode (n <= 3) serves; approximately 18.99761.
    expected = 32.0 * math.cos(math.pi / 7.0) ** 5
    assert 2.0 ** log2_p_at_alpha_next2(3) == pytest.approx(expected, rel=1e-13)
    assert 2.0 ** log2_p_at_alpha_next2(3) == pytest.approx(18.99761, abs=5e-6)


def test_upper_edge_is_the_next_brackets_lower_edge():
    # Bracket n's upper edge p_n(alpha_{n+2}) is bracket n + 1's lower edge,
    # alpha_{n+2}^((n+2)/2), to the last bit.
    for n in range(5000):
        want = 0.5 * (n + 2) * math.log2(alpha(n + 2))
        assert log2_p_at_alpha_next2(n) == log2_p_at_alpha_next(n + 1) == want, n


@pytest.mark.parametrize("n", range(0, 51))
def test_closed_form_agreement(n):
    # Recurrence vs alpha_{n+1}^((n+1)/2) and alpha_{n+2}^((n+2)/2).
    for edge, want in ((alpha(n + 1), log2_p_at_alpha_next(n)),
                       (alpha(n + 2), log2_p_at_alpha_next2(n))):
        pe = eval_p(n, edge)
        assert pe.mantissa > 0
        assert math.log2(abs(pe.mantissa)) + pe.exp2 == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("n", range(0, 51))
def test_alpha_is_root(n):
    scale = 2.0 ** log2_p_at_alpha_next(max(n - 1, 0))
    assert abs(eval_p(n, alpha(n)).to_float()) <= 1e-9 * max(scale, 1.0)


def test_sum_identity():
    # p_{n+1}(x) = x p_n(x) - sum_{i=0}^n p_i(x) for n <= 50.
    xs = [0.125, 0.5, 1.1, 1.9, 2.5, 3.2, 3.8, 4.0]
    for x in xs:
        vals = [eval_p(i, x).to_float() for i in range(52)]
        acc = 0.0
        for n in range(0, 51):
            acc += vals[n]
            lhs = vals[n + 1]
            rhs = x * vals[n] - acc
            scale = max(abs(x * vals[n]), abs(acc), 1.0)
            assert abs(lhs - rhs) <= 1e-10 * scale, (n, x)


def test_power_of_two_identity_exact():
    # p_i(4) = (2i+4) 2^i, exactly representable and exactly reproduced.
    for i in range(31):
        assert eval_p(i, 4.0).to_float() == (2.0 * i + 4.0) * 2.0**i


def test_adjacent_order_inside_and_outside_bracket():
    # Between alpha_{n+1} and alpha_{n+2} the next polynomial is smaller;
    # from alpha_{n+2} on it is at least as large.
    for n in (0, 1, 2, 5, 10, 25):
        lo, hi = alpha(n + 1), alpha(n + 2)
        for t in (0.25, 0.5, 0.75):
            x = lo + t * (hi - lo)
            assert eval_p(n + 1, x).to_float() < eval_p(n, x).to_float(), (n, x)
        # At x = alpha_{n+2} the two agree exactly; float noise allowed.
        at_edge_hi = eval_p(n + 1, hi).to_float()
        assert at_edge_hi == pytest.approx(eval_p(n, hi).to_float(), rel=1e-12)
        for x in (hi + 0.01, 4.0, 4.5):
            assert eval_p(n + 1, x).to_float() >= eval_p(n, x).to_float(), (n, x)


def closed_form_roots(n: int) -> list[float]:
    """The nonzero roots 4 cos^2(k pi/(n+2)), 0 < k < (n+2)/2, then zeros up to degree n + 1."""
    tops = [4.0 * math.cos(k * math.pi / (n + 2)) ** 2 for k in range(1, (n + 1) // 2 + 1)]
    return tops + [0.0] * (n + 1 - len(tops))


def test_roots_examples():
    examples = {
        1: [0.0, 1.0],
        3: [0.0, 0.0, (3.0 - math.sqrt(5.0)) / 2.0, (3.0 + math.sqrt(5.0)) / 2.0],
        4: [0.0, 0.0, 0.0, 1.0, 3.0],
    }
    for n, roots in examples.items():
        assert sorted(closed_form_roots(n)) == pytest.approx(roots, abs=1e-14)
        assert alpha(n) == pytest.approx(max(roots), abs=1e-14)
        for r in roots:
            assert eval_p(n, r).to_float() == pytest.approx(0.0, abs=1e-13), (n, r)


@pytest.mark.parametrize("n", range(0, 26))
def test_roots_annihilate_and_count(n):
    roots = closed_form_roots(n)
    assert max(roots) == pytest.approx(alpha(n), abs=1e-14)
    coeffs = poly_coeffs(n)
    for r in roots:
        assert abs(poly_eval(coeffs, r)) <= 1e-7 * max(1.0, 4.0 ** (n + 1) / 2.0**n)
        assert abs(eval_p(n, r).to_float()) <= 1e-7 * max(1.0, 4.0 ** (n + 1) / 2.0**n)
    # p_n is monic, so it is the product of x - r over its roots: the count
    # of each root, zero included, is its multiplicity.
    for x in (-1.5, 4.5, 7.0):
        assert eval_p(n, x).to_float() == pytest.approx(math.prod(x - r for r in roots), rel=1e-12)


def test_large_n_no_overflow():
    # Growth is ~2^n near x = 4; exponent tracking must keep n = 10^6 finite.
    pe = eval_p(1_000_000, 4.2)
    assert math.isfinite(pe.mantissa) and 1.0 <= abs(pe.mantissa) < 2.0
    assert 1.30e6 <= math.log2(abs(pe.mantissa)) + pe.exp2 <= 1.40e6
    pe_small = eval_p(1_000_000, 0.5)
    assert math.isfinite(pe_small.mantissa)


@pytest.mark.parametrize("n", [1, 2, 3, 50])
@pytest.mark.parametrize("x", [1e160, -1e160, 1e300, -1e300, sys.float_info.max, -sys.float_info.max])
def test_eval_p_is_total_past_the_square_root_of_double_range(n, x):
    # x(x - 1) alone overflows here; the value itself is far past doubles.
    pe = eval_p(n, x)
    assert math.isfinite(pe.mantissa) and 1.0 <= abs(pe.mantissa) < 2.0
    with mp.workdps(50):
        ref = p_recurrence_mp(n, x)
        got = mpf(pe.mantissa) * mpf(2) ** pe.exp2
        assert abs(got - ref) <= mpf("1e-12") * abs(ref), (n, x)


@pytest.mark.parametrize("x", [5e-324, -5e-324, 1e-310])
def test_eval_p_is_total_at_subnormal_x(x):
    # Consecutive terms differ by a factor of about x here, and each one is
    # needed again two steps on, so neither may underflow in the frame.
    assert eval_p(0, x).to_float() == x
    assert eval_p(1, x).to_float() == -x
    for n in (2, 3, 10, 50):
        pe = eval_p(n, x)
        assert math.isfinite(pe.mantissa) and 1.0 <= abs(pe.mantissa) < 2.0, n
        with mp.workdps(60):
            ref = p_recurrence_mp(n, x)
            got = mpf(pe.mantissa) * mpf(2) ** pe.exp2
            assert abs(got - ref) <= mpf("1e-12") * abs(ref), (n, x)


def test_derivative_tracks_finite_differences():
    for n in (1, 2, 5, 12, 30):
        for x in (1.3, 2.7, 3.6):
            _, dp = eval_p_and_derivative(n, x)
            h = 1e-6
            fd = (eval_p(n, x + h).to_float() - eval_p(n, x - h).to_float()) / (2.0 * h)
            assert dp == pytest.approx(fd, rel=1e-7)


def test_a_power_of_two_scale_multiplies_value_and_slope_exactly():
    # The recurrence is linear in its seeds, so a power-of-two scale gives the
    # unscaled bits times the scale above x = 4, where every term is at
    # least the scale.  It keeps the slope finite where the unscaled slope
    # overflows: near x = 4 it is about n^2 / 24 times the value.
    rng = random.Random(27)
    for _ in range(300):
        n, x = rng.randint(0, 1000), 4.0 + 2.0 ** rng.uniform(-40.0, 4.0)
        scale = 2.0 ** -rng.randint(0, 512)
        p, dp = eval_p_and_derivative(n, x)
        if math.isfinite(dp):
            assert eval_p_and_derivative(n, x, scale) == (p * scale, dp * scale), (n, x, scale)
    p, dp = eval_p_and_derivative(1005, 4.0)
    assert math.isfinite(p) and not math.isfinite(dp)
    ps, dps = eval_p_and_derivative(1005, 4.0, 2.0**-512)
    assert ps == p * 2.0**-512
    with mp.workdps(50):
        h = mpf(2) ** -50
        slope = (p_recurrence_mp(1005, 4 + h) - p_recurrence_mp(1005, 4 - h)) / (2 * h)
        want = slope * mpf(2) ** -512
        assert abs(dps - want) <= 1e-12 * want


def test_plain_value_is_bit_identical_to_exponent_tracked():
    # Where no term leaves the normal range, rescaling by powers of two is
    # exact, so the plain recurrence reproduces eval_p bit for bit.
    rng = random.Random(8)
    xs = [-3.5, -1.0, -0.25, 0.0, 0.3, 1.0, 1.5, 2.0, 2.5, 3.0, 3.9, 4.0, 7.25, 1e3, 1e60]
    xs += [rng.uniform(-8.0, 8.0) for _ in range(200)]
    for n in range(4):
        for x in xs:
            assert eval_p_and_derivative(n, x)[0] == eval_p(n, x).to_float(), (n, x)
    finite = 0
    for _ in range(400):
        n = rng.randint(0, 1000)
        x = 4.0 + 2.0 ** rng.uniform(-40.0, 4.0)
        p, _ = eval_p_and_derivative(n, x)
        if math.isfinite(p):
            finite += 1
            assert p == eval_p(n, x).to_float(), (n, x)
    assert finite >= 100
    # Tiny and huge x, where eval_p's frame moves far from 2^0 at every step.
    normal = 0
    for _ in range(2000):
        n = int(2.0 ** rng.uniform(0.0, math.log2(1001.0))) - 1
        x = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 150.0)
        p, _ = eval_p_and_derivative(n, x)
        if sys.float_info.min <= abs(p) < math.inf:
            normal += 1
            assert p == eval_p(n, x).to_float(), (n, x)
    assert normal >= 300


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=25),
    x=st.floats(min_value=-1.0, max_value=5.0, allow_nan=False),
)
def test_factorized_form_oracle(n, x):
    # Closed-form factorization as a completely independent evaluation route.
    prod = x ** ((n + 1) // 2)
    for k in range(1, (n + 2) // 2 + 1):
        prod *= x - 4.0 * math.cos(k * math.pi / (n + 2)) ** 2
    got = eval_p(n, x).to_float()
    scale = max(abs(prod), (abs(x) + 4.0) ** (n + 1) * 1e-6, 1.0)
    assert abs(got - prod) <= 1e-8 * scale


# --- closed form in theta (x = 4 cos^2 theta) and t (x = 4 cosh^2 t) ----------


def _bracket_thetas(n: int, count: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.uniform(math.pi / (n + 4), math.pi / (n + 3)) for _ in range(count)]


@pytest.mark.parametrize("n", [4, 10, 100, 1000, 10_000])
def test_log2_p_theta_matches_recurrence_oracle(n):
    for theta in _bracket_thetas(n, 5, n):
        with mp.workdps(50):
            ref = mp.log(p_at_theta_mp(n, theta), 2)
        assert abs((n + 1) + log2_p_theta_excess(n, theta) - ref) <= 1e-14 * abs(ref), (n, theta)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 999, 2046])
def test_theta_kernel_value_is_log2_p_theta_excess(n):
    # The Newton kernel's value is the edge evaluator's, bit for bit, over
    # the whole of (0, pi/(n+2)) and not only the solving bracket.
    rng = random.Random(100 + n)
    top = math.pi / (n + 2)
    thetas = [top * rng.random() for _ in range(200)]
    thetas += [top * 2.0 ** -rng.uniform(0, 40) for _ in range(50)]  # down to 2^-40 of top
    for theta in (t for t in thetas if 0.0 < t < top):
        value = log2_p_theta_excess_and_slope(n, theta)[0]
        assert value == log2_p_theta_excess(n, theta), (n, theta)
    with pytest.raises(ValueError):
        log2_p_theta_excess_and_slope(n, top)


@pytest.mark.parametrize("n", [0, 4, 37, 1000])
def test_dlog2_p_dtheta_matches_oracle_slope(n):
    for theta in _bracket_thetas(n, 3, n + 1):
        with mp.workdps(50):
            h = mpf(10) ** -20
            up = mp.log(p_recurrence_mp(n, 4 * mp.cos(mpf(theta) + h) ** 2), 2)
            down = mp.log(p_recurrence_mp(n, 4 * mp.cos(mpf(theta) - h) ** 2), 2)
            ref = (up - down) / (2 * h)
        assert ref < 0
        assert abs(log2_p_theta_excess_and_slope(n, theta)[1] - ref) <= 1e-12 * abs(ref), (n, theta)


def _assert_terms_match_oracle(n: int, theta: float, scale: float = 1.0) -> list[float]:
    terms = p_theta_terms(n, theta, scale=scale)
    assert len(terms) == n
    with mp.workdps(50):
        refs = p_sequence_mp(n, 4 * mp.cos(mpf(theta)) ** 2)
        for i, (got, ref) in enumerate(zip(terms, refs)):
            want = mpf(scale) * ref
            assert abs(got - want) <= 1e-14 * want, (n, theta, scale, i)
    return terms


@pytest.mark.parametrize("n", [1, 5, 60, 999])
def test_p_theta_terms_match_oracle_term_by_term(n):
    # Every term, including those past (i+2) theta = pi/2, to a few ulps.
    _assert_terms_match_oracle(n, _bracket_thetas(n, 1, 7 * n)[0], scale=0.75)


def test_p_theta_terms_keep_extreme_scales():
    theta = math.pi / 1003.5  # n = 999 bracket, terms up to ~2^1000
    tiny = p_theta_terms(999, theta, scale=2.0**-1070)
    huge = p_theta_terms(999, theta, scale=1.0)
    assert tiny[0] > 0.0 and all(math.isfinite(v) for v in huge)
    assert tiny[-1] == pytest.approx(huge[-1] * 2.0**-1070, rel=1e-15)
    assert p_theta_terms(0, theta) == []
    with pytest.raises(ValueError):
        p_theta_terms(10, math.pi / 11)


def _normal_scale(n: int) -> float:
    # Terms run from about 4 scale to 2^(n+2) scale; this keeps them all normal.
    return 0.75 * 2.0 ** max(-1022, min(0, 1018 - n))


@pytest.mark.parametrize("n", [4, 31, 32, 33, 63, 64, 65, 1022, 1023, 2040])
def test_p_theta_terms_match_oracle_across_runs_and_bracket_edges(n):
    # The rotation restarts every 64 terms and turns back at phase pi/2;
    # run boundaries, both bracket edges and long runs must all stay within
    # the bound of the per-term closed form.
    scale = _normal_scale(n)
    edges = [math.pi / (n + 4), math.nextafter(math.pi / (n + 3), 0.0)]
    for theta in edges + _bracket_thetas(n, 2, 11 * n):
        terms = _assert_terms_match_oracle(n, theta, scale)
        assert all(sys.float_info.min <= t < math.inf for t in terms), (n, theta)


def _spy_on_runs(monkeypatch) -> list[tuple[int, int]]:
    """Record each p_theta_terms run's power of two and the part of it left to ldexp."""
    seed_radius, runs = polynomials._seed_radius, []

    def spy(v, exp2, span):
        r, rest = seed_radius(v, exp2, span)
        runs.append((exp2 + math.frexp(v)[1], rest))
        return r, rest

    monkeypatch.setattr(polynomials, "_seed_radius", spy)
    return runs


@pytest.mark.parametrize("n", [5, 200, 999])
def test_p_theta_terms_power_of_two_scales_are_exact(n, monkeypatch):
    theta = _bracket_thetas(n, 1, 13 * n)[0]
    base = p_theta_terms(n, theta)
    low, high = math.frexp(base[0])[1], math.frexp(base[-1])[1]
    top = 1024 - high  # the largest k that keeps the last term finite
    bottom = -1021 - low  # the smallest k that keeps the first term normal
    deep = max(-1074, bottom - (high - low) // 2)  # 2^k itself may be subnormal
    # A scale of 2^k adds k to each run's power of two.  At 2^fold the first
    # run's is the lowest that is folded into its seed; one below, ldexp
    # applies it term by term.  Both must give the same bits.
    runs = _spy_on_runs(monkeypatch)
    p_theta_terms(n, theta)
    fold = polynomials._FOLD_MIN - runs[0][0]
    for k in (fold - 1, fold, fold + 1):
        runs.clear()
        p_theta_terms(n, theta, scale=2.0**k)
        exp2, rest = runs[0]
        assert exp2 == polynomials._FOLD_MIN + k - fold and (rest == 0) == (k >= fold), (n, k)
    for k in (deep, bottom, bottom + 1, fold - 1, fold, fold + 1, -7, 3, top - 1, top):
        got = p_theta_terms(n, theta, scale=2.0**k)
        compared = 0
        for g, b in zip(got, base):
            want = math.ldexp(b, k)
            if want >= sys.float_info.min:
                assert g == want, (n, k)
                compared += 1
        assert compared > 0, (n, k)
    with pytest.raises(OverflowError):
        p_theta_terms(n, theta, scale=2.0 ** (top + 1))


HALF_PI_BELOW = math.nextafter(math.pi / 2, 0.0)  # the largest theta that n = 1 admits


@pytest.mark.parametrize("theta", [
    0.7853981633974484, 1.0, 1.3, 1.5, 1.57, HALF_PI_BELOW - 1e-6, HALF_PI_BELOW - 2e-8,
    HALF_PI_BELOW - 1e-8, HALF_PI_BELOW - 1e-12, HALF_PI_BELOW,
])
def test_p_theta_terms_at_n_1_up_to_pi_over_2(theta):
    # Past sin^2 theta = 1/2, ln cos theta comes from log(cos theta): its
    # log1p(-sin^2 theta) form cancels there and fails where sin^2 rounds to 1.
    (term,) = p_theta_terms(1, theta)
    want = p_at_theta_mp(0, theta)
    assert abs(term - want) <= 1e-14 * want, theta


def test_p_theta_terms_at_n_2_past_pi_over_4():
    rng = random.Random(11)
    thetas = [0.7853981633974484, math.nextafter(math.pi / 3, 0.0)]
    for theta in thetas + [rng.uniform(math.pi / 4, math.pi / 3) for _ in range(20)]:
        for i, term in enumerate(p_theta_terms(2, theta)):
            want = p_at_theta_mp(i, theta)
            assert abs(term - want) <= 1e-14 * want, (theta, i)


@pytest.mark.parametrize("n, top", [(0, math.pi / 2), (1, math.pi / 3)])
def test_log2_p_theta_excess_past_pi_over_4(n, top):
    # The theta form's ln cos theta is the expansion's: log(cos theta) past
    # sin^2 theta = 1/2, up to the last double below pi/(n+2).
    rng = random.Random(12 + n)
    last = math.nextafter(top, 0.0)
    thetas = [0.7853981633974484, last, last - 1e-6, last - 2e-8, last - 1e-12]
    for theta in thetas + [rng.uniform(math.pi / 4, top) for _ in range(30)]:
        with mp.workdps(50):
            want = mp.log(p_at_theta_mp(n, theta), 2) - (n + 1)
        got = log2_p_theta_excess(n, theta)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (n, theta)
        assert log2_p_theta_excess_and_slope(n, theta)[0] == got, (n, theta)


@pytest.mark.parametrize("forward, backward", [
    (0, 1), (0, 2), (1, 0), (5, 0), (100, 0), (63, 63), (64, 64), (65, 65), (63, 1), (65, 1),
    (1, 1), (128, 129),
])
def test_p_theta_terms_runs_on_each_side_of_pi_over_2(forward, backward, monkeypatch):
    # forward terms have phase (k+1) theta <= pi/2 and come bottom-up, the
    # backward ones top-down; one pass reads both, so counts of 63, 64 and
    # 65 on either side, and either side empty, must all match the oracle.
    n = forward + backward
    if forward:  # theta = pi/(2 forward + 3) puts k_mid at forward + 1
        theta = math.pi / (2 * forward + 3)
    else:  # phase 2 theta past pi/2 already
        theta = math.nextafter(math.pi / (n + 1), 0.0)
    runs = _spy_on_runs(monkeypatch)
    _assert_terms_match_oracle(n, theta, scale=0.75)
    assert len(runs) == -(-forward // 64) + -(-backward // 64)  # one _seed_radius call a run


def test_p_theta_terms_fold_some_runs_and_ldexp_others(monkeypatch):
    # At scale 2^-1000 the low runs lie below _FOLD_MIN, so ldexp applies
    # their power of two after the pass, while the high runs fold it.
    n = 999
    theta = _bracket_thetas(n, 1, 17 * n)[0]
    runs = _spy_on_runs(monkeypatch)
    _assert_terms_match_oracle(n, theta, scale=0.75 * 2.0**-1000)
    rests = [rest for _, rest in runs]
    assert len(rests) == 16 and 0 in rests and any(rests)


@pytest.mark.parametrize("n", [1, 3, 30, 500])
def test_cosh_form_matches_recurrence_oracle(n):
    for t in (1e-4, 0.3, 2.0, 40.0):
        if (n + 1) * t > 700.0:  # p_n beyond double range: nothing uses it
            continue
        with mp.workdps(50):
            x = 4 * mp.cosh(mpf(t)) ** 2
            ref = mp.log(p_recurrence_mp(n, x), 2) - (n + 1)
            h = mpf(10) ** -20
            slope = (mp.log(p_recurrence_mp(n, 4 * mp.cosh(mpf(t) + h) ** 2), 2)
                     - mp.log(p_recurrence_mp(n, 4 * mp.cosh(mpf(t) - h) ** 2), 2)) / (2 * h)
        assert abs(log2_p_cosh_excess(n, t) - ref) <= 1e-14 * max(1.0, abs(ref)), (n, t)
        assert abs(dlog2_p_dt(n, t) - slope) <= 1e-9 * abs(slope), (n, t)


def test_theta_x_maps():
    assert x_of_theta(math.pi / 3.0) == pytest.approx(1.0, rel=1e-15)
    assert x_of_theta(0.0) == 4.0
    for x in (0.0, 1.0, 2.5, 3.999999, 4.0):
        assert x_of_theta(theta_of_x(x)) == pytest.approx(x, abs=4 * math.ulp(4.0))
    with pytest.raises(ValueError):
        theta_of_x(4.5)
    with pytest.raises(ValueError):
        log2_p_theta_excess(10, math.pi / 12)  # p_10 vanishes there
