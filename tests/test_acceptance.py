"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``PYTHONPATH=src python -m pytest tests/test_acceptance.py -v -s``).

Erratum in criterion 8.  As first written, criterion 8 asked for

    8cos^2(pi/(ceil(log2 rho)+2)) + 1 <= CR   and   (9 - CR) log2^2(rho) >= 1

over the whole sweep.  Both forms are false for every search strategy, so
no solver can meet them:

* The ceil(log2 rho)+2 lower edge fails just above every power of two,
  where the optimal iteration count drops.  First sweep witness:
  rho = 4.006508717001967, n = 1, single turn 2.5631308046, CR =
  6.1262616093 < 6.2360679775.  The independent oracle
  ``_oracles.brute_worst_ratio`` prices that strategy at 6.1262616093 too,
  so a strategy below the edge exists and the optimum lies below it.
* The rate floor fails at rho = 1 (the sweep's e = 0 point), where the
  log factor is 0 and so is the product, whatever the ratio; it fails
  for rho < 2 in general.

What the bracket argument proves, and criterion 8 now asserts: a_0 lies in
[alpha_{n+1}, alpha_{n+2}] with alpha_k = 4cos^2(pi/(k+2)), and n is
floor(log2 rho) - 1 or floor(log2 rho) (criterion 4), so

    8cos^2(pi/(n+3)) + 1 <= CR <= 8cos^2(pi/(n+4)) + 1,

i.e. a lower edge with floor(log2 rho)+2 (equal to ceil(log2 rho)+1 off
the powers of two) under the unchanged floor(log2 rho)+4 upper edge.
Below rho = 2 the ratio is exactly the single-shot 2 rho + 1, and the rate
bound 1 <= (9 - CR) log2^2(rho) <= 1e3 is asserted for rho >= 2.  The
refutation of the stated lower edge is itself asserted, with the witness
priced by the oracle rather than the package's simulator.
"""

import math
import time

import numpy as np

from _oracles import brute_worst_ratio
from linesearch.mrays import (
    RayFamilyParams,
    breakpoint_ratios,
    feasible_b_interval,
    mray_worst_ratio,
    optimal_cost_coefficient,
    verify_alpha_table,
)
from linesearch.optimal import SearchProblem, optimal_n, optimize
from linesearch.polynomials import (
    alpha,
    eval_p,
    log2_p_at_alpha_next,
    log2_p_at_alpha_next2,
)
from linesearch.reach import ReachQuery, maximal_reach
from linesearch.simulate import grid_sweep_ratio, worst_case_ratio
from linesearch.solve import (
    cr_error_bound_limit,
    solve_beyond_alpha,
    solve_exact,
    solve_limit,
    solve_numeric,
)

SWEEP_SEED = 99173


def sweep_exponents(count: int = 10_000, top: float = 40.0) -> np.ndarray:
    rng = np.random.default_rng(SWEEP_SEED)
    exps = rng.uniform(0.0, top, size=count - 2)
    return np.concatenate(([0.0], np.sort(exps), [top]))


def report(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def timer():
    start = time.monotonic()
    return lambda: time.monotonic() - start


def test_criterion_01_root_table():
    elapsed = timer()
    # Independent values: radicals where simple, the cubic's top root for n=5.
    alpha5 = float(max(r.real for r in np.roots([1.0, -5.0, 6.0, -1.0]) if abs(r.imag) < 1e-12))
    expected = [
        0.0,
        1.0,
        2.0,
        (3.0 + math.sqrt(5.0)) / 2.0,
        3.0,
        alpha5,
        2.0 + math.sqrt(2.0),
    ]
    errs = [abs(alpha(n) - expected[n]) for n in range(7)]
    took = elapsed()
    ok = max(errs) <= 1e-12 and took < 1.0
    report(1, ok, f"max err {max(errs):.2e}, {took:.3f}s")
    assert max(errs) <= 1e-12
    assert took < 1.0


def test_criterion_02_identity_suite():
    elapsed = timer()
    worst = 0.0
    xs = [0.25 * k for k in range(1, 17)]  # (0, 4]
    for x in xs:
        vals = [eval_p(i, x).to_float() for i in range(52)]
        acc = 0.0
        for n in range(51):
            acc += vals[n]
            lhs, rhs = vals[n + 1], x * vals[n] - acc
            scale = max(abs(x * vals[n]), abs(acc), 1.0)
            worst = max(worst, abs(lhs - rhs) / scale)
    for n in range(51):
        got1 = eval_p(n, alpha(n + 1)).to_float()
        exp1 = 2.0 ** log2_p_at_alpha_next(n)
        worst = max(worst, abs(got1 - exp1) / exp1)
        got2 = eval_p(n, alpha(n + 2)).to_float()
        exp2 = 2.0 ** log2_p_at_alpha_next2(n)
        worst = max(worst, abs(got2 - exp2) / exp2)
    for i in range(51):
        expected = (2.0 * i + 4.0) * 2.0**i
        worst = max(worst, abs(eval_p(i, 4.0).to_float() - expected) / expected)
    took = elapsed()
    ok = worst <= 1e-9 and took < 1.0
    report(2, ok, f"worst rel err {worst:.2e}, {took:.3f}s")
    assert worst <= 1e-9
    assert took < 1.0


def test_criterion_03_boundary_exactness():
    errs = []
    errs.append(abs(optimize(SearchProblem(1.0, 1.0)).cr - 3.0))
    errs.append(abs(optimize(SearchProblem(1.0, 2.0)).cr - 5.0))
    errs.append(abs(2.0 * solve_exact(0, 2.0).a0 + 1.0 - 5.0))
    errs.append(abs(2.0 * solve_exact(1, 2.0).a0 + 1.0 - 5.0))
    rho = 2.0 + math.sqrt(5.0)
    target = 4.0 + math.sqrt(5.0)
    errs.append(abs(optimize(SearchProblem(1.0, rho)).cr - target))
    errs.append(abs(2.0 * solve_exact(1, rho).a0 + 1.0 - target))
    errs.append(abs(2.0 * solve_exact(2, rho).a0 + 1.0 - target))
    ok = max(errs) <= 1e-10
    report(3, ok, f"max err {max(errs):.2e}")
    assert max(errs) <= 1e-10


def test_criterion_04_bracket_certificate_sweep():
    elapsed = timer()
    bad = 0
    first_bad = None
    for e in sweep_exponents():
        e = float(e)
        n = optimal_n(log2_rho=e)
        lo = log2_p_at_alpha_next(n)
        hi = log2_p_at_alpha_next2(n)
        fine = (
            n - 1e-9 <= lo
            and lo - 1e-9 <= e
            and e < hi
            and hi <= n + 2 + 1e-9
            and n in (max(math.floor(e) - 1, 0), math.floor(e))
        )
        if not fine:
            bad += 1
            first_bad = first_bad or (e, n)
    took = elapsed()
    ok = bad == 0 and took < 10.0
    report(4, ok, f"{bad} violations, {took:.2f}s")
    assert bad == 0, first_bad
    assert took < 10.0


CRITERION_5_RHOS = (1.5, 4.0, 10.0, 20.0, 100.0, 1e4, 2.0**20)


def test_criterion_05_simulator_equalization():
    elapsed = timer()
    worst_eq = worst_cons = worst_grid = 0.0
    for rho in CRITERION_5_RHOS:
        rep = optimize(SearchProblem(1.0, rho, 1e-9))
        wcr = worst_case_ratio(rep.strategy, 1.0, rho)
        sups = [s for _, s in wcr.per_interval]
        worst_cons = max(worst_cons, abs(wcr.sup_ratio - rep.cr) / rep.cr)
        worst_eq = max(worst_eq, (max(sups) - min(sups)) / rep.cr)
        grid = grid_sweep_ratio(rep.strategy, 1.0, rho, 100_000)
        assert grid <= wcr.sup_ratio + 1e-12
        worst_grid = max(worst_grid, wcr.sup_ratio - grid)
    took = elapsed()
    ok = worst_cons <= 1e-9 and worst_eq <= 1e-9 and worst_grid <= 1e-3 and took < 30.0
    report(
        5,
        ok,
        f"cr gap {worst_cons:.2e}, interval spread {worst_eq:.2e}, "
        f"grid gap {worst_grid:.2e}, {took:.2f}s",
    )
    assert worst_cons <= 1e-9
    assert worst_eq <= 1e-9
    assert worst_grid <= 1e-3
    assert took < 30.0


def test_criterion_06_optimality_by_exhaustion():
    worst = -math.inf
    for rho in CRITERION_5_RHOS:
        n_star = optimal_n(rho)
        cr_star = 2.0 * optimize(SearchProblem(1.0, rho, 1e-12)).a0 + 1.0
        for m in range(max(n_star - 2, 0), n_star + 3):
            if m == n_star:
                continue
            cr_m = 2.0 * solve_beyond_alpha(m, rho).a0 + 1.0
            worst = max(worst, cr_star - cr_m)
    ok = worst <= 1e-9
    report(6, ok, f"max (selected - alternative) {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_07_limit_error_bound():
    margins = []
    for n in (4, 8, 16, 32):
        rho = 2.0 ** log2_p_at_alpha_next2(n) * (1.0 - 1e-6)
        cr_limit = 2.0 * solve_limit(n).a0 + 1.0
        cr_exact = 2.0 * solve_numeric(n, rho).a0 + 1.0
        diff = abs(cr_limit - cr_exact)
        bound = cr_error_bound_limit(n)
        margins.append(bound - diff)
    ok = min(margins) >= 0.0
    report(7, ok, f"min bound margin {min(margins):.2e}")
    assert min(margins) >= 0.0


def ratio_edge(k: int) -> float:
    """8cos^2(pi/k) + 1 = 2 alpha_{k-2} + 1: the ratio of a root at alpha_{k-2}."""
    return 8.0 * math.cos(math.pi / k) ** 2 + 1.0


def test_criterion_08_band_and_rate_as_stated():
    # Over the criterion-4 sweep, with n the iteration count of the solve:
    #   8cos^2(pi/(n+3))+1 <= CR <= 8cos^2(pi/(n+4))+1 (a_0 in its bracket),
    #   8cos^2(pi/(floor(log2 rho)+2))+1 <= CR <= 8cos^2(pi/(floor(log2 rho)+4))+1,
    #   CR < 9, CR = 2 rho + 1 below rho = 2, and
    #   1 <= (9 - CR) log2(rho)^2 <= 1e3 from rho = 2 on.
    # The ceil(log2 rho)+2 lower edge and the rate floor near rho = 1 first
    # stated here are false for every strategy (see the module docstring);
    # the violation of that edge is asserted below as a checked erratum.
    band_bad = bracket_bad = nine_bad = single_bad = rate_bad = stated_bad = 0
    first_band = first_bracket = first_single = first_rate = stated_witness = None
    min_gap = math.inf
    rates = []
    for e in sweep_exponents():
        e = float(e)
        rho = 2.0**e
        rep = optimize(SearchProblem(1.0, rho, 1e-9))
        if not rep.cr < 9.0:
            nine_bad += 1
        lo = ratio_edge(math.floor(e) + 2)
        hi = ratio_edge(math.floor(e) + 4)
        min_gap = min(min_gap, rep.cr - lo)
        if not (lo - 1e-9 <= rep.cr <= hi + 1e-9):
            band_bad += 1
            first_band = first_band or (rho, rep.cr, lo, hi)
        if not (ratio_edge(rep.n + 3) - 1e-9 <= rep.cr <= ratio_edge(rep.n + 4) + 1e-9):
            bracket_bad += 1
            first_bracket = first_bracket or (rho, rep.n, rep.cr)
        if rho < 2.0:
            if not abs(rep.cr - (2.0 * rho + 1.0)) <= 1e-10:
                single_bad += 1
                first_single = first_single or (rho, rep.cr)
        else:
            rate = (9.0 - rep.cr) * e * e
            rates.append(rate)
            if not (1.0 <= rate <= 1e3):
                rate_bad += 1
                first_rate = first_rate or (rho, rate)
        if rep.cr < ratio_edge(math.ceil(e) + 2) - 1e-9:
            stated_bad += 1
            stated_witness = stated_witness or (rho, rep.strategy)
    # Erratum check: the stated ceil(log2 rho)+2 edge is violated, and the
    # oracle, probing just above every breakpoint where the ratio peaks,
    # prices the first witness's strategy below that edge.
    w_rho = w_price = w_edge = math.nan
    if stated_witness is not None:
        w_rho, w_strategy = stated_witness
        w_price = brute_worst_ratio(list(w_strategy.turns), w_strategy.terminal, 1.0, w_rho, 20_000)
        w_edge = ratio_edge(math.ceil(math.log2(w_rho)) + 2)
    refuted = w_price < w_edge - 1e-9
    ok = (
        band_bad == 0
        and bracket_bad == 0
        and nine_bad == 0
        and single_bad == 0
        and rate_bad == 0
        and refuted
    )
    detail = (
        f"band violations {band_bad}, n-bracket violations {bracket_bad}, "
        f"CR>=9 count {nine_bad}, single-shot violations {single_bad}, "
        f"rate violations {rate_bad}, rate range [{min(rates):.1f}, {max(rates):.1f}], "
        f"min lower-edge gap {min_gap:.1e}; stated ceil+2 edge violated at {stated_bad} points, "
        f"witness rho={w_rho!r} priced {w_price:.10f} < {w_edge:.10f}"
    )
    report(8, ok, detail)
    assert nine_bad == 0
    assert band_bad == 0, f"ratio outside the floor(log2 rho) band, first witness {first_band}"
    assert bracket_bad == 0, f"ratio outside the n-bracket band, first witness {first_bracket}"
    assert single_bad == 0, f"single-shot ratio is not 2 rho + 1, first witness {first_single}"
    assert rate_bad == 0, f"rate outside [1, 1e3] for rho >= 2, first witness {first_rate}"
    assert refuted, (
        f"stated ceil(log2 rho)+2 edge not refuted: {stated_bad} violations, "
        f"oracle price {w_price} of witness rho={w_rho} against edge {w_edge}"
    )


def test_cr_band_supported_variant():
    # The derivable form: single-shot regime exact below rho = 2; from 2 on,
    # lower edge with ceil(log2 rho)+1, same upper edge, CR < 9 throughout,
    # and the rate product within [1, 1e3].
    for e in sweep_exponents():
        e = float(e)
        rho = 2.0**e
        rep = optimize(SearchProblem(1.0, rho, 1e-9))
        assert rep.cr < 9.0
        if rho < 2.0:
            assert abs(rep.cr - (2.0 * rho + 1.0)) <= 1e-10
            continue
        lo = 8.0 * math.cos(math.pi / (math.ceil(e) + 1)) ** 2 + 1.0
        hi = 8.0 * math.cos(math.pi / (math.floor(e) + 4)) ** 2 + 1.0
        assert lo - 1e-9 <= rep.cr <= hi + 1e-9, rho
        rate = (9.0 - rep.cr) * e * e
        assert 1.0 <= rate <= 1e3, rho


def test_criterion_09_maximal_reach():
    elapsed = timer()
    res5 = maximal_reach(ReachQuery(5.0, 1.0))
    res7 = maximal_reach(ReachQuery(7.0, 1.0))
    exact_ok = abs(res5.Lambda - 2.0) <= 1e-10 and abs(res7.Lambda - 9.0) <= 1e-10
    worst = 0.0
    for ratio in np.linspace(3.1, 8.9, 100):
        res = maximal_reach(ReachQuery(float(ratio), 1.0))
        rep = optimize(SearchProblem(1.0, res.Lambda, 1e-10))
        worst = max(worst, abs(rep.cr - float(ratio)))
    took = elapsed()
    ok = exact_ok and worst <= 1e-8 and took < 10.0
    report(9, ok, f"round-trip max err {worst:.2e}, {took:.2f}s")
    assert exact_ok
    assert worst <= 1e-8
    assert took < 10.0


def test_criterion_10_mray_suite():
    elapsed = timer()
    table_ok = all(verify_alpha_table(m, n) for m in range(2, 6) for n in range(7))
    ratio_gaps = []
    for m in (2, 3, 4, 5):
        bound = 1.0 + 2.0 * optimal_cost_coefficient(m)
        got = mray_worst_ratio(RayFamilyParams(m=m, a=0.0, b=1.0), 200)
        ratio_gaps.append(abs(bound - got))
    fires = []
    for m in (2, 3, 4, 5):
        _, hi = feasible_b_interval(m, 0.0)
        bad = hi * 1.01
        c = m / (m - 1.0)
        ratios = breakpoint_ratios(lambda i: bad * c**i, m, 1.0, 80)
        fires.append(max(ratios) > 1.0 + 2.0 * optimal_cost_coefficient(m) + 1e-9)
    took = elapsed()
    ok = table_ok and max(ratio_gaps) <= 1e-3 and all(fires) and took < 10.0
    report(
        10,
        ok,
        f"28 table entries {'ok' if table_ok else 'BAD'}, "
        f"max bound gap {max(ratio_gaps):.2e}, infeasibility fires {all(fires)}, {took:.2f}s",
    )
    assert table_ok
    assert max(ratio_gaps) <= 1e-3
    assert all(fires)
    assert took < 10.0


def test_criterion_11_large_rho_robustness():
    rep = optimize(SearchProblem.from_log2_rho(1000.0, epsilon=1e-9))
    finite = all(math.isfinite(t) for t in rep.strategy.turns) and math.isfinite(rep.cr)
    # Exponent-tracked evaluation stays finite far beyond double range.
    big = eval_p(1_000_000, 4.2)
    eval_ok = math.isfinite(big.mantissa) and 1.0 <= abs(big.mantissa) < 2.0
    ok = finite and rep.cr < 9.0 and eval_ok
    report(11, ok, f"n={rep.n}, CR={rep.cr:.6f}, mode={rep.mode}")
    assert finite
    assert rep.cr < 9.0
    assert eval_ok
