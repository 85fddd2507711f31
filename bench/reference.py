"""Reference values and output checks, made apart from the program.

Nothing here imports ``linesearch``.  Values of p_n come from the three-term
recurrence of the paper,

    p_0(x) = x,   p_1(x) = x (x - 1),   p_i(x) = x (p_{i-1}(x) - p_{i-2}(x)),

evaluated with mpmath at 50 significant digits, and alpha_k = 4 cos^2(pi/(k+2))
is the largest root of p_k.  Strategies are priced exactly, with the turn
distances taken as the rationals their doubles stand for.

Each ``check_*`` function takes one operation's input and its recorded
output and returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from mpmath import mp, mpf

DPS = 50

# ROADMAP item 2: at the default eps the doubles of a0 and of the expanded
# turns cannot carry cr_error_bound = eps once n is in the hundreds (the
# strategy's supremum exceeds cr by up to 6e-8 at n = 999).  Below n = 200
# the excess stays under half of eps on every rho tried, so the supremum
# check runs there, and at every n under the loose eps and in limit mode.
SUP_CHECK_MAX_N_AT_DEFAULT_EPS = 200
LOOSE_EPS = 1e-6

# Relative agreement asked of a reported float against its reference.
PRICE_REL = 1e-12
REACH_REL = 1e-9
MRAY_REL = 1e-12


def p_ref(n: int, x) -> mpf:
    """p_n(x) by the three-term recurrence at DPS digits."""
    with mp.workdps(DPS):
        x = mpf(x)
        prev, cur = x, x * (x - 1)
        if n == 0:
            return +prev
        for _ in range(n - 1):
            prev, cur = cur, x * (cur - prev)
        return +cur


def alpha_ref(k: int) -> mpf:
    """alpha_k = 4 cos^2(pi/(k+2)), the largest real root of p_k."""
    with mp.workdps(DPS):
        return 4 * mp.cos(mp.pi / (k + 2)) ** 2


def root_ref(n: int, rho) -> mpf:
    """The root of p_n(x) = rho on [alpha_{n+1}, alpha_{n+2}], by bisection.

    Slow (about 170 evaluations of p_n); the run checks use the two-sided
    sign test of :func:`root_within` instead, which proves the same bound.
    """
    with mp.workdps(DPS):
        rho = mpf(rho)
        lo, hi = alpha_ref(n + 1), alpha_ref(n + 2)
        if n == 0:
            lo, hi = mpf(0), max(mpf(4), rho + 1)
        for _ in range(int(DPS * 3.4)):
            mid = (lo + hi) / 2
            if p_ref(n, mid) < rho:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def root_within(n: int, rho: float, a0: float, half_width: float) -> bool:
    """Whether the root of p_n = rho on its bracket lies in a0 +- half_width.

    p_n increases on [alpha_n, inf), which holds the bracket, so the root
    lies in [lo, hi] exactly when p_n(lo) <= rho <= p_n(hi).  Clamping to
    the bracket keeps both probes where p_n increases; the caller has
    checked that the bracket holds rho.
    """
    with mp.workdps(DPS):
        lo = max(mpf(a0) - mpf(half_width), alpha_ref(n + 1))
        hi = min(mpf(a0) + mpf(half_width), alpha_ref(n + 2))
        return lo <= hi and p_ref(n, lo) <= rho <= p_ref(n, hi)


def bracket_holds(n: int, rho: float) -> bool:
    """p_n(alpha_{n+1}) <= rho < p_n(alpha_{n+2}), up to 1e-12 relative."""
    if n < 0:
        return False
    with mp.workdps(DPS):
        fuzz = mpf(10) ** -12
        lo = p_ref(n, alpha_ref(n + 1))
        hi = p_ref(n, alpha_ref(n + 2))
        return lo * (1 - fuzz) <= rho < hi * (1 + fuzz)


def cr_band(n: int) -> tuple[float, float]:
    """8 cos^2(pi/(n+3)) + 1 and 8 cos^2(pi/(n+4)) + 1: 2 alpha_{n+1} + 1, 2 alpha_{n+2} + 1."""
    return float(2 * alpha_ref(n + 1) + 1), float(2 * alpha_ref(n + 2) + 1)


def exact_sup(turns, terminal: float, lam: float = 1.0) -> Fraction:
    """Exact supremum of cost/D over D in [lam, terminal].

    The searcher alternates sides; iteration i walks out to f(i) and back,
    with f(i) = terminal once the turns run out.  A target at D is found,
    on the unlucky side, in the iteration after the first j with f(j) >= D,
    at cost 2 (f(0) + ... + f(j)) + D.  For fixed j the ratio falls as D
    grows, so each supremum sits at the left end of the D values served by
    j: lam, or the limit just above the farthest earlier turn.
    """
    reach = [Fraction(t) for t in turns] + [Fraction(terminal)]
    lam_q = Fraction(lam)
    best = None
    prefix = Fraction(0)
    farthest = Fraction(0)  # max f(i) over i < j
    for f_j in reach:
        prefix += f_j
        left = max(lam_q, farthest)
        if f_j >= lam_q and farthest < reach[-1] and f_j > farthest:
            ratio = 2 * prefix / left + 1
            if best is None or ratio > best:
                best = ratio
        farthest = max(farthest, f_j)
    return best


def mray_worst_ref(m: int, a: float, b: float, horizon: int = 200, lam: float = 1.0) -> mpf:
    """Worst ratio of f(i) = (a i + b) (m/(m-1))^i lam over D up to f(horizon).

    Rays are visited in turn, so any m consecutive iterations cover every
    ray.  With f(j) < D <= f(j+1) the unlucky ray is reached last among
    iterations j+1 .. j+m, after full round trips through iteration j+m-1:
    cost 2 (f(0) + ... + f(j+m-1)) + D, largest as D -> f(j)+.  Below f(0)
    the first m-1 rays are cleared first, and the ratio peaks at D = lam.
    """
    with mp.workdps(DPS):
        g = mpf(m) / (m - 1)
        f = [(mpf(a) * i + mpf(b)) * g**i * lam for i in range(horizon + m)]
        prefix = [mpf(0)]
        for v in f:
            prefix.append(prefix[-1] + v)
        ratios = [1 + 2 * prefix[m - 1] / lam]
        ratios += [1 + 2 * prefix[j + m] / f[j] for j in range(horizon)]
        return max(ratios)


def _ulps(x: float, k: int = 8) -> float:
    return k * math.ulp(x)


def _sup_check_applies(mode: str, n: int, eps: float) -> bool:
    return mode != "numeric" or eps >= LOOSE_EPS or n < SUP_CHECK_MAX_N_AT_DEFAULT_EPS


def check_solution(rho: float, eps: float, n: int, a0: float, cr: float, mode: str,
                   cr_error_bound: float, turns=None, terminal: float | None = None) -> list[str]:
    """Checks on one optimal strategy for lambda = 1, Lambda = rho."""
    errs = []
    floor_log2 = math.frexp(rho)[1] - 1  # exact floor(log2 rho) for a double
    if n not in (floor_log2 - 1, floor_log2) or n < 0:
        errs.append(f"n={n} not in {{floor(log2 rho)-1, floor(log2 rho)}} = "
                    f"{{{floor_log2 - 1}, {floor_log2}}}")
        return errs
    if not bracket_holds(n, rho):
        errs.append(f"rho={rho!r} outside the bracket of n={n}")
        return errs
    half = cr_error_bound / 2.0 if mode == "limit_approx" else eps / 2.0
    if not root_within(n, rho, a0, half):
        errs.append(f"a0={a0!r} farther than {half:g} from the root of p_{n} = {rho!r}")
    lo, hi = cr_band(n)
    if not lo - _ulps(lo) <= cr <= hi + _ulps(hi):
        errs.append(f"cr={cr!r} outside the band [{lo!r}, {hi!r}] of n={n}")
    if turns is not None:
        if len(turns) != n or terminal != rho:
            errs.append(f"strategy has {len(turns)} turns and terminal {terminal!r}, "
                        f"expected {n} and {rho!r}")
        elif not all(x <= y for x, y in zip([1.0, *turns], [*turns, terminal])):
            errs.append("turns are not increasing within [lambda, Lambda]")
        elif _sup_check_applies(mode, n, eps):
            sup = exact_sup(turns, terminal)
            excess = sup - Fraction(cr) - Fraction(cr_error_bound)
            if excess > Fraction(_ulps(cr)):
                errs.append(f"priced supremum exceeds cr + cr_error_bound by {float(excess):.3g} "
                            f"(n={n}, mode={mode}, eps={eps:g})")
    return errs


def check_optimize(inp: dict, rec: dict) -> list[str]:
    return check_solution(inp["rho"], inp["eps"], rec["n"], rec["a0"], rec["cr"], rec["mode"],
                          rec["cr_error_bound"], rec["turns"], rec["terminal"])


def check_verify_record(rho: float, text: str, turns) -> list[str]:
    """A passing ``verify`` record for Lambda = rho, priced apart."""
    record = json.loads(text)
    res, diag = record["results"], record["diagnostics"]
    if record["inputs"]["Lambda"] != rho:
        return [f"verify echoed Lambda={record['inputs']['Lambda']!r} for rho={rho!r}"]
    errs = check_solution(rho, record["inputs"]["eps"], res["n"], res["a0"], res["cr"],
                          diag["mode"], diag["cr_error_bound"], turns, rho)
    if not all(res["checks"].values()):
        errs.append(f"verify exited 0 with a failed self-check: {res['checks']}")
    sup = float(exact_sup(turns, rho))
    if abs(res["worst_case_ratio"] - sup) > PRICE_REL * sup:
        errs.append(f"worst_case_ratio={res['worst_case_ratio']!r} but the strategy prices at {sup!r}")
    if res["grid_sweep_ratio"] > sup * (1 + PRICE_REL):
        errs.append(f"grid_sweep_ratio={res['grid_sweep_ratio']!r} above the exact supremum {sup!r}")
    return errs


def check_reach(ratio: float, Lambda: float, n: int, a0: float) -> list[str]:
    """maximal_reach at budget ratio: a0 = (R-1)/2, n its bracket, Lambda = p_n(a0)."""
    errs = []
    if a0 != (ratio - 1.0) / 2.0:
        errs.append(f"a0={a0!r} is not (R-1)/2 for R={ratio!r}")
    tol = 1e-13
    if n < 0 or not (alpha_ref(n + 1) - tol <= a0 < alpha_ref(n + 2) + tol):
        errs.append(f"a0={a0!r} outside [alpha_{n + 1}, alpha_{n + 2})")
        return errs
    ref = p_ref(n, a0)
    if abs(mpf(Lambda) - ref) > REACH_REL * ref:
        errs.append(f"reach {Lambda!r} differs from p_{n}(a0) = {float(ref)!r}")
    return errs


def check_mray(m: int, a: float, b: float, ratio: float, horizon: int = 200) -> list[str]:
    errs = []
    lower = 1.0 + 2.0 * (m - 1)
    upper = 1.0 + 2.0 * m**m / (m - 1.0) ** (m - 1)
    if not lower - _ulps(lower) <= ratio <= upper + _ulps(upper):
        errs.append(f"m={m} ratio {ratio!r} outside [{lower!r}, {upper!r}]")
    ref = mray_worst_ref(m, a, b, horizon)
    if abs(mpf(ratio) - ref) > MRAY_REL * ref:
        errs.append(f"m={m} a={a!r} b={b!r}: ratio {ratio!r}, reference {float(ref)!r}")
    return errs


def check_sweep_csv(inp: dict, text: str, points: int) -> list[str]:
    """``optimal --sweep`` CSV: points rows from rho_min to rho_max, each optimal."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != points:
        return [f"sweep printed {len(rows)} rows, expected {points}"]
    errs = []
    rhos = [float(r["rho"]) for r in rows]
    if not (math.isclose(rhos[0], inp["rho_min"], rel_tol=1e-12)
            and math.isclose(rhos[-1], inp["rho_max"], rel_tol=1e-12)
            and all(x < y for x, y in zip(rhos, rhos[1:]))):
        errs.append(f"sweep rho column does not run from {inp['rho_min']!r} to {inp['rho_max']!r}")
    for r, rho in zip(rows, rhos):
        errs += check_solution(rho, 1e-9, int(r["n"]), float(r["a0"]), float(r["cr"]),
                               r["mode"], float(r["cr_error_bound"]))
    return errs


def check_cli(inp: dict, rec: dict, sweep_points: int) -> list[str]:
    """One ``python -m linesearch`` launch that exited 0."""
    kind, text = inp["kind"], rec["stdout"]
    if kind == "optimal_sweep":
        return check_sweep_csv(inp, text, sweep_points)
    if kind == "verify":
        return check_verify_record(inp["rho"], text, rec["turns"])
    record = json.loads(text)
    res = record["results"]
    if kind == "reach":
        return check_reach(inp["ratio"], res["Lambda"], res["n"], res["a0"])
    if kind == "mray":
        if not res["feasible"]:
            return [f"mray called feasible input {inp} infeasible"]
        return check_mray(inp["m"], inp["a"], inp["b"], res["worst_ratio"])
    rho = inp["rho"] if kind == "optimal" else 2.0 ** inp["log2_rho"]
    if record["inputs"]["Lambda"] != rho:
        return [f"optimal echoed Lambda={record['inputs']['Lambda']!r}, expected {rho!r}"]
    diag = record["diagnostics"]
    return check_solution(rho, record["inputs"]["eps"], res["n"], res["a0"], res["cr"],
                          diag["mode"], diag["cr_error_bound"], res["turns"], res["terminal"])
