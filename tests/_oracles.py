"""Independent oracles the tests check the library against.

Everything here is deliberately naive: exact integer coefficient algebra,
plain bisection, step-by-step walk simulation, turn-by-turn breakpoint
pricing, point-by-point grid pricing, the paper's three-term recurrence in
50-digit arithmetic and exact rational pricing.  None of it shares code with
the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpf

MP_DPS = 50


def p_sequence_mp(count: int, x) -> list[mpf]:
    """p_0(x) .. p_{count-1}(x) by p_0 = x, p_1 = x(x-1), p_i = x(p_{i-1} - p_{i-2}),
    at MP_DPS digits."""
    with mp.workdps(MP_DPS):
        x = mpf(x)
        seq = [x, x * (x - 1)]
        while len(seq) < count:
            seq.append(x * (seq[-1] - seq[-2]))
        return seq[:count]


def p_recurrence_mp(n: int, x) -> mpf:
    """p_n(x) by the three-term recurrence at MP_DPS digits."""
    return p_sequence_mp(n + 1, x)[-1]


def p_at_theta_mp(n: int, theta: float) -> mpf:
    """p_n(4 cos^2 theta) by the recurrence, with theta taken as the exact double."""
    with mp.workdps(MP_DPS):
        return p_recurrence_mp(n, 4 * mp.cos(mpf(theta)) ** 2)


def exact_sup_ratio(turns, terminal: float, lam: float) -> Fraction:
    """Exact supremum over D in [lam, terminal] of the worse side's cost / D.

    Every distance is the rational its double stands for.  Iteration i walks
    out to reach[i] (the turns, then terminal for ever) on side i mod 2 and
    back.  With nondecreasing reaches, a target with reach[j-1] < D <=
    reach[j] is found at iteration j on one side and j+1 on the other, so
    the worse cost is 2 (reach[0] + ... + reach[j]) + D.  That ratio falls
    as D grows, so each j contributes its value at the left end of its
    D range.
    """
    reach = [Fraction(t) for t in turns] + [Fraction(terminal)]
    assert all(a <= b for a, b in zip(reach, reach[1:])), "oracle needs nondecreasing turns"
    lam = Fraction(lam)
    best, travelled, prev = Fraction(0), Fraction(0), Fraction(0)
    for r in reach:
        travelled += r
        if r >= lam and r > prev:
            best = max(best, 2 * travelled / max(lam, prev) + 1)
        prev = r
    return best


def worst_case_ratio_loop(turns, terminal: float, lam: float, big_lam: float):
    """(sup, argmax, per_interval) of the breakpoint pricing, turn by turn, in floats.

    The float reference for ``simulate.worst_case_ratio`` on bounds it has
    already checked: prefix sums accumulated as acc += 2t, the breakpoints a
    sorted set of the turns in [lam, big_lam), and each breakpoint's serving
    turn (the first one above it) found by walking forward.  Interval j is
    (lower end, next breakpoint or big_lam) with the ratio
    prefix[serving turn] / lower end + 1; the first interval starts at lam.
    No rescaling: where twice a prefix sum overflows, the ratio is inf.
    """
    prefix, acc = [], 0.0
    for t in turns:
        acc += 2.0 * t
        prefix.append(acc)
    prefix.append(acc + 2.0 * terminal)
    first = next((j for j, t in enumerate(turns) if t >= lam), len(turns))
    inner = sorted({t for t in turns if lam <= t < big_lam})
    uppers = inner[1:] + [big_lam]
    first_hi = inner[0] if inner and inner[0] > lam else (uppers[0] if inner else big_lam)
    entries = [((lam, first_hi), prefix[first] / lam + 1.0)]
    k = 0
    for b, hi in zip(inner, uppers):
        while k < len(turns) and turns[k] <= b:
            k += 1
        entries.append(((b, hi), prefix[k] / b + 1.0))
    best = max(range(len(entries)), key=lambda i: entries[i][1])
    return entries[best][1], best, tuple(entries)


def grid_ratio_pointwise(turns, terminal: float, lam: float, big_lam: float, points: int) -> float:
    """Max of cost/D over every point of the geometric grid from lam to big_lam.

    The grid is d_0 = lam, d_{P-1} = big_lam and, between them,
    d_k = min(lam exp(k ln(big_lam/lam)/(P-1)), big_lam), or, where
    big_lam/lam overflows, d_k = min(exp(ln lam + k (ln big_lam - ln lam)/(P-1)),
    big_lam).  Each point is served by the first reach (the turns, then
    terminal) that is >= d, or by the terminal when none is; its cost is twice
    the reaches through that one plus d.
    """
    reach = list(turns) + [terminal]
    prefix, travelled = [], 0.0
    for r in reach:
        travelled += r
        prefix.append(2.0 * travelled)
    wide = big_lam / lam == math.inf
    log_lam = math.log(lam)
    span = math.log(big_lam) - log_lam if wide else math.log(big_lam / lam)
    step = span / (points - 1)
    best, j = -math.inf, 0
    for k in range(points):
        if k == 0:
            d = lam
        elif k == points - 1:
            d = big_lam
        elif wide:
            d = min(math.exp(log_lam + k * step), big_lam)
        else:
            d = min(lam * math.exp(k * step), big_lam)
        while j < len(reach) - 1 and reach[j] < d:  # d never decreases
            j += 1
        best = max(best, prefix[j] / d + 1.0)
    return best


def poly_coeffs(n: int) -> list[int]:
    """Exact integer coefficients (ascending) of the n-th family polynomial."""
    p_prev2 = [0, 1]  # x
    if n == 0:
        return p_prev2
    p_prev1 = [0, -1, 1]  # x(x-1)
    for _ in range(2, n + 1):
        diff = [
            (p_prev1[k] if k < len(p_prev1) else 0) - (p_prev2[k] if k < len(p_prev2) else 0)
            for k in range(max(len(p_prev1), len(p_prev2)))
        ]
        p_prev2, p_prev1 = p_prev1, [0] + diff  # multiply by x
    return p_prev1


def poly_eval(coeffs: list[int], x: float) -> float:
    """Horner evaluation of integer coefficients at a float point."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection for increasing f with f(lo) <= 0 <= f(hi)."""
    assert f(lo) <= 0.0 <= f(hi), "oracle bracket does not straddle the root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def walk_cost(turns: list[float], terminal: float, d: float, side: str) -> float:
    """Travel of the literal alternating walk until the target is found.

    Iteration 0 goes right; iteration i reaches turns[i] (or terminal once
    the turns run out).
    """
    parity = 0 if side == "right" else 1
    total = 0.0
    i = 0
    while True:
        reach = turns[i] if i < len(turns) else terminal
        if i % 2 == parity and reach >= d:
            return total + d
        total += 2.0 * reach
        i += 1


def worst_orientation_cost(turns: list[float], terminal: float, d: float) -> float:
    return max(
        walk_cost(turns, terminal, d, "left"),
        walk_cost(turns, terminal, d, "right"),
    )


def brute_worst_ratio(
    turns: list[float], terminal: float, lam: float, big_lam: float, grid: int = 4000
) -> float:
    """Probe a dense geometric grid plus points just above every breakpoint."""
    ds = [lam * (big_lam / lam) ** (k / (grid - 1)) for k in range(grid)]
    for t in turns:
        if lam <= t < big_lam:
            ds.append(t * (1.0 + 1e-12))
    best = 0.0
    for d in ds:
        if lam <= d <= big_lam:
            best = max(best, worst_orientation_cost(turns, terminal, d) / d)
    return best


def mray_walk_cost(f, m: int, d: float, ray: int) -> float:
    """Cyclic m-ray walk: iteration i explores ray i mod m out to f(i)."""
    total = 0.0
    i = 0
    while True:
        reach = f(i)
        if i % m == ray and reach >= d:
            return total + d
        total += 2.0 * reach
        i += 1


def mray_worst_cost(f, m: int, d: float) -> float:
    return max(mray_walk_cost(f, m, d, r) for r in range(m))


def mray_cost_scan(f, m: int, d: float) -> float:
    """m-ray worst-case cost at D by walking j up turn by turn.

    f is a callable or a sequence.  With f(j) <= D < f(j+1), the cost is
    2 (f(0) + ... + f(j+m-1)) + D; below f(0) it is 2 (f(0) + ... + f(m-2))
    + D.  At D = f(j) exactly, j is the touched turn (the supremum
    convention).
    """
    fx = f if callable(f) else f.__getitem__
    if fx(0) > d:
        return 2.0 * sum(fx(i) for i in range(m - 1)) + d
    j = 0
    while fx(j + 1) <= d:
        j += 1
    return 2.0 * sum(fx(i) for i in range(j + m)) + d


def breakpoint_ratios_loop(values, m: int, lam: float, horizon: int) -> list[float]:
    """The m-ray breakpoint ratios, with cost sums accumulated as acc += 2 v.

    values holds f(0) .. f(horizon + m - 2).  Entry 0 is 1 + 2 (f(0) + ...
    + f(m-2)) / lam; entry j + 1 adds 2 f(j + m - 1) to that sum and divides
    by f(j).  Raises ValueError when the last sum is not finite.
    """
    acc = 2.0 * sum(values[: m - 1])
    ratios = [1.0 + acc / lam]
    for j in range(horizon):
        acc += 2.0 * values[j + m - 1]
        ratios.append(1.0 + acc / values[j])
    if not math.isfinite(acc):
        raise ValueError("cost sums overflow a double")
    return ratios


def mray_family_ratios_exact(m: int, a: float, b: float, lam: float, horizon: int):
    """Exact breakpoint ratios of f(i) = (a i + b) (m/(m-1))^i lam, turn by turn.

    Returns each ratio as an unreduced pair (numerator, denominator) of
    integers.  a, b and lam are the rationals their doubles stand for; every
    turn and lam are scaled by one integer, den (m-1)^N with N = horizon + m - 2
    and den a power of two, so the turns are integers and their sums exact.
    Entry 0 is 1 + 2 (f(0) + ... + f(m-2)) / lam; entry j + 1 adds the turns
    up to f(j + m - 1) and divides by f(j).
    """
    a, b, lam = Fraction(a), Fraction(b), Fraction(lam)
    den = max((a * lam).denominator, (b * lam).denominator, lam.denominator)
    last = horizon + m - 2
    power = (m - 1) ** last  # m^i (m-1)^(last-i)
    big_a, big_b = int(a * lam * den), int(b * lam * den)
    big_lam = int(lam * den) * power
    turns = []
    for i in range(last + 1):
        turns.append((big_a * i + big_b) * power)
        power = power * m // (m - 1)
    total = sum(turns[: m - 1])
    ratios = [(big_lam + 2 * total, big_lam)]
    for j in range(horizon):
        total += turns[j + m - 1]
        ratios.append((turns[j] + 2 * total, turns[j]))
    return ratios
