"""Searching m concurrent rays: the optimal family, its ratios and bounds.

For m >= 2 rays visited cyclically, every member of the family

    f_{a,b}(i) = (a i + b) (m/(m-1))^i lambda

is optimal in the unbounded setting provided (a, b) lies in the feasible
region: a >= 0 and sup{1, m a} <= b <= ((M - m^2) a + M m/(m-1)) / (M - m)
with M = m^m / (m-1)^(m-1).  The worst-case ratio of any feasible member
approaches the optimal 1 + 2M and never leaves [1 + 2(m-1), 1 + 2M].

A member's cost sums are arithmetico-geometric series, so its breakpoint
ratios have a closed form.  With q = m/(m-1), the sum f(0) + ... + f(N)
telescopes to (m-1) ((a (N - m + 1) + b) q^(N+1) - (b - m a)) lambda, and
the ratio of the walk at D -> lambda (entry 0) and at D -> f(j)+ (entry
j + 1) is

    entry 0:      1 + 2(m-1) ((b - a) q^(m-1) + m a - b)
    entry j + 1:  1 + 2M - 2(m-1) (b - m a) / ((a j + b) q^j)

Entry 0 is 1 + 2M exactly at the upper end of the feasible b interval, and
the entries j + 1 rise to 1 + 2M when b >= m a: the feasible region is
where both terms have the right sign.  This is the bound of Baeza-Yates,
Culberson and Rawlins (Searching in the plane, 1993), made exact.  Neither
entry depends on lambda, and the entries j + 1 are monotone in j, so the
worst ratio up to a horizon is the largest of three entries.

The multivariate recurrence p_n over the first m-1 turn ratios generalizes
the univariate family; the table of its simultaneous root points for small
n and m is verified here by direct substitution (the general solution of
that root system is open, so no solver is provided).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from itertools import accumulate

from ._base import Record, set_field
from .optimal import check_lambda


class InfeasibleParamsError(ValueError):
    """(a, b) violates the family's feasibility region.

    Carries the valid b interval for the given (m, a) as ``interval``.
    """

    def __init__(self, message: str, interval: tuple[float, float]):
        super().__init__(message)
        self.interval = interval


def growth_base(m: int) -> float:
    return m / (m - 1.0)


def optimal_cost_coefficient(m: int) -> float:
    """M = m^m / (m-1)^(m-1); the optimal unbounded ratio is 1 + 2M.

    Taken as m (m/(m-1))^(m-1) in floats, so no power of m leaves double
    range; for m <= 15 this is bit for bit the quotient of the two powers.
    """
    return m * math.exp((m - 1) * math.log1p(1.0 / (m - 1)))


def feasible_b_interval(m: int, a: float) -> tuple[float, float]:
    """The closed interval of b values making f_{a,b} optimal."""
    _check_rays(m)
    if not math.isfinite(a):
        raise ValueError(f"slope a must be finite, got {a}")
    if a < 0.0:
        raise ValueError(f"slope a must be non-negative, got {a}")
    big_m = optimal_cost_coefficient(m)
    lo = max(1.0, m * a)
    hi = ((big_m - m * m) * a + growth_base(m) * big_m) / (big_m - m)
    return lo, hi


class RayFamilyParams(Record):
    """Parameters (m, a, b) of a family member, scaled by lambda_."""

    __slots__ = ("m", "a", "b", "lambda_")

    def __init__(self, m: int, a: float, b: float, lambda_: float = 1.0) -> None:
        check_lambda(lambda_)
        if not math.isfinite(b):
            raise ValueError(f"offset b must be finite, got {b}")
        lo, hi = feasible_b_interval(m, a)  # refuses m and a
        tol = 1e-12 * max(1.0, hi)
        if not (lo - tol <= b <= hi + tol):
            raise InfeasibleParamsError(
                f"b={b} infeasible for m={m}, a={a}; "
                f"valid interval is [{lo:.12g}, {hi:.12g}]",
                interval=(lo, hi),
            )
        set_field(self, "m", m)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "lambda_", lambda_)

    def f(self, i: int) -> float:
        base = growth_base(self.m)
        try:
            turn = (self.a * i + self.b) * base**i * self.lambda_
        except OverflowError:
            turn = math.inf
        if turn == math.inf:
            # base**i, or (a i + b) base**i, alone leaves double range, yet a
            # small lambda_ can bring the turn back into it; the halves stay
            # finite unless it cannot.
            half = i // 2
            turn = (self.a * i + self.b) * self.lambda_ * base**half * base ** (i - half)
        return turn

    def turns(self, count: int) -> list[float]:
        """f(0) .. f(count - 1)."""
        return [self.f(i) for i in range(count)]


def breakpoint_ratios(
    f: Callable[[int], float] | Sequence[float], m: int, lam: float, horizon: int
) -> list[float]:
    """Supremum of cost/D on each breakpoint interval of an m-ray strategy.

    Entry 0 is the D -> lam limit; entry j+1 the D -> f(j)+ limit.  Works
    for any increasing turn sequence, feasible or not, which is what makes
    infeasibility observable as a ratio leaving the optimal band.  A
    sequence must hold f(0) .. f(horizon + m - 2) at least.  Raises
    ValueError when the turns up to the horizon leave double range.
    """
    _check_horizon(m, horizon)
    count = horizon + m - 1
    if callable(f):
        try:
            values = [f(i) for i in range(count)]
        except OverflowError:
            raise _horizon_overflow(horizon) from None
    elif len(f) < count:
        raise ValueError(f"horizon {horizon} needs {count} turns, got {len(f)}")
    else:
        values = f
    # Half the cost sums: doubling is exact, so 2 s is the sum of the 2 f(i).
    sums = list(accumulate(values[m - 1 : count], initial=sum(values[: m - 1])))
    if not math.isfinite(2.0 * sums[-1]):
        raise _horizon_overflow(horizon)
    return [1.0 + 2.0 * s / v for s, v in zip(sums, [lam, *values])]


def _check_rays(m: int) -> None:
    # A bool is an int below 2, so the comparison refuses it too.
    if not isinstance(m, int):
        raise ValueError(f"the number of rays must be an integer, got m={m!r}")
    if m < 2:
        raise ValueError(f"need at least 2 rays, got m={m}")


def _check_horizon(m: int, horizon: int) -> None:
    _check_rays(m)
    if horizon < m:
        raise ValueError(f"horizon must be at least m={m}, got {horizon}")


def _horizon_overflow(horizon: int) -> ValueError:
    return ValueError(
        f"horizon {horizon} is too large: the turns up to it or their sums overflow a double"
    )


def _family_ratios(params: RayFamilyParams, horizon: int, js: Iterable[int]) -> list[float]:
    """Entry 0 and the entries j + 1 for j in ``js`` of the member's breakpoint ratios.

    Each entry is its closed form (see the module docstring) taken in
    integers and rounded once.  For b inside ``feasible_b_interval`` it is
    capped at the double of 1 + 2M, which it passes only where lo, hi or M
    round across their exact values.  Raises ValueError where the last turn
    f(horizon + m - 2) or twice the cost sum up to it,
    2 (M f(horizon - 1) - (m-1)(b - m a) lambda), leaves double range.
    """
    m, a, b, lam = params.m, params.a, params.b, params.lambda_
    _check_horizon(m, horizon)
    big_m = optimal_cost_coefficient(m)
    try:
        finite = math.isfinite(params.f(horizon + m - 2)) and math.isfinite(
            2.0 * (big_m * params.f(horizon - 1) - (m - 1) * (b - m * a) * lam)
        )
    except OverflowError:
        finite = False
    if not finite:
        raise _horizon_overflow(horizon)
    # a = an / d and b = bn / d exactly, d a power of two; q^k = m^k / (m-1)^k.
    (an, da), (bn, db) = a.as_integer_ratio(), b.as_integer_ratio()
    d = max(da, db)
    an, bn = an * (d // da), bn * (d // db)
    u, v = m ** (m - 1), (m - 1) ** (m - 1)  # q^(m-1) = u / v and M = m u / v
    ratios = [(d * v + 2 * (m - 1) * ((bn - an) * u + (m * an - bn) * v)) / (d * v)]
    for j in js:
        g = (an * j + bn) * m**j  # d (a j + b) q^j (m-1)^j
        t = 2 * (m - 1) * (bn - m * an) * (m - 1) ** j * v
        ratios.append(((v + 2 * m * u) * g - t) / (v * g))
    lo, hi = feasible_b_interval(m, a)
    if lo <= b <= hi:
        top = 1.0 + 2.0 * big_m
        ratios = [min(r, top) for r in ratios]
    return ratios


def mray_breakpoint_ratios(params: RayFamilyParams, horizon: int) -> list[float]:
    """Breakpoint ratio suprema of a family member, up to f(horizon)."""
    return _family_ratios(params, horizon, range(horizon))


def mray_worst_ratio(params: RayFamilyParams, horizon: int = 200) -> float:
    """Supremum of the worst-case ratio over D up to f(horizon).

    For feasible parameters this is sandwiched in
    [1 + 2(m-1), 1 + 2 m^m/(m-1)^(m-1)] and approaches the upper value as
    the horizon grows; the remaining gap decays geometrically.  The
    entries j + 1 are monotone in j, so the largest is entry 0, 1 or
    horizon.
    """
    return max(_family_ratios(params, horizon, (0, horizon - 1)))


def multi_p(n: int, point: Sequence[float], m: int) -> float:
    """The multivariate recurrence over the first m-1 turn ratios.

    ``point`` holds the coordinates x = (x_0, ..., x_{m-2}).
    p_n = x_n for n <= m-2; p_{m-1} = |x|(x_0 - 1);
    p_n = |x|(p_{n-(m-1)} - p_{n-m}) for n >= m, where |x| sums the coords.
    Reduces to the univariate family when m = 2.
    """
    _check_rays(m)
    coords = [float(c) for c in point]
    if len(coords) != m - 1:
        raise ValueError(f"point must have m-1 = {m - 1} coordinates, got {len(coords)}")
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    total = sum(coords)
    vals = list(coords)  # p_0 .. p_{m-2}
    if n <= m - 2:
        return vals[n]
    vals.append(total * (coords[0] - 1.0))  # p_{m-1}
    for k in range(m, n + 1):
        vals.append(total * (vals[k - (m - 1)] - vals[k - m]))
    return vals[n]


# Simultaneous root points of p_n .. p_{n+m-2} with ordered non-negative
# coordinates and maximal coordinate sum, for 2 <= m <= 5 and 0 <= n <= 6.
_S2 = math.sqrt(2.0)
_S3 = math.sqrt(3.0)
_S5 = math.sqrt(5.0)
_S6 = math.sqrt(6.0)
_S13 = math.sqrt(13.0)
_S21 = math.sqrt(21.0)

ALPHA_TABLE: dict[tuple[int, int], tuple[float, ...]] = {
    (2, 0): (0.0,),
    (2, 1): (1.0,),
    (2, 2): (2.0,),
    (2, 3): ((3.0 + _S5) / 2.0,),
    (2, 4): (3.0,),
    (2, 5): (4.0 * math.cos(math.pi / 7.0) ** 2,),
    (2, 6): (2.0 + _S2,),
    (3, 0): (0.0, 0.0),
    (3, 1): (0.0, 0.0),
    (3, 2): (1.0, 1.0),
    (3, 3): (1.5, 1.5),
    (3, 4): ((3.0 + _S3) / 3.0, (3.0 + 2.0 * _S3) / 3.0),
    (3, 5): ((7.0 + _S13) / 6.0, (4.0 + _S13) / 3.0),
    (3, 6): ((15.0 + 3.0 * _S3) / 11.0, (18.0 + 8.0 * _S3) / 11.0),
    (4, 0): (0.0, 0.0, 0.0),
    (4, 1): (0.0, 0.0, 0.0),
    (4, 2): (0.0, 0.0, 0.0),
    (4, 3): (1.0, 1.0, 1.0),
    (4, 4): (4.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0),
    (4, 5): ((9.0 + _S21) / 10.0, (4.0 + _S21) / 5.0, (4.0 + _S21) / 5.0),
    (4, 6): ((6.0 + _S6) / 6.0, (3.0 + _S6) / 3.0, (2.0 + _S6) / 2.0),
    (5, 0): (0.0, 0.0, 0.0, 0.0),
    (5, 1): (0.0, 0.0, 0.0, 0.0),
    (5, 2): (0.0, 0.0, 0.0, 0.0),
    (5, 3): (0.0, 0.0, 0.0, 0.0),
    (5, 4): (1.0, 1.0, 1.0, 1.0),
    (5, 5): (1.25, 1.25, 1.25, 1.25),
    (5, 6): (
        (6.0 + 2.0 * _S2) / 7.0,
        (5.0 + 4.0 * _S2) / 7.0,
        (5.0 + 4.0 * _S2) / 7.0,
        (5.0 + 4.0 * _S2) / 7.0,
    ),
}


def verify_alpha_table(m: int, n: int, tol: float = 1e-10) -> bool:
    """Substitute the tabulated root point into p_n .. p_{n+m-2} and check zeros.

    Also checks the ordering constraint 0 <= x_0 <= ... <= x_{m-2}.
    """
    key = (m, n)
    if key not in ALPHA_TABLE:
        raise ValueError(f"table covers 2 <= m <= 5 and 0 <= n <= 6, got m={m}, n={n}")
    point = ALPHA_TABLE[key]
    if any(c < prev - tol for prev, c in zip((0.0, *point), point)):
        return False
    return all(abs(multi_p(k, point, m)) <= tol for k in range(n, n + m - 1))

