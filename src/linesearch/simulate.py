"""Independent verification of strategies: exact worst-case ratios.

Nothing here knows how a strategy was produced.  The worst-case ratio is
evaluated analytically at breakpoint limits, so it is exact rather than
sampled.  A geometric grid sweep is kept alongside as a deliberately dumb
second opinion: it prices real grid points only, never a breakpoint limit.
It costs O(n) rather than O(points), because the grid points between two
consecutive reaches share one prefix sum, so only the first of them can
carry that run's largest ratio.

Each O(n) pass (validation, prefix sums, breakpoints, the grid points that
open each run, the baselines' turns) is a few C-level passes: ``accumulate``,
``bisect``, ``map``/``zip`` and comprehensions, not a statement per turn.  Both
pricers validate a strategy, sum its reaches and compute each turn's limit
ratio 2 S_{j+1} / t_j / unit + 1 once while they are handed the same
object: the last strategy, its sums, their units, its limit ratios and
whether its turns strictly increase are kept in one entry, so ``verify``'s
grid reuses what its ``worst_case_ratio`` built.  The exact pricing reads
its breakpoint suprema off the limit ratios; the grid bounds each run's
ratio by the limit ratio at the turn before it, keeps the runs whose bound
beats the ratio at lam and whose turn lies close enough below a grid point
(one ``log`` each), and prices only those, at the point that ``log`` puts
first above the turn (two ``exp`` to check it).

At n = 995 on a 2-CPU machine (CPython 3.11) that puts
``worst_case_ratio`` at about 0.15 ms on a new object and 0.025 ms on the
last one, plus about 0.07 ms each time its per-interval table is read.
``grid_sweep_ratio``'s cost follows the number of runs whose bound beats
lam's ratio.  On the last object priced it takes about 0.035 ms for the
optimum at rho = 1e298 (n = 988), whose equalized ratios leave no such run
(0.15 ms on a new object), and 0.13 ms at rho = 1e300 (n = 995), where 323
runs' limit ratios beat the ratio at lam by a few ulps and none of them has
a grid point close enough above its turn to be found.  On
``power_of_two``, which leaves nearly all runs, it takes about 0.6-0.9 ms.
A baseline built by ``baselines`` and priced costs about 0.3 ms.
``baseline_ratios`` prices all four in about 0.004 ms from per-lambda
tables of the baselines' turns, and single_shot from a closed form;
building a lambda's tables costs about what pricing the strategies does.
Where twice the sum of the reaches would overflow, both pricers price the
late sums in units of an exact power of two.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import lt, mul, truediv

from ._base import Record, set_field
from .optimal import Strategy


# Twice a double overflows exactly where the double exceeds this.
_HALF_MAX = sys.float_info.max / 2.0


class IncompleteStrategyError(ValueError):
    """The strategy cannot cover all of [lambda, Lambda]."""


class RatioReport(Record):
    """Per-interval suprema of cost/distance and their overall maximum.

    The intervals run from ``lam`` through each breakpoint to ``Lam``, and
    ``interval_sups`` holds their suprema in order.  ``per_interval``
    pairs each interval (lower end, upper end) with its supremum; it is
    built from these fields each time it is read, so a caller that reads
    only ``sup_ratio`` or ``interval_sups`` never pays for its n pairs of
    pairs.
    """

    __slots__ = ("sup_ratio", "argmax_interval", "interval_sups", "lam", "breakpoints", "Lam")

    def __init__(
        self,
        sup_ratio: float,
        argmax_interval: int,
        interval_sups: Sequence[float],
        lam: float,
        breakpoints: Sequence[float],
        Lam: float,
    ) -> None:
        set_field(self, "sup_ratio", sup_ratio)
        set_field(self, "argmax_interval", argmax_interval)
        set_field(self, "interval_sups", tuple(interval_sups))
        set_field(self, "lam", lam)
        set_field(self, "breakpoints", tuple(breakpoints))
        set_field(self, "Lam", Lam)

    @property
    def per_interval(self) -> tuple[tuple[tuple[float, float], float], ...]:
        """((lower, upper), supremum) per interval."""
        lam, breaks = self.lam, self.breakpoints
        ends = [*breaks, self.Lam]
        # A breakpoint on lam ends the first interval where the next one does.
        first_hi = ends[1] if breaks and breaks[0] == lam else ends[0]
        return tuple(zip([(lam, first_hi), *zip(breaks, ends[1:])], self.interval_sups))


def _checked_bounds(strategy: Strategy, lam: float | None, Lam: float | None) -> tuple[float, float]:
    lam = strategy.lambda_ if lam is None else lam
    Lam = strategy.terminal if Lam is None else Lam
    if not (0.0 < lam <= Lam):
        raise ValueError(f"need 0 < lambda <= Lambda, got {lam}, {Lam}")
    if strategy.terminal < Lam:
        raise IncompleteStrategyError(
            f"terminal {strategy.terminal} does not cover Lambda = {Lam}"
        )
    return lam, Lam


# The last strategy validated, with its reach sums, their units, its turns'
# limit ratios and whether its turns strictly increase.  A Strategy is
# immutable and the entry holds a reference to it, so while the same object
# comes back the entry is its own.  The entry is one tuple, read and bound in
# one step each, so a concurrent caller never reads a mixed one; a race costs
# at most a second build.
_LAST: tuple[Strategy | None, list[float], list[float], list[float], bool] = (
    None, [], [], [], True)


def _validated_sums(strategy: Strategy) -> tuple[list[float], list[float], list[float], bool]:
    """``_reach_sums(strategy)`` and ``strategy.validate()``: whether the turns strictly increase.

    Once per object in a row.  Every caller shares the lists returned, and
    none changes them.
    """
    global _LAST
    entry = _LAST
    if entry[0] is not strategy:
        strict = strategy.validate()
        entry = _LAST = (strategy, *_reach_sums(strategy), strict)
    return entry[1], entry[2], entry[3], entry[4]


def _reach_sums(strategy: Strategy) -> tuple[list[float], list[float], list[float]]:
    """Running sums S_j of the reaches through the terminal, the unit u_j of each, and the limit ratios.

    The sums are in the caller's units (unit 1) up to the last one whose
    double is finite.  Where twice the total overflows, the later sums are
    those of the reaches scaled by a power of two chosen from the largest
    reach and the number of reaches, so that twice the total stays finite,
    and their unit is that power.  The earlier reaches are never scaled, so
    none of them leaves the normal range however small lam is.  A ratio is
    2 S / d / unit: the quotient of a late sum by a breakpoint is a normal
    double, and a power of two scales it exactly, so every ratio that was
    finite unscaled is bit for bit unchanged.

    Limit ratio j is 2 S_{j+1} / t_j / u_{j+1} + 1, the ratio as D -> t_j+
    when turn j+1 serves: both pricers read it, ``worst_case_ratio`` at a
    breakpoint and ``grid_sweep_ratio`` as the bound on run j+1.  The unit
    divides only the scaled sums, as dividing by 1 changes no bit.
    """
    turns = strategy.turns
    sums = list(accumulate(chain(turns, (strategy.terminal,))))
    cut, scale = len(sums), 1.0
    if 2.0 * sums[-1] == math.inf:
        reach = [*turns, strategy.terminal]
        # Each reach is below 2^top, so their sum is below 2^(top + bits) and,
        # in units of 2^(top + bits - 1022), twice it is at most 2^1023.
        top = math.frexp(max(reach))[1]
        scale = math.ldexp(1.0, 1022 - top - len(reach).bit_length())
        cut = bisect_right(sums, _HALF_MAX)  # 2 sums[j] overflows from j = cut on
        carried = sums[cut - 1 : cut]  # the last sum in the caller's units, if any
        late = accumulate([x * scale for x in (*carried, *reach[cut:])])
        sums[cut:] = islice(late, len(carried), None)
    plain = max(cut - 1, 0)  # the limit ratios whose sum is in unit 1
    limits = [2.0 * s / t + 1.0 for s, t in zip(sums[1 : plain + 1], turns)]
    limits += [2.0 * s / t / scale + 1.0 for s, t in zip(sums[plain + 1 :], turns[plain:])]
    return sums, [1.0] * cut + [scale] * (len(sums) - cut), limits


def worst_case_ratio(
    strategy: Strategy, lam: float | None = None, Lam: float | None = None
) -> RatioReport:
    """Exact supremum of cost/D over D in [lam, Lam].

    On half-open intervals between breakpoints the ratio decreases in D, so
    each supremum sits at the interval's lower end: attained at D = lam for
    the first interval, and as a limit D -> b+ at each later breakpoint b.
    The breakpoints are the distinct turns in [lam, Lam), and the first turn
    above b serves every D just above it, at cost 2 S + D with S the sum of
    the reaches through that turn.  These closed forms make the verifier
    exact.  The turns do not decrease, so the breakpoints are one slice of
    them, each served by the turn after its last copy, and its supremum is
    that turn's limit ratio.  Where the slice strictly increases (every
    strategy the package builds) the suprema are a slice of the strategy's
    limit ratios, built once per strategy, behind lam's own; the check that
    validates a strategy also says whether all its turns strictly increase,
    so only a strategy with equal turns has its slice checked again.
    """
    lam, Lam = _checked_bounds(strategy, lam, Lam)
    sums, units, limits, strict = _validated_sums(strategy)
    turns = strategy.turns
    # turns[lo - 1] < lam <= turns[lo] and turns[hi - 1] < Lam <= turns[hi], where those exist.
    lo, hi = bisect_left(turns, lam), bisect_left(turns, Lam)
    breaks, sups = turns[lo:hi], limits[lo:hi]
    if not (strict or all(map(lt, breaks, breaks[1:]))):
        # Equal turns: keep each breakpoint's last copy.
        last = [*map(lt, breaks, breaks[1:]), True]
        breaks = tuple(compress(breaks, last))
        sups = list(compress(sups, last))
    ratios = [2.0 * sums[lo] / lam / units[lo] + 1.0, *sups]
    sup = max(ratios)
    return RatioReport(sup, ratios.index(sup), ratios, lam, breaks, Lam)


class GeometricGrid(Sequence):
    """d_0 = lo, d_{P-1} = hi and d_k = lo exp(k ln(hi/lo)/(P-1)) between.

    Interior points are capped at hi, so the grid never decreases even where
    rounding would carry a point past its end.  When hi/lo overflows, the
    points are exp(ln lo + k step) instead.
    """

    def __init__(self, lo: float, hi: float, points: int) -> None:
        if points > 2**53:  # past it k * step no longer resolves the index k
            raise ValueError(f"a grid has at most 2**53 points, got {points}")
        self.lo, self.hi, self.points = lo, hi, points
        self._log_lo = math.log(lo)
        ratio = hi / lo
        self._scaled = ratio < math.inf
        span = math.log(ratio) if self._scaled else math.log(hi) - self._log_lo
        self.step = span / max(points - 1, 1)

    def __len__(self) -> int:
        return self.points

    def __getitem__(self, k: int) -> float:
        if not 0 <= k < self.points:
            raise IndexError(k)
        if k == 0:
            return self.lo
        if k == self.points - 1:
            return self.hi
        if self._scaled:
            d = self.lo * math.exp(self.step * k)
        else:
            d = math.exp(self._log_lo + self.step * k)
        return d if d < self.hi else self.hi

    def first_above(self, b: float) -> tuple[int, float]:
        """(k, d_k) for the smallest k with d_k > b; (len, inf) if there is none.

        A bisection over the points themselves, which never decrease.
        """
        k = bisect_right(self, b)
        return (k, self[k]) if k < self.points else (k, math.inf)


# A bound, in natural-log units, on how far rounding can move a grid point
# d_k from lo e^(k step) against the x that _runs_near_points computes for a
# turn, and on how far it can move the ratio at a point against its bound;
# see _runs_near_points.
_LOG_SLACK = 8.0 * sys.float_info.epsilon * (3.0 * 745.0 + 2.0)


def _runs_near_points(grid: GeometricGrid, best: float, runs: list[int],
                      turns: Sequence[float], limits: list[float]) -> list[tuple[int, int]]:
    """(j, k) for the runs j of ``runs`` whose first grid point can price above ``best``.

    Each turn t = t_{j-1} lies in [lo, hi), and k = floor(x) + 1, with x as
    below, guesses the index of the first point above it.

    Run j's ratio at a point D > t = t_{j-1} is c/D + 1, with c = 2 S_j / u_j,
    and its limit ratio is c/t + 1, each rounded.  So D can price above best
    only if D/t < (limit - 1)/(best - 1) = 1 + delta, with delta = (limit -
    best)/(best - 1), up to those roundings: ln(D/t) < delta + 2 eps, where
    eps = 2^-52 and best >= 3, as 2 S >= 2 lam.  The points are lo e^(k step)
    up to rounding, so in index units, with x = ln(t/lo)/step, the first
    point above t can beat best only if some integer k lies in (x - m,
    x + delta/step + m), with m step bounding, in log units:

    - the ``log`` of t and of lo, within an ulp each, and their difference:
      eps (2 745 + span / 2), as |ln d| < 745 for every positive double;
    - the grid's ``exp``, within an ulp, the rounding of step k, of log_lo +
      step k where hi/lo overflows and of the product by lo: eps (745 + span
      + 2), with span = ln(hi/lo) < 2 745;
    - step itself, (P - 1) step against span, which places the point hi
      that the cap and the last index give: eps (745 + span + 1);
    - the quotient x, its fraction and 1 - f: eps span;
    - the two ratios: 2 eps.

    That is eps (4 745 + 3.5 span + 5), below 4 eps (3 745 + 2) as
    span < 2 745; ``_LOG_SLACK`` doubles that, which also leaves room for a
    C library whose ``log`` and ``exp`` err by up to two ulps.  delta/step
    is rounded five times, which the factor 1 + 4 eps covers.  Where m is
    not below 1/2 every run is kept.  A run dropped here prices at most
    best, so the maximum is the one over every run, bit for bit.
    """
    step, log_lo = grid.step, grid._log_lo
    xs = [(v - log_lo) / step for v in map(math.log, [turns[j - 1] for j in runs])]
    if not _LOG_SLACK < 0.5 * step:
        return [(j, int(x) + 1) for j, x in zip(runs, xs)]
    near = _LOG_SLACK / step
    per = (1.0 + 4.0 * sys.float_info.epsilon) / ((best - 1.0) * step)
    # f = x mod 1: the integer at or below x is f away, the next one 1 - f.
    return [(j, int(x) + 1) for j, x in zip(runs, xs)
            if (f := x % 1.0) < near or 1.0 - f < (limits[j - 1] - best) * per + near]


def grid_sweep_ratio(
    strategy: Strategy,
    lam: float | None = None,
    Lam: float | None = None,
    points: int = 100_000,
) -> float:
    """Max of cost/D over a geometric grid of D values; a lower bound on the sup.

    The grid is :class:`GeometricGrid` from lam to Lam, geometric because
    ratio extrema cluster at breakpoints whose spacing is multiplicative.
    Each grid point D is served by the first reach >= D, so the points in
    (reach[j-1], reach[j]] all pay the prefix sum through reach[j], and the
    first of them has the largest ratio.  Pricing that point alone gives the
    same maximum as pricing every point, in O(n) work whatever ``points``
    is.  Converges to the exact supremum as points grow.

    Finding a run's first point costs a ``log`` and two ``exp``, so only
    the runs that can beat the point lam are found.  Every point of run j
    lies above t_{j-1}, the turn before it, so none prices above the limit
    ratio 2 S_j / t_{j-1} / u_j + 1 that ``worst_case_ratio`` reads at
    t_{j-1}: rounding keeps the order of each step.  Past the run that
    holds lam every t_{j-1} is at least lam, whose own ratio is the best so
    far, and a run whose limit ratio does not beat it is skipped.  Of the
    rest, a run whose limit ratio beats lam's by a relative delta can win
    only if a grid point lies above t_{j-1} within about delta of it, and
    one ``log`` per run keeps only those (:func:`_runs_near_points`).  On a
    strategy that equalizes its intervals' ratios, as the optimum does,
    delta is a few ulps and almost no run is left to find; on one that does
    not, such as ``power_of_two``, few are skipped.  Either way the result
    is that of pricing every run's first point, bit for bit.  That ``log``
    also guesses the index k of the first point above t_{j-1}; the guess
    stands where d_{k-1} <= t_{j-1} < d_k, and
    :meth:`GeometricGrid.first_above` bisects the grid for the rest.
    """
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    lam, Lam = _checked_bounds(strategy, lam, Lam)
    sums, units, limits, _ = _validated_sums(strategy)
    turns = strategy.turns
    # Run `first` holds lam, and the runs before it end below lam: no point
    # of theirs is on the grid.
    first = bisect_left(turns, lam)
    best = 2.0 * sums[first] / lam / units[first] + 1.0
    # From run `stop` + 1 on, the turn before a run is at or above Lam, so
    # no point of that run is on the grid either.
    stop = bisect_left(turns, Lam, first)
    grid = GeometricGrid(lam, Lam, points)
    keep = [j for j, r in enumerate(limits[first:stop], first + 1) if r > best]
    last = len(turns)  # the terminal serves every point past the turns
    for j, k in _runs_near_points(grid, best, keep, turns, limits):
        t = turns[j - 1]
        # The guess stands where d_{k-1} <= t < d_k; the grid bisects for the rest.
        if not (k < points and grid[k - 1] <= t < (d := grid[k])):
            d = grid.first_above(t)[1]
        if j == last or d <= turns[j]:
            best = max(best, 2.0 * sums[j] / d / units[j] + 1.0)
    return best


BASELINES = ("power_of_two", "f_infinity", "los_sqrt", "single_shot")

# How many (baseline, lambda) tables baseline_ratios keeps, the least
# recently used going first; each holds at most 2 098 turns.
_TABLE_CACHE_SIZE = 24
_TABLES: dict[tuple[str, float], tuple[list[float], list[float], list[float]]] = {}


def _check_baseline_bounds(lam: float, Lam: float) -> None:
    if not 0.0 < lam <= Lam < math.inf:
        raise ValueError(f"need 0 < lambda <= Lambda < inf, got {lam}, {Lam}")


def _power_count(lam: float, Lam: float) -> int:
    """How many powers 2^i lam run up to the first whose double reaches Lam.

    Read off the two exponents: 2^(i+1) lam >= Lam from i = count - 1 on.
    The powers below the count are below Lam, so none leaves double range.
    """
    (m_lam, e_lam), (m_Lam, e_Lam) = math.frexp(lam), math.frexp(Lam)
    return max(e_Lam - e_lam + (m_Lam > m_lam), 1)


def _turns(name: str, lam: float) -> Iterator[float]:
    """factor(i) 2^i lam for i = 0, 1, ...: a baseline's turns before truncation.

    power_of_two: factor 1.  f_infinity: 2i + 4.  los_sqrt: sqrt(1 + i/2).
    The powers double from lam and the factors are exact sums (or the root
    of one), so turn i does not depend on how many turns are taken.  The
    factors grow, so the turns increase, up to inf past double range.
    """
    powers = accumulate(repeat(2.0), mul, initial=float(lam))
    if name == "power_of_two":
        return powers
    factors = (
        map(float, count(4, 2))
        if name == "f_infinity"
        else map(math.sqrt, accumulate(repeat(0.5), initial=1.0))
    )
    return map(mul, factors, powers)


def baselines(name: str, lam: float, Lam: float) -> Strategy:
    """Named reference strategies, truncated at the first index reaching Lam.

    power_of_two: 2^i lam.  f_infinity: (2i+4) 2^i lam.  los_sqrt:
    sqrt(1 + i/2) 2^i lam.  single_shot: straight to Lam both ways.  Each
    turn is a factor of at least 1 times the power 2^i lam, and the powers
    run only up to the first whose double reaches Lam, so none leaves double
    range.  A turn past double range is inf, which ends the strategy like
    any turn at or above Lam.
    """
    _check_baseline_bounds(lam, Lam)
    if name == "single_shot":
        return Strategy(turns=(), terminal=Lam, lambda_=lam)
    if name not in BASELINES:
        raise ValueError(f"unknown baseline {name!r}; expected one of {BASELINES}")
    turns = list(islice(_turns(name, lam), _power_count(lam, Lam)))
    # The turns increase, so the ones below Lam are a prefix.
    return Strategy(turns=tuple(turns[: bisect_left(turns, Lam)]), terminal=Lam, lambda_=lam)


def _table(name: str, lam: float, size: int) -> tuple[list[float], list[float], list[float]]:
    """At least ``size`` of a baseline's turns t_j at lam, with their sums and peaks.

    S_j = t_0 + ... + t_j, accumulated left to right as ``_reach_sums`` does,
    and peaks[j] = max over i <= j of S_{i+1} / t_i.  None of them depends on
    Lambda.  A table is never changed once stored, only replaced: one too
    short is rebuilt at twice its length, or at ``size`` if that is more, so
    a first call pays only for the turns it needs and a run of growing calls
    rebuilds O(log n) times.  No table runs past the last power 2^i lam that
    is a double.
    """
    key = (name, lam)
    table = _TABLES.pop(key, None)
    have = len(table[0]) if table else 0
    if have < size:
        size = max(size, min(2 * have, _power_count(lam, sys.float_info.max)))
        turns = list(islice(_turns(name, lam), size))
        sums = list(accumulate(turns))
        table = turns, sums, list(accumulate(map(truediv, sums[1:], turns), max))
    _TABLES[key] = table  # the most recently used last
    if len(_TABLES) > _TABLE_CACHE_SIZE:
        # Evict from a snapshot of the keys, taken in one C call: another
        # thread may change the dict meanwhile, and iterating it would raise.
        for old in list(_TABLES)[:-_TABLE_CACHE_SIZE]:
            _TABLES.pop(old, None)
    return table


def baseline_ratios(lam: float, Lam: float) -> dict[str, float]:
    """``worst_case_ratio(baselines(name, lam, Lam)).sup_ratio`` for each name in BASELINES.

    With k turns t_0 < ... < t_{k-1} below Lam, a baseline's ratios are
    2 S_0 / lam + 1 at lam, 2 S_{j+1} / t_j + 1 at each turn but the last,
    and 2 (S_{k-1} + Lam) / t_{k-1} + 1 at the last, where the terminal
    serves.  Only the last reads Lam, so the maximum is read off a table per
    (baseline, lam) in O(log k), bit for bit the generic pricing: doubling
    is exact and rounding keeps order, so 2 peaks[k-2] + 1 is the largest
    of the middle ratios.  With no turn below Lam (single_shot, or k = 0)
    the one ratio is 2 (Lam / lam) + 1, again bit for bit: the generic
    pricing's 2 Lam / lam, in units of a power of two where 2 Lam
    overflows, rounds to the double of Lam / lam or overflows with it.  The
    generic pricing itself serves only a Lam where twice S_{k-1} + Lam
    overflows.
    """
    _check_baseline_bounds(lam, Lam)
    size = _power_count(lam, Lam)
    ratios = {}
    for name in BASELINES:
        k = 0
        if name != "single_shot":
            turns, sums, peaks = _table(name, lam, size)
            k = bisect_left(turns, Lam)
        if not k:
            ratios[name] = 2.0 * (Lam / lam) + 1.0
        elif 2.0 * (last := sums[k - 1] + Lam) < math.inf:
            ends = max(2.0 * sums[0] / lam + 1.0, 2.0 * last / turns[k - 1] + 1.0)
            ratios[name] = max(ends, 2.0 * peaks[k - 2] + 1.0) if k > 1 else ends
        else:
            ratios[name] = worst_case_ratio(baselines(name, lam, Lam)).sup_ratio
    return ratios
