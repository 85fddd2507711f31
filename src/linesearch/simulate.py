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
``bisect``, ``map``/``zip`` and comprehensions, not a statement per turn.  At
n = 995 on a 2-CPU machine (CPython 3.11) that puts ``worst_case_ratio`` at
about 0.2-0.25 ms, plus about 0.07 ms each time its per-interval table is read,
``grid_sweep_ratio`` at about 1 ms (one ``log`` and two ``exp`` per run), and
each baseline at about 0.07-0.18 ms to build and 0.25 ms to price.  Where
twice the sum of the reaches would overflow, both pricers work in units of an
exact power of two.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from itertools import accumulate, repeat
from operator import le, lt, mul

from ._base import Record, set_field
from .optimal import Strategy


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
    if strategy.terminal < Lam * (1.0 - 1e-12):
        raise IncompleteStrategyError(
            f"terminal {strategy.terminal} does not cover Lambda = {Lam}"
        )
    strategy.validate()
    return lam, Lam


def _reach_sums(strategy: Strategy, lam: float) -> tuple[list[float], float]:
    """Running sums of the reaches f(0), f(1), ... through the terminal, and their scale.

    The sums are in the caller's units (scale 1) unless twice the total
    overflows.  Then they are the sums of ``strategy.scaled(scale)`` for a
    power of two chosen from the largest reach and the number of reaches, so
    that twice the total stays finite, though never so small that lam leaves
    the normal range.  A power of two scales exactly, so 2 S / (d scale)
    equals 2 S / d wherever the latter was finite.
    """
    reach = [*strategy.turns, strategy.terminal]
    sums = list(accumulate(reach))
    if 2.0 * sums[-1] < math.inf:
        return sums, 1.0
    # Each reach is below 2^top, so their sum is below 2^(top + bits) and,
    # scaled by 2^-e, twice it is at most 2^1023.
    top = math.frexp(max(reach))[1]
    e = min(top + len(reach).bit_length() - 1022,
            math.frexp(min(lam, strategy.lambda_))[1] + 1021)
    if e <= 0:
        return sums, 1.0
    scale = math.ldexp(1.0, -e)
    scaled = strategy.scaled(scale)
    return list(accumulate([*scaled.turns, scaled.terminal])), scale


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
    exact.  Where the turns below Lam strictly increase and none after them
    falls below Lam (every strategy the package builds), the breakpoints
    are one slice of the turns and each is served by the next turn, so
    pricing is a few C-level passes.  Otherwise (equal turns below Lam, or
    turns that dip within ``validate``'s slack) the breakpoints are sorted
    out of the turns and each is served by a bisection of their running
    maximum, about 0.4-0.6 ms more than the slice at n = 995.
    """
    lam, Lam = _checked_bounds(strategy, lam, Lam)
    sums, scale = _reach_sums(strategy, lam)
    turns = strategy.turns
    # On any tuple, turns[hi - 1] < Lam <= turns[hi] where those exist.
    hi = bisect_left(turns, Lam)
    head = turns[:hi]
    if all(map(lt, head, head[1:])) and min(turns[hi:], default=Lam) >= Lam:
        lo = bisect_left(head, lam)
        first, breaks, served = lo, head[lo:], sums[lo + 1 : hi + 1]
    else:
        breaks = sorted({t for t in turns if lam <= t < Lam})
        peaks = list(accumulate(turns, max))
        first = bisect_left(peaks, lam)
        served = [sums[bisect_right(peaks, b)] for b in breaks]
    ratios = [
        2.0 * s / (d * scale) + 1.0 for s, d in zip([sums[first], *served], [lam, *breaks])
    ]
    sup = max(ratios)
    return RatioReport(sup, ratios.index(sup), ratios, lam, breaks, Lam)


class GeometricGrid(Sequence):
    """d_0 = lo, d_{P-1} = hi and d_k = lo exp(k ln(hi/lo)/(P-1)) between.

    Interior points are capped at hi, so the grid never decreases even where
    rounding would carry a point past its end.  When hi/lo overflows, the
    points are exp(ln lo + k step) instead.
    """

    def __init__(self, lo: float, hi: float, points: int) -> None:
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
        return self._inner_points((k,))[0]

    def _inner_points(self, ks: Iterable[int], shift: int = 0) -> list[float]:
        """d_{k + shift} for ks, each 0 < k + shift < len(self) - 1: the formula capped at hi."""
        lo, hi, step, exp = self.lo, self.hi, self.step, math.exp
        if self._scaled:
            return [d if (d := lo * exp(step * (k + shift))) < hi else hi for k in ks]
        log_lo = self._log_lo
        return [d if (d := exp(log_lo + step * (k + shift))) < hi else hi for k in ks]

    def first_above(self, b: float) -> tuple[int, float]:
        """(k, d_k) for the smallest k with d_k > b; (len, inf) if there is none.

        k is guessed from ln(b/lo)/step and then corrected point by point,
        so the answer rests on the points themselves, not on the guess.
        """
        if b < self.lo:
            return 0, self.lo
        last = self.points - 1
        guess = (math.log(b) - self._log_lo) / self.step + 1.0 if self.step > 0.0 else last
        k = int(guess) if guess < last else last
        d = self[k]
        while d <= b:
            if k == last:
                return self.points, math.inf
            k += 1
            d = self[k]
        while k > 0 and (prev := self[k - 1]) > b:
            k, d = k - 1, prev
        return k, d


def _first_points_above(grid: GeometricGrid, bounds: list[float]) -> list[float]:
    """The point ``grid.first_above(b)`` finds for each of the nondecreasing bounds.

    The list stops before the first b with no point above it.  Below lo the
    point is lo, and from hi on there is none.  Between them, each k is
    guessed from ln(b/lo)/step as ``first_above`` guesses it: at least 1, as
    b >= lo.  The guesses grow with b, and from the first one at or past the
    last index on, k is the last index and d_k is hi.  A guess stands only
    where d_{k-1} <= b < d_k; ``first_above`` settles the rest point by point.
    """
    start, stop = bisect_left(bounds, grid.lo), bisect_left(bounds, grid.hi)
    mid = bounds[start:stop]
    last, step, log_lo = grid.points - 1, grid.step, grid._log_lo  # step > 0 wherever mid is not empty
    guesses = [(lb - log_lo) / step + 1.0 for lb in map(math.log, mid)]
    cut = bisect_left(guesses, last)
    ks = list(map(int, guesses[:cut]))
    tail = len(mid) - cut
    above = [*grid._inner_points(ks), *repeat(grid.hi, tail)]
    # At k - 1 = 0 the formula may miss lo by an ulp (when hi/lo overflows);
    # as d_0 = lo <= b, that can only send the run to first_above.
    below = [*grid._inner_points(ks, -1), *repeat(grid[last - 1], tail)]
    if not (all(map(le, below, mid)) and all(map(lt, mid, above))):
        above = [d if prev <= b < d else grid.first_above(b)[1]
                 for b, d, prev in zip(mid, above, below)]
    return [grid.lo] * start + above


def grid_sweep_ratio(
    strategy: Strategy,
    lam: float | None = None,
    Lam: float | None = None,
    points: int = 100_000,
) -> float:
    """Max of cost/D over a geometric grid of D values; a lower bound on the sup.

    The grid is :class:`GeometricGrid` from lam to Lam, geometric because
    ratio extrema cluster at breakpoints whose spacing is multiplicative.
    Each grid point D is served by the first reach >= D (the terminal serves
    any point past it), so the points in (max of the earlier reaches,
    reach[j]] all pay the prefix sum through reach[j], and the first of them
    has the largest ratio.  Pricing that point alone gives the same maximum
    as pricing every point, in O(n) work whatever ``points`` is.  Converges
    to the exact supremum as points grow.
    """
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    lam, Lam = _checked_bounds(strategy, lam, Lam)
    sums, scale = _reach_sums(strategy, lam)
    turns = strategy.turns
    reach = [*turns, strategy.terminal]
    # Run j's first point lies above every earlier reach: above the turn
    # before it, when the turns do not decrease.
    if all(map(le, turns, turns[1:])):
        peaks = [-math.inf, *turns]
    else:
        peaks = [-math.inf, *accumulate(turns, max)]
    firsts = _first_points_above(GeometricGrid(lam, Lam, points), peaks)
    priced = [2.0 * s / (d * scale) + 1.0 for s, d, r in zip(sums, firsts, reach) if d <= r]
    if len(firsts) == len(reach):  # the terminal serves every point past it
        priced.append(2.0 * sums[-1] / (firsts[-1] * scale) + 1.0)
    return max(priced, default=-math.inf)


BASELINES = ("power_of_two", "f_infinity", "los_sqrt", "single_shot")


def baselines(name: str, lam: float, Lam: float) -> Strategy:
    """Named reference strategies, truncated at the first index reaching Lam.

    power_of_two: 2^i lam.  f_infinity: (2i+4) 2^i lam.  los_sqrt:
    sqrt(1 + i/2) 2^i lam.  single_shot: straight to Lam both ways.  Each
    turn is a factor of at least 1 times the power 2^i lam, and the powers
    run only up to the first whose double reaches Lam, so none leaves double
    range.  A turn past double range is inf, which ends the strategy like
    any turn at or above Lam.
    """
    if not 0.0 < lam <= Lam < math.inf:
        raise ValueError(f"need 0 < lambda <= Lambda < inf, got {lam}, {Lam}")
    if name == "single_shot":
        return Strategy(turns=(), terminal=Lam, lambda_=lam)
    if name not in BASELINES:
        raise ValueError(f"unknown baseline {name!r}; expected one of {BASELINES}")
    # 2^(i+1) lam >= Lam from i = count - 1 on, read off the two exponents.
    (m_lam, e_lam), (m_Lam, e_Lam) = math.frexp(lam), math.frexp(Lam)
    count = max(e_Lam - e_lam + (m_Lam > m_lam), 1)
    powers = list(accumulate(repeat(2.0, count - 1), mul, initial=float(lam)))
    if name == "power_of_two":
        turns = powers
    else:  # factor(i) for i = 0, 1, ...: 2i + 4, or the root of 1 + i/2, both exact sums
        factors = (
            map(float, range(4, 2 * count + 4, 2))
            if name == "f_infinity"
            else map(math.sqrt, accumulate(repeat(0.5, count - 1), initial=1.0))
        )
        turns = list(map(mul, factors, powers))
    # The factors grow, so the turns increase: the ones below Lam are a prefix.
    return Strategy(turns=tuple(turns[: bisect_left(turns, Lam)]), terminal=Lam, lambda_=lam)
