"""Independent verification of strategies: costs and exact worst-case ratios.

Nothing here knows how a strategy was produced.  Costs follow the turn-by-turn
walk; the worst-case ratio is evaluated analytically at breakpoint limits, so
it is exact rather than sampled.  A geometric grid sweep is kept alongside as
a deliberately dumb second opinion: it prices real grid points only, never a
breakpoint limit.  It costs O(n) rather than O(points), because the grid
points between two consecutive reaches share one prefix sum, so only the
first of them can carry that run's largest ratio.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import accumulate

from ._base import Record, set_field
from .optimal import Strategy

LEFT = "left"
RIGHT = "right"


class UnreachableTargetError(ValueError):
    """The target distance exceeds the strategy's terminal reach."""


class IncompleteStrategyError(ValueError):
    """The strategy cannot cover all of [lambda, Lambda]."""


class TargetSpec(Record):
    """A concrete target: distance plus side ('left'/'right') or ray index."""

    __slots__ = ("distance", "side")

    def __init__(self, distance: float, side: str | int | None = None) -> None:
        if not (distance > 0.0 and math.isfinite(distance)):
            raise ValueError(f"target distance must be positive and finite, got {distance}")
        set_field(self, "distance", distance)
        set_field(self, "side", side)


class RatioReport(Record):
    """Per-interval suprema of cost/distance and their overall maximum."""

    __slots__ = ("sup_ratio", "argmax_interval", "per_interval")

    def __init__(
        self,
        sup_ratio: float,
        argmax_interval: int,
        per_interval: tuple[tuple[tuple[float, float], float], ...],
    ) -> None:
        set_field(self, "sup_ratio", sup_ratio)
        set_field(self, "argmax_interval", argmax_interval)
        set_field(self, "per_interval", per_interval)


def _distance_of(target: TargetSpec | float) -> float:
    if isinstance(target, TargetSpec):
        return target.distance
    d = float(target)
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"target distance must be positive and finite, got {d}")
    return d


def _first_reaching(strategy: Strategy, d: float) -> int:
    """Smallest iteration j with f(j) >= d; the tail makes this total."""
    for j, t in enumerate(strategy.turns):
        if t >= d:
            return j
    return len(strategy.turns)


def cost(strategy: Strategy, target: TargetSpec | float) -> float:
    """Worst-case-orientation cost 2 sum_{i<=j} f(i) + D with j = f^{-1}(D).

    The searcher that first reaches depth D at iteration j only finds a
    target on the unlucky side during iteration j+1, after paying full
    round trips through iteration j.
    """
    d = _distance_of(target)
    if d > strategy.terminal * (1.0 + 1e-12):
        raise UnreachableTargetError(
            f"target at {d} is beyond the terminal distance {strategy.terminal}"
        )
    j = _first_reaching(strategy, d)
    return 2.0 * (sum(strategy.turns[: j + 1]) + (strategy.terminal if j == strategy.n else 0.0)) + d


def walk_cost(strategy: Strategy, target: TargetSpec) -> float:
    """Orientation-resolved travel: iteration 0 goes right, then alternate."""
    if target.side not in (LEFT, RIGHT, 0, 1):
        raise ValueError(f"side must be 'left', 'right', 0 or 1, got {target.side!r}")
    d = target.distance
    if d > strategy.terminal * (1.0 + 1e-12):
        raise UnreachableTargetError(
            f"target at {d} is beyond the terminal distance {strategy.terminal}"
        )
    parity = 0 if target.side in (RIGHT, 0) else 1
    total = 0.0
    i = 0
    while True:
        reach = strategy.f(i)
        if i % 2 == parity and reach >= d:
            return total + d
        total += 2.0 * reach
        i += 1


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


def worst_case_ratio(
    strategy: Strategy, lam: float | None = None, Lam: float | None = None
) -> RatioReport:
    """Exact supremum of cost/D over D in [lam, Lam].

    On half-open intervals between breakpoints the ratio decreases in D, so
    each supremum sits at the interval's lower end: attained at D = lam for
    the first interval, and as a limit D -> b+ at each later breakpoint b.
    These closed forms make the verifier exact.
    """
    lam, Lam = _checked_bounds(strategy, lam, Lam)
    turns = strategy.turns
    prefix = []  # prefix[i] = 2 * sum of f(0..i)
    acc = 0.0
    for t in turns:
        acc += 2.0 * t
        prefix.append(acc)
    prefix.append(acc + 2.0 * strategy.terminal)  # through the terminal pass

    def ratio_from(d: float, j: int) -> float:
        return prefix[j] / d + 1.0

    entries: list[tuple[tuple[float, float], float]] = []
    # Breakpoints strictly inside [lam, Lam), preceded by the closed point lam.
    inner = sorted({t for t in turns if lam <= t < Lam})
    uppers = inner[1:] + [Lam]
    j = _first_reaching(strategy, lam)
    first_hi = inner[0] if inner and inner[0] > lam else (uppers[0] if inner else Lam)
    entries.append(((lam, first_hi), ratio_from(lam, j)))
    k = 0
    for b, hi in zip(inner, uppers):
        # First index with f(j) > b serves every D just above b.
        while k < len(turns) and turns[k] <= b:
            k += 1
        entries.append(((b, hi), ratio_from(b, k)))
    best = max(range(len(entries)), key=lambda i: entries[i][1])
    return RatioReport(
        sup_ratio=entries[best][1],
        argmax_interval=best,
        per_interval=tuple(entries),
    )


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
        if self._scaled:
            d = self.lo * math.exp(k * self.step)
        else:
            d = math.exp(self._log_lo + k * self.step)
        return d if d < self.hi else self.hi

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
    grid = GeometricGrid(lam, Lam, points)
    reach = [*strategy.turns, strategy.terminal]
    last = len(reach) - 1
    best = below = -math.inf
    for j, (r, pref) in enumerate(zip(reach, accumulate(reach))):
        k, d = grid.first_above(below)
        if k == points:
            break
        if d <= r or j == last:
            ratio = 2.0 * pref / d + 1.0
            if ratio > best:
                best = ratio
        if r > below:
            below = r
    return best


_BASELINES = ("power_of_two", "f_infinity", "los_sqrt", "single_shot")


def baselines(name: str, lam: float, Lam: float) -> Strategy:
    """Named reference strategies, truncated at the first index reaching Lam.

    power_of_two: 2^i lam.  f_infinity: (2i+4) 2^i lam.  los_sqrt:
    sqrt(1 + i/2) 2^i lam.  single_shot: straight to Lam both ways.  Each
    turn is a factor of at least 1 times the power 2^i lam, and the power is
    doubled only while twice it stays below Lam, so it never leaves double
    range.  A turn past double range is inf, which ends the strategy like
    any turn at or above Lam.
    """
    if not 0.0 < lam <= Lam:
        raise ValueError(f"need 0 < lambda <= Lambda, got {lam}, {Lam}")
    if name == "power_of_two":
        factor = lambda i: 1.0
    elif name == "f_infinity":
        factor = lambda i: 2.0 * i + 4.0
    elif name == "los_sqrt":
        factor = lambda i: math.sqrt(1.0 + 0.5 * i)
    elif name == "single_shot":
        return Strategy(turns=(), terminal=Lam, lambda_=lam)
    else:
        raise ValueError(f"unknown baseline {name!r}; expected one of {_BASELINES}")
    turns = []
    i, power = 0, lam  # power = 2^i lam, below Lam whenever v is
    while (v := factor(i) * power) < Lam:
        turns.append(v)
        if power >= Lam - power:  # 2 power >= Lam, without forming 2 power
            break
        i, power = i + 1, 2.0 * power
    return Strategy(turns=tuple(turns), terminal=Lam, lambda_=lam)
