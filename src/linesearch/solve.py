"""Solvers for a0, the first turn ratio: the root of p_n(x) = rho.

Three routes, matching how hard the equation is:

* ``solve_exact``   -- n <= 3, closed forms by radicals (square and cube
  roots only; the quartic goes through its resolvent cubic in real
  trigonometric form).
* ``solve_numeric`` -- safeguarded Newton in theta, where a0 = 4 cos^2 theta,
  on [pi/(n+4), pi/(n+3)] (the a0 bracket [alpha_{n+1}, alpha_{n+2}]).
  log2 p_n has an O(1) closed form in theta there and decreases.  Newton
  starts where the edge values interpolate linearly in
  log(pi - (n+2) theta), as log2 p_n runs across the bracket, so a solve
  costs the two edges and three to five O(1) Newton evaluations whatever
  n is.  Theta, not a0, is the solved quantity: a double theta resolves
  the root about n^2 times finer than a double a0, which is what the
  turns expanded from it need.
* ``solve_limit``   -- theta = pi/(n+4), a0 = alpha_{n+2}, valid once
  n >= 7 eps^{-1/3} - 4; the induced competitive-ratio error is at most
  7^3 (n+4)^-3.

Which n a rho calls for is decided once, by :func:`optimal_n`: the n whose
bracket p_n(alpha_{n+1}) <= rho < p_n(alpha_{n+2}) holds it.
:func:`solve_numeric` refuses any other n with :class:`BracketError`.

:func:`log2_residual` prices a root against its rho as |log2 p_n(a0) -
log2 rho|, a relative residual that stays readable at any scale, past double
range included.
"""

from __future__ import annotations

import math
from functools import partial

from ._base import Emitter, Record, set_field
from .polynomials import (
    alpha,
    dlog2_p_dt,
    eval_p,
    eval_p_and_derivative,
    log2_p_at_alpha_next,
    log2_p_cosh_excess,
    log2_p_theta_excess,
    log2_p_theta_excess_and_slope,
    theta_of_x,
    x_of_theta,
)

logger = Emitter("linesearch.solve")

MODE_EXACT = "exact"
MODE_NUMERIC = "numeric"
MODE_LIMIT = "limit_approx"


class SolveResult(Record):
    """Root report: a0 with how it was obtained and how tightly it is bracketed.

    ``theta`` has a0 = 4 cos^2(theta), NaN when a0 > 4.  The residual is not
    held here: :func:`log2_residual` prices a0 against the caller's rho.
    """

    __slots__ = ("a0", "mode", "bracket_width", "theta")

    def __init__(self, a0: float, mode: str, bracket_width: float, theta: float) -> None:
        set_field(self, "a0", a0)
        set_field(self, "mode", mode)
        set_field(self, "bracket_width", bracket_width)
        set_field(self, "theta", theta)


class BracketError(ValueError):
    """rho is outside [p_n(alpha_{n+1}), p_n(alpha_{n+2})): :func:`optimal_n` names another n."""


def optimal_n(rho: float | None = None, log2_rho: float | None = None) -> int:
    """The unique iteration count n whose bracket contains rho.

    n satisfies p_n(alpha_{n+1}) <= rho < p_n(alpha_{n+2}) and always lies
    in {floor(log2 rho) - 1, floor(log2 rho)}: it is the candidate
    n = floor(log2 rho) unless that bracket's lower edge gamma^(n+1),
    gamma = 2 cos(pi/(n+3)), lies above rho.  An edge within a relative
    1e-12 of log2 rho counts as reached, so near-ties go to the larger n, as
    the half-open bracket does.
    """
    if (rho is None) == (log2_rho is None):
        raise ValueError("provide exactly one of rho or log2_rho")
    if log2_rho is None:
        if not 1.0 <= rho < math.inf:
            raise ValueError(f"rho must be finite and at least 1, got {rho}")
        log2_rho = math.log2(rho)
    elif not 0.0 <= log2_rho < math.inf:
        raise ValueError(f"log2_rho must be finite and non-negative, got {log2_rho}")

    n = math.floor(log2_rho)
    fuzz = 1e-12 * max(1.0, log2_rho)
    return n if log2_p_at_alpha_next(n) - log2_rho <= fuzz else n - 1


def _theta_or_nan(a0: float) -> float:
    return theta_of_x(a0) if 0.0 <= a0 <= 4.0 else math.nan


def _log2_excess(n: int, rho: float) -> float:
    """log2(rho / 2^{n+1}), exact up to the rounding of log2 of the mantissa."""
    m, e = math.frexp(rho)
    return (e - n - 1) + math.log2(m)


def log2_residual(n: int, a0: float, rho: float, log2_rho: float) -> float:
    """|log2 p_n(a0) - log2 rho|: how far a0 is from solving p_n(a0) = rho.

    Both sides are taken relative to 2^{n+1}, so the difference keeps its
    precision whatever n is.  rho's side comes from its exponent and
    mantissa, and from log2_rho only where rho overflows to inf.  p_n's
    comes from the theta form wherever alpha_n < a0 < 4, and from the
    exponent-tracked :func:`eval_p` elsewhere.
    """
    target = _log2_excess(n, rho) if rho < math.inf else log2_rho - (n + 1)
    try:
        excess = log2_p_theta_excess(n, theta_of_x(a0))
    except ValueError:  # a0 >= 4, or rounded onto or below alpha_n
        p = eval_p(n, a0)
        excess = (p.exp2 - n - 1) + math.log2(p.mantissa)
    return abs(excess - target)


def _theta_objective(n: int, target: float, theta: float) -> tuple[float, float]:
    """(target - log2(p_n / 2^{n+1}), slope) at theta: increasing in theta."""
    excess, slope = log2_p_theta_excess_and_slope(n, theta)
    return target - excess, -slope


_MAX_STEPS = 200


def _newton_root(f, lo: float, hi: float, x: float) -> tuple[float, float]:
    """Bracket the root of the increasing f on (lo, hi) to adjacent doubles.

    f(x) returns (value, slope) and is never evaluated at lo or hi.  Each
    step is Newton's from the last point, or a bisection when Newton would
    leave the bracket.  Once a Newton step no longer moves x, the neighbour
    double on the root's side is probed, which closes the bracket.  Returns
    the final bracket: f <= 0 at its low end and f >= 0 at its high end.
    """
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(_MAX_STEPS):
        v, d = f(x)
        if v == 0.0:
            return x, x
        if v < 0.0:
            lo = x
        else:
            hi = x
        nx = x - v / d if d > 0.0 else math.nan
        if nx == x:
            nx = math.nextafter(x, hi if v < 0.0 else lo)
        elif not lo < nx < hi:  # also catches a NaN step
            nx = 0.5 * (lo + hi)
        if not lo < nx < hi:
            break  # lo and hi are adjacent doubles
        x = nx
    return lo, hi


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def real_roots_cubic(b: float, c: float, d: float) -> list[float]:
    """Real roots of the monic cubic z^3 + b z^2 + c z + d, ascending.

    Three-real-root cases use the trigonometric form so no complex
    arithmetic is ever needed.
    """
    # Depress: z = t - b/3  ->  t^3 + p t + q
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    if p == 0.0 and q == 0.0:
        return [shift]
    disc = -4.0 * p**3 - 27.0 * q * q
    if disc >= 0.0 and p < 0.0:
        # Three real roots (possibly repeated).
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg)
        roots = [m * math.cos((theta - 2.0 * math.pi * k) / 3.0) + shift for k in range(3)]
        return sorted(roots)
    # One real root: Cardano with real cube roots.
    half_q = q / 2.0
    rad = math.sqrt(half_q * half_q + p**3 / 27.0)
    t = _cbrt(-half_q + rad) + _cbrt(-half_q - rad)
    return [t + shift]


def _largest_root_quartic_n3(rho: float) -> float:
    """Largest real root of x^4 - 3x^3 + x^2 - rho = 0 by radicals."""
    # Depress with x = y + 3/4.
    p = -19.0 / 8.0
    q = -15.0 / 8.0
    r = -rho - 99.0 / 256.0
    # Resolvent cubic z^3 + 2p z^2 + (p^2 - 4r) z - q^2; any positive root
    # splits the quartic into two real quadratics.  Use the largest for a
    # well conditioned q/s division.
    zs = [z for z in real_roots_cubic(2.0 * p, p * p - 4.0 * r, -q * q) if z > 0.0]
    if not zs:
        raise ArithmeticError("resolvent cubic has no positive root")
    s = math.sqrt(max(zs))
    u = 0.5 * (p + s * s - q / s)
    v = 0.5 * (p + s * s + q / s)
    best = -math.inf
    for sgn, const in ((1.0, u), (-1.0, v)):
        # Quadratic y^2 + sgn*s*y + const
        disc = s * s - 4.0 * const
        if disc < 0.0:
            continue
        root = math.sqrt(disc)
        for pm in (root, -root):
            y = 0.5 * (-sgn * s + pm)
            best = max(best, y + 0.75)
    if not math.isfinite(best):
        raise ArithmeticError("quartic produced no real root")
    return best


def _polish(n: int, x: float, rho: float, lo: float, hi: float, steps: int = 2) -> float:
    """A couple of guarded Newton corrections to scrub radical round-off."""
    for _ in range(steps):
        p, dp = eval_p_and_derivative(n, x)
        if p == rho or dp == 0.0:
            return x
        x_new = x - (p - rho) / dp
        if not (lo <= x_new <= hi) or not math.isfinite(x_new):
            return x
        x = x_new
    return x


def solve_exact(n: int, rho: float) -> SolveResult:
    """Closed-form largest real root of p_n(x) = rho for n <= 3.

    Accepts any rho in [1, 2^24), not only the rho range where this n is
    optimal (below 19), so that boundary ties between consecutive n can be
    checked directly.  Within that range a0 is within an ulp of the root;
    from about 2^27 the n = 3 radicals lose digits that two Newton steps do
    not recover, so larger rho is refused.
    """
    if not 0 <= n <= 3:
        raise ValueError(f"solve_exact handles n in 0..3 only, got {n}")
    if not 1.0 <= rho < 2.0**24:
        raise ValueError(f"solve_exact needs rho in [1, 2^24), got {rho}")
    if n == 0:
        a0 = rho
    elif n == 1:
        a0 = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * rho))
    elif n == 2:
        # Largest root of a0^3 - 2 a0^2 = rho.
        c = _cbrt(8.0 + 13.5 * rho + 1.5 * math.sqrt(3.0) * math.sqrt(rho * (32.0 + 27.0 * rho)))
        a0 = (2.0 + 4.0 / c + c) / 3.0
    else:
        a0 = _largest_root_quartic_n3(rho)
    if n >= 2:
        a0 = _polish(n, a0, rho, alpha(n) * (1.0 + 1e-12), 8.0 + rho)
    return SolveResult(a0=a0, mode=MODE_EXACT, bracket_width=0.0, theta=_theta_or_nan(a0))


def solve_numeric(n: int, rho: float | None = None, log2_rho: float | None = None) -> SolveResult:
    """Solve p_n(a0) = rho on [alpha_{n+1}, alpha_{n+2}] to the ulp floor of theta.

    rho may be given directly or as log2_rho for magnitudes beyond float
    range.  n must be the one :func:`optimal_n` picks for log2 rho (taken
    as given, or as math.log2(rho)); any other n raises
    :class:`BracketError`.  The solve runs in theta (a0 = 4 cos^2 theta) to
    adjacent doubles, which the strategy's terminal interval needs at large
    n: from its log-linear start Newton gets there in three to five
    evaluations of value and slope (four on average over log2 rho in
    [5, 2000]).
    """
    held = optimal_n(rho, log2_rho)  # also refuses a missing, small or non-finite rho
    if log2_rho is None:
        l2rho = math.log2(rho)
        target = _log2_excess(n, rho)
    else:
        l2rho = log2_rho
        target = log2_rho - (n + 1)
    if held != n:
        raise BracketError(f"rho (log2 {l2rho:.6g}) is in the bracket of n = {held}, not n = {n}")
    # theta_lo gives a0 = alpha_{n+2}, theta_hi gives a0 = alpha_{n+1}; f
    # increases in theta and is <= 0 at theta_lo, >= 0 at theta_hi unless rho
    # sits on an edge (the lower one within optimal_n's fuzz, or either one by
    # rounding), where the edge itself is the answer.
    th_lo, th_hi = math.pi / (n + 4), math.pi / (n + 3)
    f_lo = target - log2_p_theta_excess(n, th_lo)
    f_hi = target - log2_p_theta_excess(n, th_hi)
    if f_hi <= 0.0:
        theta = lo = hi = th_hi
    elif f_lo >= 0.0:
        theta = lo = hi = th_lo
    else:
        # log2 p_n runs like log2 u, u = pi - (n+2) theta, across the bracket,
        # so Newton starts where f interpolates linearly in log u.
        u_lo, u_hi = 2.0 * math.pi / (n + 4), math.pi / (n + 3)
        u = u_lo * (u_hi / u_lo) ** (f_lo / (f_lo - f_hi))
        start = (math.pi - u) / (n + 2)
        lo, hi = _newton_root(partial(_theta_objective, n, target), th_lo, th_hi, start)
        # The low end has p_n(a0) >= rho, so the strategy's terminal interval
        # prices at or below 2 a0 + 1 and the printed ratio bounds the
        # strategy's supremum up to the rounding of the turns.
        theta = lo
    a0 = x_of_theta(theta)
    width = x_of_theta(lo) - x_of_theta(hi)
    logger.debug("solve_numeric n=%d log2rho=%.6f theta=%.17g a0=%.17g", n, l2rho, theta, a0)
    return SolveResult(a0=a0, mode=MODE_NUMERIC, bracket_width=width, theta=theta)


def solve_limit(n: int) -> SolveResult:
    """Approximation theta = pi/(n+4), a0 = alpha_{n+2}; apt once n >= 7 eps^{-1/3} - 4.

    The resulting strategy's competitive ratio is within 7^3 (n+4)^-3 of
    the optimum (see :func:`cr_error_bound_limit`).
    """
    theta = math.pi / (n + 4)
    a0 = x_of_theta(theta)
    return SolveResult(
        a0=a0, mode=MODE_LIMIT, bracket_width=alpha(n + 2) - alpha(n + 1), theta=theta
    )


def cr_error_bound_limit(n: int) -> float:
    """Competitive-ratio error bound 7^3 (n+4)^-3 of the limit approximation."""
    return 343.0 / float(n + 4) ** 3


def limit_mode_threshold(epsilon: float) -> float:
    """Smallest n (as a real) for which the limit approximation meets epsilon."""
    return 7.0 * epsilon ** (-1.0 / 3.0) - 4.0


def solve_beyond_alpha(n: int, rho: float) -> SolveResult:
    """Unique root of p_n(x) = rho with x > alpha_n, for any n >= 0.

    Unlike :func:`solve_numeric` this does not require (n, rho) to satisfy
    the optimality bracket; it is the workhorse for comparing competing
    iteration counts on equal footing.  Roots below 4 are solved in theta
    on (0, pi/(n+2)); roots above 4 in t, x = 4 cosh^2 t, on (0, t_max],
    where t_max solves (2 cosh t)^{n+1} = rho, a lower bound of p_n.  A
    double t resolves x only to a relative 2 t ulp(t) (6.9e-14 at n = 1,
    rho = 1e300), so roots above 4 are finished by Newton steps in x on the
    recurrence, at O(n) cost.  A root within ulps of alpha_n can round onto
    or below it; a0 is then moved up to the first double above it.
    """
    if not 1.0 <= rho < math.inf:
        raise ValueError(f"rho must be finite and at least 1, got {rho}")
    if n == 0:
        return SolveResult(a0=rho, mode=MODE_NUMERIC, bracket_width=0.0, theta=_theta_or_nan(rho))
    target = _log2_excess(n, rho)
    if target < math.log2(n + 2):  # below p_n(4) = (n+2) 2^{n+1}
        top = math.pi / (n + 2)
        lo, hi = _newton_root(partial(_theta_objective, n, target), 0.0, top, 0.5 * top)
        theta = lo
        a0, width = x_of_theta(theta), x_of_theta(lo) - x_of_theta(hi)
        while theta_of_x(a0) >= top:  # rounded onto or below alpha_n
            a0 = math.nextafter(a0, 4.0)
    else:
        t_max = math.acosh(2.0 ** (target / (n + 1)))
        lo, hi = _newton_root(
            lambda t: (log2_p_cosh_excess(n, t) - target, dlog2_p_dt(n, t)),
            0.0, math.nextafter(t_max, math.inf), 0.5 * t_max,
        )
        a0 = 4.0 + (2.0 * math.sinh(lo)) ** 2
        width = (2.0 * math.sinh(hi)) ** 2 - (2.0 * math.sinh(lo)) ** 2
        a0 = _polish(n, a0, rho, 4.0, math.inf)
        theta = math.nan
    return SolveResult(a0=a0, mode=MODE_NUMERIC, bracket_width=width, theta=theta)
