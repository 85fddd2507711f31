"""Polynomial family driving the bounded line search optimum.

The family is defined by the three-term recurrence

    p_0(x) = x,   p_1(x) = x(x - 1),   p_i(x) = x(p_{i-1}(x) - p_{i-2}(x)),

so p_n has degree n + 1.  Its largest real root is alpha_n = 4 cos^2(pi/(n+2)),
and on the solving bracket [alpha_{n+1}, alpha_{n+2}) every p_n is positive and
strictly increasing.  Values grow like 2^n near x = 4, so :func:`eval_p` holds
its two recurrence terms in units of one power of two and returns the value
with a base-2 exponent (:class:`PolyEval`); that keeps p_n finite for n well
past 10**6 and for every finite x.

With x = 4 cos^2(theta) the recurrence has the closed form (Chebyshev U)

    p_n(x) = (2 cos theta)^{n+1} sin((n+2) theta) / sin theta,

and with x = 4 cosh^2(t) above 4 the same form in cosh and sinh.  Each form
has one O(1) kernel, :func:`log2_p_theta_excess_and_slope` and
:func:`log2_p_cosh_excess_and_slope`, which gives log2 p_n relative to
2^{n+1}, and its slope, so the value keeps full relative precision where
log2 p_n itself (of size n) would round to ulp(n).  The solving bracket is
theta in [pi/(n+4), pi/(n+3)], where log2 p_n decreases in theta.  They are
the one O(1) route to p_n; :func:`eval_p` is the O(n) one for any x.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, repeat
from operator import itemgetter, mul

from ._base import Record, set_field

# Degree index of the family; must be a non-negative int.
PolyIndex = int


class PolyEval(Record):
    """A real number stored as ``mantissa * 2**exp2``.

    The mantissa is normalized to [1, 2) or (-2, -1], with mantissa == 0
    (and exp2 == 0) representing zero exactly.
    """

    __slots__ = ("mantissa", "exp2")

    def __init__(self, mantissa: float, exp2: int) -> None:
        set_field(self, "mantissa", mantissa)
        set_field(self, "exp2", exp2)

    @staticmethod
    def from_float(value: float) -> "PolyEval":
        if value == 0.0:
            return PolyEval(0.0, 0)
        m, e = math.frexp(value)  # value = m * 2**e, 0.5 <= |m| < 1
        return PolyEval(2.0 * m, e - 1)

    def to_float(self) -> float:
        """Collapse to a plain float; overflows to +-inf, underflows to 0."""
        if self.mantissa == 0.0:
            return 0.0
        if self.exp2 >= 1024:  # |value| >= 2^1024 exceeds doubles
            return math.inf if self.mantissa > 0 else -math.inf
        return math.ldexp(self.mantissa, self.exp2)  # underflow is silent


def check_index(n: int) -> None:
    """Refuse an n that is not a non-negative int (a bool included) with ValueError."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"polynomial index must be a non-negative integer, got {n!r}")


def eval_p(n: PolyIndex, x: float) -> PolyEval:
    """Evaluate p_n(x) by the recurrence from p_{-1} = 1 and p_0 = x.

    Total on finite input, subnormal x included.  Both terms are held in
    units of one 2^e, and after each step an exact power of two rescales
    them so that the larger lies just below 2^top, top = 511 - max(k, 0)
    for |x| < 2^k.  So x (p_{i-1} - p_{i-2}) stays below 2^512.  Below
    |x| = 1 the smaller term stays normal (consecutive terms differ by a
    factor of about x at most); above it, it underflows only below 2^-508
    of the larger, too small to round their difference.  Where the plain
    recurrence stays normal every rescaling is exact, so the bits are its
    bits.  Inside the solving bracket the recurrence terms are all positive
    and increasing, so no catastrophic cancellation occurs where accuracy
    matters.  Near a root of p_n the terms cancel, and the forward error is
    about n^2 ulp(1) 2^(n+1): one ulp above alpha_300 this gives +9.65e78
    where p_300 is -3.96e78, so not even the sign holds there.  n = 10^6
    takes 0.3 s (CPython 3.11 on an Intel Xeon core).
    """
    check_index(n)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    frexp, ldexp = math.frexp, math.ldexp
    ex = frexp(x)[1]
    top = 511 - max(ex, 0)
    e = max(ex, 1) - top  # puts the larger of |x| and 1 just below 2^top
    p1, p2 = ldexp(x, -e), ldexp(1.0, -e)  # p_0 and p_{-1}, in units of 2^e
    for _ in range(n):
        p1, p2 = x * (p1 - p2), p1
        k = frexp(p1 if abs(p1) >= abs(p2) else p2)[1] - top
        p1, p2, e = ldexp(p1, -k), ldexp(p2, -k), e + k
    p = PolyEval.from_float(p1)
    return PolyEval(p.mantissa, p.exp2 + e) if p1 else p


def eval_p_and_derivative(n: PolyIndex, x: float, scale: float = 1.0) -> tuple[float, float]:
    """scale p_n(x) and scale p_n'(x) as plain floats: ``solve``'s objective in x.

    Every root ``solve`` does not solve in theta is finished by Newton on
    this value and slope.  The value is :func:`eval_p`'s loop without the
    frame, seeded with p_{-1} = scale, and the derivative follows
    p_i' = (p_{i-1} - p_{i-2}) + x (p_{i-1}' - p_{i-2}').  Both are linear in
    the seeds, so where every term stays normal a power-of-two scale gives
    the unscaled bits times scale, and the unscaled value is bit-identical
    to :func:`eval_p`'s.  Past that range the terms overflow or underflow.
    """
    check_index(n)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if n == 0:
        return x * scale, scale
    p2, d2 = x * scale, scale
    p1, d1 = x * (x - 1.0) * scale, (2.0 * x - 1.0) * scale
    for _ in range(2, n + 1):
        diff = p1 - p2
        p2, d2, p1, d1 = p1, d1, x * diff, diff + x * (d1 - d2)
    return p1, d1


def alpha(n: PolyIndex) -> float:
    """Largest real root of p_n: 4 cos^2(pi/(n+2)).

    Strictly increasing in n and bounded above by 4.
    """
    check_index(n)
    if n == 0:  # cos(pi/2) would leave 1e-32 noise
        return 0.0
    c = math.cos(math.pi / (n + 2))
    return 4.0 * c * c


def log2_p_at_alpha_next(n: PolyIndex) -> float:
    """log2 of p_n(alpha_{n+1}) via the closed form alpha_{n+1}^{(n+1)/2}."""
    check_index(n)
    return 0.5 * (n + 1) * math.log2(alpha(n + 1))


def log2_p_at_alpha_next2(n: PolyIndex) -> float:
    """log2 of p_n(alpha_{n+2}) = alpha_{n+2}^{(n+2)/2}: bracket n + 1's lower edge."""
    check_index(n)
    return log2_p_at_alpha_next(n + 1)


_LN2 = math.log(2.0)
_PI_LO = 1.2246467991473532e-16  # pi - math.pi
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def x_of_theta(theta: float) -> float:
    """4 cos^2(theta), computed as 4 - (2 sin theta)^2 to keep it exact near 4."""
    s2 = 2.0 * math.sin(theta)
    return 4.0 - s2 * s2


def theta_of_x(x: float) -> float:
    """The theta in [0, pi/2] with 4 cos^2(theta) = x, for 0 <= x <= 4."""
    if not 0.0 <= x <= 4.0:
        raise ValueError(f"x must lie in [0, 4], got {x!r}")
    return math.asin(0.5 * math.sqrt(4.0 - x))  # 4 - x is exact for x >= 2


def _split(theta: float) -> tuple[float, float]:
    """theta = hi + lo with hi on 26 bits, so k * hi is exact for k < 2^26."""
    c = _SPLIT * theta
    hi = c - (c - theta)
    return hi, theta - hi


def _sin_multiple(k: int, theta: float) -> float:
    """sin(k theta), to full relative precision for 0 < k theta < pi.

    Past pi/2 the sine is taken of pi - k theta, formed in double-double so
    that its small value near pi is not lost to the rounding of k theta
    (exactly so up to k theta = 2 pi, for k < 2^26).
    """
    u = k * theta
    if u <= 0.5 * math.pi:
        return math.sin(u)
    hi, lo = _split(theta)
    return math.sin((math.pi - k * hi) - k * lo + _PI_LO)


def _ln_cos(s: float, theta: float) -> float:
    """ln cos theta, given s = sin theta, for 0 <= theta < pi/2.

    Up to s^2 = 1/2 it is log1p(-s^2)/2, as cos theta rounds near 1; past
    that log1p(-s^2) would cancel, and fail where s^2 rounds to 1, while
    cos theta keeps its relative precision.
    """
    ss = s * s
    return 0.5 * math.log1p(-ss) if ss <= 0.5 else math.log(math.cos(theta))


def _check_theta(n: int, theta: float) -> None:
    check_index(n)
    if not 0.0 < theta < math.pi / (n + 2):
        raise ValueError(f"theta must lie in (0, pi/{n + 2}), got {theta!r}")


def log2_p_theta_excess_and_slope(n: PolyIndex, theta: float) -> tuple[float, float]:
    """log2(p_n(4 cos^2 theta) / 2^{n+1}) for 0 < theta < pi/(n+2), and its d/dtheta.

    The value is of size O(log n), with an absolute error of a few ulps of
    that size; the slope, negative on (0, pi/(n+2)), is

    ( -(n+1) tan theta + (n+2) cot((n+2) theta) - cot theta ) / ln 2.
    """
    _check_theta(n, theta)
    s = math.sin(theta)
    k = n + 2
    sin_k = _sin_multiple(k, theta)
    tan = math.tan(theta)
    value = (n + 1) * (_ln_cos(s, theta) / _LN2) + math.log2(sin_k / s)
    slope = (k * (math.cos(k * theta) / sin_k) - (n + 1) * tan - 1.0 / tan) / _LN2
    return value, slope


# Terms per rotation run in p_theta_terms.  Each run restarts from the closed
# form; a longer run costs fewer restarts but carries more rounding error.
_BLOCK = 64
# Period over which the forward multiplier's real part is dithered.
_DITHER = 16


def p_theta_terms(n: PolyIndex, theta: float, scale: float = 1.0) -> list[float]:
    """scale * p_i(4 cos^2 theta) for i = 0 .. n-1, by blockwise complex rotation.

    Needs 0 < theta < pi/(n+1), so that every term is positive.  With
    c = cos theta, term k - 1 (k = 1 .. n) is scale (2c)^k sin((k+1) theta)
    / sin theta, the imaginary part of scale (2c)^k e^{i (k+1) theta} /
    sin theta.  The terms come in runs of _BLOCK.  Each run starts from one
    term's complex value in closed form (its power c^k as exp(k ln c), so the
    rounding of c is not raised to the power k) and reaches the others by
    one complex multiply each: by w = 2c e^{i theta} (see _forward_steps)
    while the phase (k+1) theta is at most pi/2, and past it backwards from
    the run's top term by 1/w, with that phase reduced in double-double as
    in _sin_multiple.  Either way the sine grows along the run, so no term
    inherits the absolute error of a larger one.  A term is off by at most
    about 11 ulps, however large n is (measured against 45-digit arithmetic
    for n up to 2040, at both bracket edges and between them).

    The runs are accumulate iterators, all built first (the forward ones
    bottom-up, the backward ones from the top run down) and read in one pass
    over their chain; one slice assignment turns the backward half around.
    A turn costs its multiply and its read: about 115 ns at n = 999, against
    135 ns when read run by run (CPython 3.11, Intel Xeon).

    Within a run the power of two is one exact factor.  It is folded into
    the run's seed where the whole run then stays normal (see _FOLD_MIN);
    elsewhere ldexp applies it to the run's slice of the output after the
    pass: the same bits, as scaling by a power of two is exact in the
    normal range.  So a power-of-two scale changes no bit of a normal term,
    and a term past double range raises OverflowError.
    """
    check_index(n)
    if n == 0:
        return []
    if not 0.0 < theta < math.pi / (n + 1):
        raise ValueError(f"theta must lie in (0, pi/{n + 1}), got {theta!r}")
    s = math.sin(theta)
    ln_cos = _ln_cos(s, theta)
    m, e = math.frexp(scale)  # keeps tiny or huge scales off the subnormal range
    m /= s
    exp, sin, cos = math.exp, math.sin, math.cos
    k_mid = min(n + 1, int(0.5 * math.pi / theta))  # first k with (k+1) theta > pi/2
    runs, unfolded = [], []  # unfolded: (first index, end, power of two) for ldexp
    steps = _forward_steps(s, theta, k_mid - 2)  # as many as the forward runs take
    for k in range(1, k_mid, _BLOCK):
        count = min(_BLOCK, k_mid - k)
        u = (k + 1) * theta
        r, exp2 = _seed_radius(m * exp(k * ln_cos), k + e, count)  # |z| grows by at most 2 a step
        seed = complex(r * cos(u), r * sin(u))
        runs.append(accumulate(steps if count == _BLOCK else steps[: count - 1], mul, initial=seed))
        if exp2:
            unfolded.append((k - 1, k - 1 + count, exp2))
    w_down = complex(0.5, -0.5 * math.tan(theta))  # 1/w, with an exact real part
    hi, lo, pi = *_split(theta), math.pi
    for k in reversed(range(k_mid, n + 1, _BLOCK)):  # top run first: terms n down to k_mid
        top = min(k + _BLOCK - 1, n)
        d = (pi - (top + 1) * hi) - (top + 1) * lo + _PI_LO  # pi - (top+1) theta
        r, exp2 = _seed_radius(m * exp(top * ln_cos), top + e, 0)  # |z| shrinks backwards
        seed = complex(-r * cos(d), r * sin(d))
        runs.append(accumulate(repeat(w_down, top - k), mul, initial=seed))
        if exp2:
            unfolded.append((k - 1, top, exp2))
    out = [z.imag for z in chain.from_iterable(runs)]
    out[k_mid - 1 :] = out[: k_mid - n - 2 : -1]  # the last n + 1 - k_mid came top-down
    for i, j, exp2 in unfolded:
        out[i:j] = [math.ldexp(v, exp2) for v in out[i:j]]
    return out


def _forward_steps(s: float, theta: float, count: int) -> tuple[complex, ...]:
    """count multipliers, at most _BLOCK - 1, whose running products follow (2c e^{i theta})^j.

    The real part 2c^2 = 2 - 2 s^2 of w rounds with a relative error of up to
    2^-54, which one repeated multiplier would build up to 2^-54 j after j
    steps, and which would jump back at the next run.  Instead the real part
    takes the neighbouring double on the other side of 2c^2 in the share q
    / _DITHER of steps that cancels the rounding.  The steps of a period
    that take it come from _PERIODS[q], built at import, in one C call.
    """
    count = min(count, _BLOCK - 1)
    hi, lo = _split(s)
    ss = s * s
    ss_lo = ((hi * hi - ss) + 2.0 * hi * lo) + lo * lo  # s^2 = ss + ss_lo exactly
    a = 2.0 - 2.0 * ss
    a_lo = ((2.0 - a) - 2.0 * ss) - 2.0 * ss_lo  # 2 - 2 s^2 - a
    other = math.nextafter(a, math.copysign(4.0, a_lo))
    q = round(_DITHER * abs(a_lo) / abs(other - a))  # steps per period on the other side
    b = math.sin(2.0 * theta)
    period = _PERIODS[min(q, _DITHER)]((complex(a, b), complex(other, b)))  # (near, far)
    return (period * (_BLOCK // _DITHER))[:count]


# _PERIODS[q] picks one dither period from (near, far): far at q of its
# _DITHER steps, spread evenly (at all of them from q = _DITHER on).
_PERIODS = [itemgetter(*[q * (i + 1) // _DITHER - q * i // _DITHER for i in range(_DITHER)])
            for q in range(_DITHER + 1)]


# Lowest power of two that a run folds into its seed: 200 bits above the
# normal range, for parts and products of the run below its radius.  Those
# reach down to about 2^-55 (a cosine near pi/2) times sin theta times the
# ulp of a cancelling sum; over 4 000 draws of n up to 16 000, with theta
# near pi/(n+1) and phases next to pi/2, the least was 2^-118.
_FOLD_MIN = -822


def _seed_radius(v: float, exp2: int, span: int) -> tuple[float, int]:
    """v 2^exp2 as r 2^rest: the radius r of a run's seed and the power of two left over.

    Every |z| of the run stays below 2^span times its seed's.  Where the
    whole run stays normal the power of two is folded into r and rest is 0;
    elsewhere r is v's mantissa, in [0.5, 1), and rest is not 0.
    """
    r, er = math.frexp(v)
    exp2 += er
    if _FOLD_MIN <= exp2 and exp2 + span <= 1023:  # no product reaches 2^1024
        return math.ldexp(r, exp2), 0
    return r, exp2


def log2_p_cosh_excess_and_slope(n: PolyIndex, t: float) -> tuple[float, float]:
    """log2(p_n(4 cosh^2 t) / 2^{n+1}) for t > 0, and its d/dt, positive there.

    Above 4 the closed form is p_n(x) = (2 cosh t)^{n+1} sinh((n+2) t) / sinh t.
    """
    check_index(n)
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    value = ((n + 1) * _ln_cosh(t) + _ln_sinh((n + 2) * t) - _ln_sinh(t)) / _LN2
    slope = ((n + 1) * math.tanh(t) + (n + 2) / math.tanh((n + 2) * t) - 1.0 / math.tanh(t)) / _LN2
    return value, slope


def _ln_cosh(t: float) -> float:
    if t < 20.0:
        sh = math.sinh(t)
        return 0.5 * math.log1p(sh * sh)
    return t - _LN2 + math.log1p(math.exp(-2.0 * t))


def _ln_sinh(u: float) -> float:
    if u < 20.0:
        return math.log(math.sinh(u))
    return u - _LN2 + math.log1p(-math.exp(-2.0 * u))
