"""Lattice point counts in dilated norm balls and the normalized error term.

The ball is B = {(v, w) in R^(2q) x R : |v|^4 + w^2 <= 1} and the dilation
scales v by x and w by x^2.  Counting is exact: x^4 is rational and every
boundary test is an integer square root.  The window sampler is in empirical.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

from .arithmetic import ArithTables, BudgetError, build_r2q_prefix


def as_fraction(x) -> Fraction:
    """Exact rational from int, Fraction, decimal string, or float; ValueError on a zero denominator."""
    if isinstance(x, (Fraction, int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {x!r} as an exact dilation parameter")


def volume_unit_ball(q: int) -> float:
    """Closed-form volume: pi^q/Gamma(q+1) * B(1/2, q/2 + 1)."""
    slab = math.sqrt(math.pi) * math.gamma(q / 2 + 1) / math.gamma(q / 2 + 1.5)
    return math.pi**q / math.gamma(q + 1) * slab


def _x4_from_args(x=None, x2=None, x4=None) -> Fraction:
    """x^4 from exactly one of x, x^2 and x^4; ValueError if it is negative."""
    given = [(v, power) for v, power in ((x, 4), (x2, 2), (x4, 1)) if v is not None]
    if len(given) != 1:
        raise ValueError("specify exactly one of x, x2, x4")
    value = as_fraction(given[0][0])
    if value < 0:
        raise ValueError("the dilation parameter must be nonnegative")
    return value ** given[0][1]


def count_points(q: int, tables: ArithTables | None = None, x=None, x2=None, x4=None) -> int:
    """Exact number of lattice points in the dilated ball.

    The count is sum over |w| <= x^2 of #{z : |z|^2 <= floor(sqrt(x^4 - w^2))}
    using the cached shell prefix sums.  Pass x as an exact rational (or x2
    for irrational x with rational square).
    """
    x4f = _x4_from_args(x, x2, x4)
    p, den = x4f.numerator, x4f.denominator
    wmax = math.isqrt(p // den)  # also the largest |z|^2 counted, at w = 0
    if tables is None:
        tables = build_r2q_prefix(q, wmax)
    tables.check_covers(q, wmax)
    total = 0
    for w in range(-wmax, wmax + 1):
        rem = p - w * w * den  # den * (x^4 - w^2), nonnegative here
        total += int(tables.prefix[math.isqrt(rem // den)])
    return total


def count_points_bruteforce(q: int, x=None, x2=None, x4=None) -> int:
    """Independent oracle: direct enumeration over the integer box.

    Enumerates the 2q coordinates of z in two q-dimensional halves,
    histograms the squared lengths, and tests |z|^4 + w^2 <= x^4 with
    integer arithmetic.  Intended for small x only.
    """
    x4f = _x4_from_args(x, x2, x4)
    p, den = x4f.numerator, x4f.denominator
    # |z|^2 <= x^2, each coordinate bounded by x
    x_floor = math.isqrt(math.isqrt(p // den))
    s_cap = math.isqrt(p // den)
    half = [0] * (s_cap + 1)
    rng = range(-x_floor, x_floor + 1)
    for u in product(rng, repeat=q):
        s = sum(c * c for c in u)
        if s <= s_cap:
            half[s] += 1
    total = 0
    for s1, c1 in enumerate(half):
        if not c1:
            continue
        for s2, c2 in enumerate(half):
            if not c2:
                continue
            s = s1 + s2
            rem = p - s * s * den
            if rem < 0:
                continue
            wmax = math.isqrt(rem // den)
            total += c1 * c2 * (2 * wmax + 1)
    return total


def normalized_error(q: int, tables: ArithTables | None = None, x=None, x2=None, x4=None) -> float:
    """(count - vol(B) x^(2q+2)) / x^(2q-1) for a single dilation x > 0; ValueError at x = 0."""
    x4f = _x4_from_args(x, x2, x4)
    if x4f == 0:
        raise ValueError("the normalized error needs x > 0")
    n = count_points(q, tables, x4=x4f)
    xf = float(x4f) ** 0.25
    main = volume_unit_ball(q) * xf ** (2 * q + 2)
    return (n - main) / xf ** (2 * q - 1)


# u-values per block of count_points_fast, and the bound its float64 sums must stay under
_BLOCK = 2**16
_SUM_BOUND_CAP = 2.0**62


def count_points_fast(q: int, tables: ArithTables, x_num: int, x_den: int) -> int:
    """Exact count for x = x_num/x_den from one float64 root per u past the diagonal.

    With P0 = floor(x^4), W = isqrt(P0) and A = tables.prefix, the count is
    2 Q - A(W), where Q sums the weight r(s) = A(s) - A(s - 1) over the
    quadrant {(s, w) >= 0 : s^2 + w^2 <= P0}.  Split it at a = isqrt(P0 // 2):
    the square [0, a]^2, which 2 a^2 <= P0 puts inside, gives (a + 1) A(a);
    the strip w > a gives sum A(k_u) and the strip s > a gives
    sum r(u) (k_u + 1), both over a < u <= W with k_u = isqrt(P0 - u^2).
    The pieces are disjoint and cover, since w >= a + 1 gives
    w^2 > P0/2 > s^2, so s <= a, and likewise with s and w swapped.  Below
    2^52 each float root t of P0 - u^2 is certified by t^2 <= s < (t+1)^2,
    exactly in float64; r(u) is np.diff of the slice A[a:W+1].

    The strip sums can pass int64.  They are taken exactly mod 2^64 in uint64
    and once more in float64, off by at most (2n + 2) 2^-53 times that sum
    for its 2n summands, n = W - a.  While that bound stays below 2^62 the
    two fix the exact integer.  BudgetError when P0 >= 2^52, the tables stop
    short of W (ArithTables.check_covers), a certificate fails or the bound
    does not hold; count_points runs on Python integers.
    """
    p0 = x_num**4 // x_den**4
    if p0 >= 2**52:
        raise BudgetError("x^4 too large for the float64 counting path")
    wmax = math.isqrt(p0)
    tables.check_covers(q, wmax)
    a = math.isqrt(p0 // 2)
    prefix = tables.prefix
    wrapped, approx = 0, 0.0
    for start in range(a + 1, wmax + 1, _BLOCK):
        stop = min(start + _BLOCK, wmax + 1)
        s = np.arange(start, stop, dtype=np.float64)
        np.multiply(s, s, out=s)
        np.subtract(p0, s, out=s)
        t = np.floor(np.sqrt(s))
        c = t * t
        np.subtract(s, c, out=c)
        c -= t  # t = isqrt(s) iff 0 <= s - t^2 <= 2t
        if not (np.abs(c, out=c) <= t).all():
            raise BudgetError("float64 square root failed its certificate")
        k = t.astype(np.int64)
        ak = prefix[k]
        r = np.diff(prefix[start - 1 : stop])
        k += 1
        t += 1
        wrapped += int(ak.view(np.uint64).sum()) + int(np.dot(r.view(np.uint64), k.view(np.uint64)))
        approx += float(ak.sum(dtype=np.float64)) + float(np.dot(r.astype(np.float64), t))
    if (2 * (wmax - a) + 2) * 2.0**-53 * approx >= _SUM_BOUND_CAP:
        raise BudgetError("float64 strip sum too inexact to fix the count")
    near = int(approx)
    strips = near + (wrapped - near + 2**63) % 2**64 - 2**63
    return 2 * ((a + 1) * int(prefix[a]) + strips) - int(prefix[wmax])
