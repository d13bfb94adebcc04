"""Lattice point counts in dilated norm balls and the normalized error term.

The ball is B = {(v, w) in R^(2q) x R : |v|^4 + w^2 <= 1} and the dilation
scales v by x and w by x^2.  Counting is exact: x^4 is carried as a rational
number and all boundary comparisons reduce to integer square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .arithmetic import ArithTables, BudgetError, build_r2q_prefix


@dataclass
class ErrorSample:
    """Normalized error samples at the dilations x = num / den."""

    q: int
    x: np.ndarray
    err: np.ndarray
    num: np.ndarray
    den: int


def as_fraction(x) -> Fraction:
    """Exact rational from int, Fraction, decimal string, or float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {x!r} as an exact dilation parameter")


def volume_unit_ball(q: int) -> float:
    """Closed-form volume: pi^q/Gamma(q+1) * B(1/2, q/2 + 1)."""
    slab = math.sqrt(math.pi) * math.gamma(q / 2 + 1) / math.gamma(q / 2 + 1.5)
    return math.pi**q / math.gamma(q + 1) * slab


def _x4_from_args(x=None, x2=None, x4=None) -> Fraction:
    given = [v is not None for v in (x, x2, x4)]
    if sum(given) != 1:
        raise ValueError("specify exactly one of x, x2, x4")
    if x is not None:
        return as_fraction(x) ** 4
    if x2 is not None:
        return as_fraction(x2) ** 2
    return as_fraction(x4)


def count_points(q: int, tables: ArithTables | None = None, x=None, x2=None, x4=None) -> int:
    """Exact number of lattice points in the dilated ball.

    The count is sum over |w| <= x^2 of #{z : |z|^2 <= floor(sqrt(x^4 - w^2))}
    using the cached shell prefix sums.  Pass x as an exact rational (or x2
    for irrational x with rational square).
    """
    x4f = _x4_from_args(x, x2, x4)
    if x4f < 0:
        raise ValueError("the dilation parameter must be nonnegative")
    p, den = x4f.numerator, x4f.denominator
    wmax = math.isqrt(p // den)
    x2max = math.isqrt(p // den)
    if tables is None:
        tables = build_r2q_prefix(q, x2max)
    if tables.q != q:
        raise ValueError("tables were built for a different q")
    if tables.limit < x2max:
        raise BudgetError(f"tables cover radius^2 {tables.limit} < required {x2max}")
    total = 0
    for w in range(-wmax, wmax + 1):
        rem = p - w * w * den  # den * (x^4 - w^2), nonnegative here
        smax = math.isqrt(rem // den)
        total += tables.count_radius2(smax)
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
    """(count - vol(B) x^(2q+2)) / x^(2q-1) for a single dilation."""
    x4f = _x4_from_args(x, x2, x4)
    n = count_points(q, tables, x4=x4f)
    xf = float(x4f) ** 0.25
    main = volume_unit_ball(q) * xf ** (2 * q + 2)
    return (n - main) / xf ** (2 * q - 1)


def count_points_fast(q: int, tables: ArithTables, x_num: int, x_den: int) -> int:
    """Exact count for x = x_num/x_den in one folded, blocked float64 pass.

    floor(sqrt(x^4 - w^2)) = isqrt(P0 - w^2) with P0 = floor(x^4).  Below
    2^52 each float root t of s = P0 - w^2 is certified by t^2 <= s < (t+1)^2,
    exactly in float64.  BudgetError when P0 >= 2^52, the tables stop short
    of isqrt(P0) or a certificate fails; count_points runs on Python integers.
    """
    p0 = x_num**4 // x_den**4
    if p0 >= 2**52:
        raise BudgetError("x^4 too large for the float64 counting path")
    wmax = math.isqrt(p0)
    if wmax > tables.limit:
        raise BudgetError("tables too small for the requested dilation")
    hi = lo = 0
    for start in range(0, wmax + 1, 2**16):  # w >= 0; w and -w fold below
        s = np.arange(start, min(start + 2**16, wmax + 1), dtype=np.float64)
        np.subtract(p0, s * s, out=s)
        t = np.floor(np.sqrt(s))
        r = s - t * t - t  # t = isqrt(s) iff 0 <= s - t^2 <= 2t
        if not (np.abs(r, out=r) <= t).all():
            raise BudgetError("float64 square root failed its certificate")
        vals = tables.prefix[t.astype(np.int64)]
        hi += int((vals >> 32).sum())
        lo += int((vals & 0xFFFFFFFF).sum())
    return 2 * (hi * 2**32 + lo) - int(tables.prefix[wmax])


def _is_prime(n: int) -> bool:
    """Trial division; the sampler asks only about denominators below 4e4."""
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def sample_normalized_errors(
    q: int, tables: ArithTables, x_lo: int, x_hi: int, n_samples: int
) -> ErrorSample:
    """Normalized error on an equispaced rational grid over [x_lo, x_hi].

    Samples that count_points_fast declines with BudgetError go to count_points.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    span = x_hi - x_lo
    if span < 1:
        raise ValueError("need x_hi > x_lo")
    # sample on a lattice of spacing 1/den, with den the largest prime such
    # that 2 (x_hi den)^4 < 2^62 (a prime spacing avoids resonating with
    # small-denominator frequencies of the almost periodic error).  The rule
    # defines the grid and is kept so that samples stay reproducible; the
    # counting kernel itself needs only floor(x^4) < 2^52.
    den_need = -(-(n_samples - 1) // span)
    den_max = 1
    while (x_hi * (den_max + 1)) ** 4 * 2 < 2**62:
        den_max += 1
    den = next((d for d in range(den_max, 1, -1) if _is_prime(d)), den_max)
    if den < den_need:
        raise BudgetError("more samples than points on the 1/den grid")
    vol = volume_unit_ball(q)
    nums = np.empty(n_samples, dtype=np.int64)
    xs = np.empty(n_samples)
    errs = np.empty(n_samples)
    slots = span * den
    for i in range(n_samples):
        j = round(i * slots / (n_samples - 1))
        num = nums[i] = x_lo * den + j
        g = math.gcd(num, den)
        try:
            cnt = count_points_fast(q, tables, num // g, den // g)
        except BudgetError:
            cnt = count_points(q, tables, x=Fraction(num, den))
        xf = num / den
        xs[i] = xf
        errs[i] = (cnt - vol * xf ** (2 * q + 2)) / xf ** (2 * q - 1)
    return ErrorSample(q=q, x=xs, err=errs, num=nums, den=den)
