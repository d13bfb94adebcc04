"""Arithmetic kernels: two-squares representation counts and related tables.

Everything downstream (counting, oscillating sums, moments) is driven by
weighted counts of representations m = a^2 + b^2 with a congruence condition
on b, plus small multiplicative helpers (Moebius function, the nontrivial
character mod 4, Dirichlet series values).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

CACHE_MAGIC = b"HLPT1\n"


class BudgetError(RuntimeError):
    """A requested computation exceeds a size or overflow budget."""


def mobius(n: int) -> int:
    """Moebius function of a single positive integer."""
    if n < 1:
        raise ValueError("mobius is defined for positive integers")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


def chi4(n: int) -> int:
    """Nontrivial Dirichlet character mod 4."""
    r = n % 4
    if r == 1:
        return 1
    if r == 3:
        return -1
    return 0


def is_squarefree(n: int) -> bool:
    return mobius(n) != 0


def has_prime_factor_3_mod_4(n: int) -> bool:
    """True when some prime p | n satisfies p = 3 mod 4."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            if p % 4 == 3:
                return True
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    return n > 1 and n % 4 == 3


def _chi4_array(v: np.ndarray) -> np.ndarray:
    """chi4 elementwise, as floats."""
    r = np.mod(v, 4)
    return np.where(r == 1, 1.0, np.where(r == 3, -1.0, 0.0))


def two_square_reps(n: int) -> list[tuple[int, int]]:
    """Ordered pairs (a, b) with a, b >= 0 and a^2 + b^2 = n.

    Both (a, b) and (b, a) appear when a != b.  Sign multiplicity over Z^2
    is (2 if a else 1) * (2 if b else 1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    reps = []
    a = 0
    while a * a <= n:
        b2 = n - a * a
        b = math.isqrt(b2)
        if b * b == b2:
            reps.append((a, b))
        a += 1
    return reps


def r2(n: int) -> int:
    """Number of (a, b) in Z^2 with a^2 + b^2 = n."""
    total = 0
    for a, b in two_square_reps(n):
        total += (2 if a else 1) * (2 if b else 1)
    return total


def _rep_weight(a, m, q: int):
    """(a^2/m)^((q-1)/2), the weight of a representation m = a^2 + b^2.

    Works elementwise on arrays.  a^2/m is a correctly rounded float, which
    makes the scaling identity r2_weighted(m s^2, d s, q) ==
    r2_weighted(m, d, q) hold exactly.
    """
    return (a * a / m) ** ((q - 1) / 2)


def r2_weighted(m: int, d: int, q: int, reps: list[tuple[int, int]] | None = None) -> float:
    """Weighted two-squares count with modulus condition on b.

    Sum over (a, b) in Z^2 with a^2 + b^2 = m and b = 0 mod d of
    (|a| / sqrt(m))^(q-1), computed by _rep_weight.
    """
    if m < 1 or d < 1:
        raise ValueError("m and d must be positive")
    if reps is None:
        reps = two_square_reps(m)
    total = 0.0
    for a, b in reps:
        if b % d:
            continue
        mult = (2 if a else 1) * (2 if b else 1)
        total += mult * _rep_weight(a, m, q)
    return total


def r2_weighted_chi(m: int, d: int, q: int, reps: list[tuple[int, int]] | None = None) -> float:
    """Like r2_weighted with an extra character factor chi4(|a|)."""
    if m < 1 or d < 1:
        raise ValueError("m and d must be positive")
    if reps is None:
        reps = two_square_reps(m)
    total = 0.0
    for a, b in reps:
        if b % d:
            continue
        c = chi4(a)
        if c == 0:
            continue
        mult = (2 if a else 1) * (2 if b else 1)
        total += c * mult * _rep_weight(a, m, q)
    return total


def xi(d: int, q: int) -> int:
    """Sign/weight attached to the modulus d in the even-q oscillating sums."""
    if q % 2:
        raise ValueError("xi is defined for even q")
    s = -1 if (q // 2) % 2 else 1
    if d % 2:
        return 1
    val = -s
    if d % 4 == 0:
        val += s * 2**q
    return val


def eps_sign(d: int, q: int) -> int:
    """Frequency sign for modulus d in the moment constraint.

    +1 always for even q; for odd q it is +1 on odd d and -1 on even d.
    """
    if q % 2 == 0:
        return 1
    return 1 if d % 2 else -1


def frak_r(m: int, d: int, q: int, reps: list[tuple[int, int]] | None = None) -> float:
    """Signed representation weight entering the moment formulas.

    Zero unless d is odd or divisible by 4 (the caller is expected to also
    enforce gcd(k, d) = 1 when m = m0 k^2).
    """
    if d % 4 == 2:
        return 0.0
    if q % 2 == 0:
        if d % 2:
            return r2_weighted(m, d, q, reps)
        sign = 1 if (q // 2) % 2 == 0 else -1
        return sign * 2**q * r2_weighted(m, d, q, reps)
    if d % 2:
        return chi4(d) * r2_weighted(m, d, q, reps)
    sign = 1 if ((q - 1) // 2) % 2 == 0 else -1
    return sign * 2**q * r2_weighted_chi(m, d, q, reps)


def zeta_value(s: float, n_terms: int = 1_000_000) -> float:
    """Riemann zeta at real s > 1 by direct summation.

    Partial sum plus the Euler-Maclaurin head of the tail; the residual is
    below s * n_terms^(-s-1), far under 1e-12 for s >= 3/2 at the default.
    """
    if s <= 1:
        raise ValueError("need s > 1")
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    partial = float(np.sum(n**-s))
    tail = n_terms ** (1 - s) / (s - 1) - 0.5 * n_terms**-s + (s / 12) * n_terms ** (-s - 1)
    return partial + tail


def l_chi4_value(s: float, n_terms: int = 200_000) -> float:
    """Dirichlet L(s, chi4) by alternating summation with averaged tail."""
    if s <= 0:
        raise ValueError("need s > 0")
    j = np.arange(n_terms, dtype=np.float64)
    terms = (-1.0) ** j / (2 * j + 1) ** s
    partial = float(np.sum(terms))
    # average of consecutive partial sums brackets the limit
    nxt = partial + (-1.0) ** n_terms / (2 * n_terms + 1) ** s
    return 0.5 * (partial + nxt)


@lru_cache(maxsize=None)
def rho_q(q: int) -> float:
    """pi^q / ((1 - 2^-q) Gamma(q) zeta(q)), the even-q amplitude constant."""
    return math.pi**q / ((1 - 2.0**-q) * math.gamma(q) * zeta_value(q))


@lru_cache(maxsize=None)
def rho_chi_q(q: int) -> float:
    """pi^q / (2^(q-1) Gamma(q) L(q, chi4)), the odd-q amplitude constant."""
    return math.pi**q / (2 ** (q - 1) * math.gamma(q) * l_chi4_value(q))


@dataclass
class ArithTables:
    """Prefix sums of the 2q-dimensional sum-of-squares counts.

    prefix[s] = #{z in Z^(2q) : |z|^2 <= s} for 0 <= s <= limit, exact
    integers held in int64 (overflow is checked during construction).
    """

    q: int
    limit: int
    prefix: np.ndarray = field(repr=False)

    def count_radius2(self, s: int) -> int:
        if s < 0:
            return 0
        if s > self.limit:
            raise BudgetError(f"table limit {self.limit} below requested {s}")
        return int(self.prefix[s])


INT64_SAFE = 2**62


def build_r2q_prefix(q: int, limit: int) -> ArithTables:
    """Build shell counts of Z^(2q) up to squared radius `limit`.

    Repeatedly adds one coordinate: r_{j+1}(n) = sum_a r_j(n - a^2).
    Each pass is a strided vector add; values are certified to stay inside
    int64 by bounding the next pass before running it.
    """
    if q < 1 or limit < 0:
        raise ValueError("need q >= 1 and limit >= 0")
    counts = np.zeros(limit + 1, dtype=np.int64)
    counts[0] = 1
    amax = math.isqrt(limit)
    for _ in range(2 * q):
        peak = int(counts.max())
        if peak * (2 * amax + 1) >= INT64_SAFE:
            raise BudgetError("shell counts would overflow int64 at this limit")
        nxt = counts.copy()
        two = 2 * counts
        for a in range(1, amax + 1):
            nxt[a * a :] += two[: limit + 1 - a * a]
        counts = nxt
    # exact prefix sum: split into high/low words to avoid int64 overflow
    prefix_obj = _exact_cumsum(counts)
    if prefix_obj[-1] < INT64_SAFE:
        prefix = prefix_obj.astype(np.int64)
    else:
        raise BudgetError("prefix sums exceed int64; reduce the limit")
    return ArithTables(q=q, limit=limit, prefix=prefix)


def _exact_cumsum(values: np.ndarray):
    hi, lo = np.divmod(values, np.int64(2**32))
    chi = np.cumsum(hi.astype(np.float64))
    clo = np.cumsum(lo.astype(np.float64))
    if chi[-1] * 2**32 + clo[-1] >= 2**62:
        raise BudgetError("cumulative counts exceed the exact int64 budget")
    return (np.cumsum(hi) * 2**32) + np.cumsum(lo)


def save_tables(tables: ArithTables, path: str | Path) -> None:
    """Cache prefix sums: magic, q, limit, then little-endian u64 entries.

    The file is written beside its destination and moved into place, so a
    reader sees either the old file or the complete new one.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(struct.pack("<qq", tables.q, tables.limit))
            fh.write(tables.prefix.astype("<u8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_tables(path: str | Path) -> ArithTables:
    """Read a cache written by save_tables; ValueError if it is not one."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(CACHE_MAGIC))
        if magic != CACHE_MAGIC:
            raise ValueError(f"{path} is not a shell-count cache")
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"{path} is truncated")
        q, limit = struct.unpack("<qq", header)
        data = np.frombuffer(fh.read(), dtype="<u8")
    if len(data) != limit + 1:
        raise ValueError(f"{path} is truncated")
    return ArithTables(q=q, limit=limit, prefix=data.astype(np.int64))


def shell_tables(q: int, limit: int, cache_dir: str | Path | None = None) -> ArithTables:
    """Shell tables for (q, limit), kept as a file in cache_dir when given.

    A cache file that cannot be read, or whose header names another
    (q, limit), is rebuilt and replaced.
    """
    if not cache_dir:
        return build_r2q_prefix(q, limit)
    path = Path(cache_dir) / f"shells_q{q}_n{limit}.bin"
    try:
        tables = load_tables(path)
        if (tables.q, tables.limit) == (q, limit):
            return tables
    except (OSError, ValueError):
        pass
    tables = build_r2q_prefix(q, limit)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_tables(tables, path)
    return tables
