"""Arithmetic kernels: two-squares representation counts and related tables.

Everything downstream (counting, oscillating sums, moments) is driven by
weighted counts of representations m = a^2 + b^2 with a congruence condition
on b, plus small helpers (the nontrivial character mod 4, Dirichlet series
values) and the shell-count tables with their cache files.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

CACHE_MAGIC = b"HLPT2\n"


class BudgetError(RuntimeError):
    """A requested computation exceeds a size or overflow budget."""


def chi4(n: int) -> int:
    """Nontrivial Dirichlet character mod 4."""
    r = n % 4
    if r == 1:
        return 1
    if r == 3:
        return -1
    return 0


def _chi4_array(v: np.ndarray) -> np.ndarray:
    """chi4 elementwise, as floats."""
    r = np.mod(v, 4)
    return np.where(r == 1, 1.0, np.where(r == 3, -1.0, 0.0))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: cached results are shared by every caller."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


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
    makes the scaling identity W(m s^2, d s) == W(m, d) of rep_weights hold
    exactly.
    """
    return (a * a / m) ** ((q - 1) / 2)


# (n, a) cells per block of rep_weights: about eight int64/float64 arrays of a
# block are live at once, so a block holds about 4 MB of working memory
_REP_CELLS = 2**16


def rep_weights(q: int, n, d_max: int) -> np.ndarray:
    """Weighted two-squares counts of every n[i], for every modulus d <= d_max.

    out[0, i, d - 1] sums (|a| / sqrt(n[i]))^(q-1), computed by _rep_weight,
    over (a, b) in Z^2 with a^2 + b^2 = n[i] and b = 0 mod d; out[1] adds the
    factor chi4(|a|).  The pairs come off the (n, a) grid, a <= isqrt(n), in
    blocks of at most _REP_CELLS cells: b = sqrt(n - a^2) in float64 is exact
    on squares, and b^2 == n - a^2 certifies each pair.  Each count is summed
    by bincount in ascending a, so W(m s^2, d s) == W(m, d) and, twisted,
    chi4(s) W(m, d) hold exactly.
    """
    n = np.asarray(n, dtype=np.int64).reshape(-1)
    if d_max < 1 or (n < 1).any() or (n >= 2**52).any():
        raise ValueError("need d_max >= 1 and 1 <= n < 2^52")
    width = np.array([math.isqrt(v) + 1 for v in n.tolist()], dtype=np.int64)
    start, cells = np.cumsum(width) - width, int(width.sum())
    found = [np.zeros((3, 0), np.int64)]
    for lo in range(0, cells, _REP_CELLS):
        cell = np.arange(lo, min(lo + _REP_CELLS, cells))
        row = np.searchsorted(start, cell, side="right") - 1
        a = cell - start[row]
        s = n[row] - a * a
        b = np.sqrt(s).astype(np.int64)
        hit = b * b == s
        found.append(np.stack((row[hit], a[hit], b[hit])))
    row, a, b = np.concatenate(found, axis=1)
    w = np.where(a > 0, 2.0, 1.0) * np.where(b > 0, 2.0, 1.0) * _rep_weight(a, n[row], q)
    # (pair, d) with d | b, pair-major, so every bin is summed in ascending a
    pair, d = np.nonzero(b[:, None] % np.arange(1, d_max + 1) == 0)
    bins = row[pair] * d_max + d
    out = np.empty((2, len(n), d_max))
    for twisted, weights in enumerate((w, w * _chi4_array(a))):
        out[twisted] = np.bincount(bins, weights[pair], len(n) * d_max).reshape(len(n), d_max)
    return out


def eps_sign(d, q: int):
    """Frequency sign for modulus d (an int, or elementwise on an int array) in the
    moment constraint: +1 always for even q; for odd q +1 on odd d and -1 on even d."""
    return 1 - 2 * (q % 2) * (1 - d % 2)


def _branch(d: int, q: int) -> tuple[int, bool]:
    """(factor, twisted) of the modulus d in phi_m, S_{q,H} and the q = 3 tails.

    Even q: xi(d; q), that is 1 on odd d, -s on d = 2 and s (2^q - 1) on
    d = 0 mod 4, s = (-1)^(q/2).  Odd q: chi4(d) on odd d, 0 on d = 2 and
    -s 2^q on d = 0 mod 4, twisted: weights carry chi4 of the free
    coordinate and the phase is a cosine.  A factor 0 drops the modulus.
    """
    s = (-1) ** (q // 2)
    if d % 2:
        return (chi4(d) if q % 2 else 1), False
    if q % 2 == 0:
        return (s * (2**q - 1) if d % 4 == 0 else -s), False
    return (-s * 2**q, True) if d % 4 == 0 else (0, False)


def _frak_branch(d: int, q: int) -> tuple[int, bool]:
    """(factor, twisted) of the reduced modulus d in the moment formulas and the Q(m, 2) sums.

    As _branch on odd d; 0 on d = 2 mod 4; (-1)^(q//2) 2^q on d = 0 mod 4, twisted for odd q.
    """
    if d % 2:
        return _branch(d, q)
    if d % 4:
        return 0, False
    return (-1) ** (q // 2) * 2**q, q % 2 == 1


def _branch_weights(table: np.ndarray, q: int, rule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(factor, weight, twisted) of a rep_weights table under rule, _branch or _frak_branch.

    factor[d - 1], twisted[d - 1] = rule(d, q); weight[i, d - 1] is the
    twisted weight of n[i] where twisted[d - 1], else the plain one.
    """
    factor, twisted = np.array([rule(d, q) for d in range(1, table.shape[2] + 1)], dtype=np.int64).T
    twisted = twisted.astype(bool)
    return factor, np.where(twisted, table[1], table[0]), twisted


# B_2j / (2j)!, j = 1..8: the Euler-Maclaurin corrections of _hurwitz_zeta
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_EM_COEFS = [b / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI, 1)]


def _hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) = sum_{k >= 0} (k + a)^-s for real s > 1 and 0 < a <= 1.

    Euler-Maclaurin at x = a + 16: the first 16 terms, the integral and half
    term at x, and 8 Bernoulli corrections, added by math.fsum.  The
    remainder is below the ninth correction, 1e-21 relative at s = 3/2.
    Not scipy.special.zeta: importing scipy.special takes 0.25 s and 25 MB
    resident on a 2-core x86_64 host, more than every sum here.
    """
    x = a + 16
    terms = [(k + a) ** -s for k in range(16)] + [x ** (1 - s) / (s - 1), x**-s / 2]
    rising = s  # s (s + 1) ... (s + 2j - 2)
    for j, c in enumerate(_EM_COEFS, 1):
        terms.append(c * rising * x ** (1 - s - 2 * j))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return math.fsum(terms)


def zeta_value(s: float) -> float:
    """Riemann zeta at real s > 1."""
    if s <= 1:
        raise ValueError("need s > 1")
    return _hurwitz_zeta(s, 1.0)


def l_chi4_value(s: float) -> float:
    """Dirichlet L(s, chi4) = (zeta(s, 1/4) - zeta(s, 3/4)) / 4^s, for real s > 1."""
    if s <= 1:
        raise ValueError("need s > 1")
    return (_hurwitz_zeta(s, 0.25) - _hurwitz_zeta(s, 0.75)) / 4.0**s


@lru_cache(maxsize=None)
def rho_q(q: int) -> float:
    """pi^q / ((1 - 2^-q) Gamma(q) zeta(q)), the even-q amplitude constant."""
    return math.pi**q / ((1 - 2.0**-q) * math.gamma(q) * zeta_value(q))


@lru_cache(maxsize=None)
def rho_chi_q(q: int) -> float:
    """pi^q / (2^(q-1) Gamma(q) L(q, chi4)), the odd-q amplitude constant."""
    return math.pi**q / (2 ** (q - 1) * math.gamma(q) * l_chi4_value(q))


def _amplitude_constant(q: int) -> float:
    """R(q) = rho_q for even q, 2^(q-1) rho_chi_q for odd q: phi_m takes R / (2 pi), S_{q,H} 2 R, the q = 3 tails R."""
    return rho_q(q) if q % 2 == 0 else 2 ** (q - 1) * rho_chi_q(q)


@dataclass
class ArithTables:
    """Prefix sums of the 2q-dimensional sum-of-squares counts.

    prefix[s] = #{z in Z^(2q) : |z|^2 <= s} for 0 <= s <= limit, exact
    integers held in int64.  build_r2q_prefix makes them at q = 3 by one
    exact integer sieve of Jacobi's six-square divisor sums, and at every
    other q by q - 1 FFT convolutions of r_2, each certified by a rounding
    bound with constant _FFT_C (split into bit limbs where needed) and a
    checksum.  It raises BudgetError where a count or the total could leave
    int64 or a certificate fails.
    """

    q: int
    limit: int
    prefix: np.ndarray = field(repr=False)

    def check_covers(self, q: int, s_max: int) -> None:
        """ValueError unless the tables are for q, BudgetError unless they reach radius^2 s_max."""
        if self.q != q:
            raise ValueError("tables were built for a different q")
        if self.limit < s_max:
            raise BudgetError(f"tables cover radius^2 {self.limit} < required {s_max}")


INT64_SAFE = 2**62
# C of the rounding bound C eps log2(n) |x|_2 |y|_2 of a float64 FFT convolution
_FFT_C = 32.0
_EPS = float(np.finfo(np.float64).eps)


def build_r2q_prefix(q: int, limit: int) -> ArithTables:
    """Build shell counts of Z^(2q) up to squared radius `limit`.

    At q = 3 the counts r_6 come from Jacobi's six-square theorem by the
    exact int64 sieve _r6_sieve, with no float step to certify.  At every
    other q, r_2 is counted exactly over the pairs a, b >= 0 with
    a^2 + b^2 <= limit, weighted (2 if a else 1)(2 if b else 1) for the
    signs.  Then q - 1 real-FFT convolutions r_{2j+2} = r_{2j} * r_2,
    truncated to [0, limit], run at the smallest length n = 2^a 3^b 5^c >=
    2 limit + 1, so nothing wraps into [0, limit]; r_2's spectrum is taken
    once.  (q = 2 and 4 have divisor-sum formulas too, but no caller builds
    them past about 2e4.)  One cumsum gives the prefix.

    Every FFT product is certified exact.  A float64 FFT convolution of x
    and y is off by at most C eps log2(n) |x|_2 |y|_2 in each entry (Percival
    2003; Brent, Percival and Zimmermann 2007), with C = _FFT_C = 32 and
    eps = 2^-52; below 1/4, rounding to the nearest integer is exact.  Where
    r_{2j} fails that bound it is split into the fewest equal-width bit limbs
    that each pass, and the limbs' products are recombined by shifts in
    int64.  Each product must also meet the wrapping (mod 2^64) checksum
    sum_n c(n) = sum_a r_2(a) P(limit - a), P the prefix sums of r_{2j}.

    BudgetError when a count could overflow (peak r_{2j} times sum r_2
    reaches 2^62), when even 1-bit limbs fail the bound, when a checksum
    fails, or when the total, summed in float64 with a relative margin,
    reaches 2^62 (at q = 3 near radius^2 9.6e5: 1200^2 raises).  The last
    is raised before any sieve or transform when the ball of radius
    sqrt(limit) - sqrt(2q)/2, which the unit cubes about the counted points
    cover, already has volume 2^62.
    """
    if q < 1 or limit < 0:
        raise ValueError("need q >= 1 and limit >= 0")
    # the radius whose 2q-ball has volume INT64_SAFE; an int of any size compares exactly with a float
    r_safe = math.exp((math.log(INT64_SAFE) + 1e-9 + math.lgamma(q + 1)) / (2 * q)) / math.sqrt(math.pi)
    if limit > (r_safe + math.sqrt(2 * q) / 2) ** 2:
        raise BudgetError("cumulative counts exceed the exact int64 budget")
    counts = _r6_sieve(limit) if q == 3 else _convolve_powers(_r2_counts(limit), q - 1)
    total = float(np.sum(counts, dtype=np.float64))
    if total * (1 + (limit + 2) * _EPS) >= INT64_SAFE:
        raise BudgetError("cumulative counts exceed the exact int64 budget")
    return ArithTables(q=q, limit=limit, prefix=np.cumsum(counts, out=counts))


def _r2_counts(limit: int) -> np.ndarray:
    """r_2(n) for 0 <= n <= limit, one vectorised row of b per a <= sqrt(limit)."""
    sq = np.arange(math.isqrt(limit) + 1, dtype=np.int64) ** 2
    weight = np.where(sq > 0, 2, 1)
    r2 = np.zeros(limit + 1, dtype=np.int64)
    for a2, wa in zip(sq.tolist(), weight.tolist()):
        nb = math.isqrt(limit - a2) + 1
        r2[a2 + sq[:nb]] += wa * weight[:nb]
    return r2


def _r6_sieve(limit: int) -> np.ndarray:
    """r_6(n) for 0 <= n <= limit, exactly in int64, from Jacobi's six-square theorem.

    r_6(n) = 16 sum_{d|n} chi4(n/d) d^2 - 4 sum_{d|n} chi4(d) d^2 for n >= 1
    (Jacobi 1829; Grosswald, Representations of Integers as Sums of Squares,
    1985), that is the sum of d^2 (16 chi4(e) - 4 chi4(d)) over the pairs
    d e = n.  The hyperbola split takes each pair once: for e <= s =
    isqrt(limit) one strided add per e over the multiples of e, then for
    the pairs with e > s, whose d <= limit // (s + 1) <= s, one per d.
    That is about 2 s loop steps of two or three numpy calls each, and
    O(limit log limit) integer adds.

    No intermediate can overflow: every array entry, temporary and partial
    sum of r6[n] is a sum of parts 16 d^2 chi4(e) and -4 d^2 chi4(d) over
    distinct pairs, so it is at most 20 sigma_2(n) < 20 zeta(2) limit^2 in
    size, below 2^46 for every limit under 1200^2 and so for every limit
    that build_r2q_prefix's int64 prefix reach admits.
    """
    r6 = np.zeros(limit + 1, dtype=np.int64)
    r6[0] = 1
    s = math.isqrt(limit)
    chi = np.zeros(limit + 1, dtype=np.int64)
    chi[1::4], chi[3::4] = 1, -1
    d2 = np.arange(limit + 1, dtype=np.int64) ** 2
    minus = d2 * chi
    minus *= -4  # -4 chi4(d) d^2
    d2 *= 16  # 16 d^2
    for e in range(1, s + 1):
        row = r6[e::e]  # n = d e for d = 1 .. limit // e
        row += minus[1 : limit // e + 1]
        if e % 4 == 1:
            row += d2[1 : limit // e + 1]
        elif e % 4 == 3:
            row -= d2[1 : limit // e + 1]
    for d in range(1, limit // (s + 1) + 1):
        row = r6[d * (s + 1) :: d]  # n = d e for e = s + 1 .. limit // d
        row += chi[s + 1 : limit // d + 1] * (16 * d * d)
        row += minus[d]
    return r6


def _convolve_powers(r2: np.ndarray, steps: int) -> np.ndarray:
    """r2 convolved with itself `steps` more times on [0, len(r2)), exactly; see build_r2q_prefix.

    One real buffer, two spectra and one int64 work array serve every limb,
    so beyond numpy.fft's own scratch a step allocates only its result.
    """
    if steps == 0:
        return r2
    size = len(r2)
    n = _fft_length(2 * size - 1)
    buf = np.zeros(n)
    real = buf[:size]
    work = np.empty(size, dtype=np.int64)
    real[:] = r2
    bound = 0.25 / (_FFT_C * _EPS * max(math.log2(n), 1.0) * _norm2(real))
    r2_total = int(r2.sum())
    r2_spec = np.fft.rfft(buf)
    spec = np.empty_like(r2_spec)
    counts = r2
    for _ in range(steps):
        peak = int(counts.max())
        if peak * r2_total >= INT64_SAFE:
            raise BudgetError("shell counts would overflow int64 at this limit")
        bits = peak.bit_length()
        width = _limb_width(counts, bits, bound, work, real)
        nxt = np.zeros(size, dtype=np.int64)
        for shift in range(0, bits, width):
            if counts is r2 and width == bits:
                # r2 * r2 in one limb: its spectrum is already taken
                np.multiply(r2_spec, r2_spec, out=spec)
            else:
                _load_limb(counts, shift, width, work, real)
                buf[size:] = 0
                np.fft.rfft(buf, out=spec)
                spec *= r2_spec
            np.fft.irfft(spec, n, out=buf)
            np.rint(real, out=real)
            work[:] = real
            work <<= shift
            nxt += work
        # sum_n nxt(n) = sum_{a + b <= limit} r2(a) counts(b), both sides mod 2^64
        tails = np.cumsum(counts.view(np.uint64), out=work.view(np.uint64))[::-1]
        if np.dot(r2.view(np.uint64), tails) != np.sum(nxt.view(np.uint64)):
            raise BudgetError("shell-count convolution failed its checksum")
        counts = nxt
    return counts


def _load_limb(counts, shift, width, work, real) -> np.ndarray:
    """Bits [shift, shift + width) of counts, into the float array real (through work)."""
    np.right_shift(counts, shift, out=work)
    work &= (1 << width) - 1
    real[:] = work
    return real


def _limb_width(counts, bits, bound, work, real) -> int:
    """Bits per limb: the fewest equal-width limbs of counts (< 2^bits) whose 2-norms are all below bound."""
    for k in range(1, bits + 1):
        width = -(-bits // k)
        if all(_norm2(_load_limb(counts, s, width, work, real)) < bound for s in range(0, bits, width)):
            return width
    raise BudgetError("shell-count convolution fails its rounding bound even with 1-bit limbs")


def _norm2(x: np.ndarray) -> float:
    """An upper bound on the 2-norm of a float64 vector."""
    return math.sqrt(float(x @ x) * (1 + (len(x) + 2) * _EPS))


def _fft_length(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m."""
    best = 1 << max(m - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            n = p35
            while n < m:
                n *= 2
            best = min(best, n)
            p35 *= 3
        p5 *= 5
    return best


def _digest(header: bytes, body: bytes) -> bytes:
    """blake2b of a cache file's header and entries.  hashlib loads OpenSSL, 3.4 MB resident, so only here."""
    import hashlib

    return hashlib.blake2b(header + body).digest()


def save_tables(tables: ArithTables, path: str | Path) -> None:
    """Cache prefix sums: magic, the header (q, limit), a blake2b digest of
    header and entries, then the entries as little-endian u64.

    The file is written beside its destination and moved into place, so a
    reader sees either the old file or the complete new one.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    header = struct.pack("<qq", tables.q, tables.limit)
    body = tables.prefix.astype("<u8").tobytes()
    try:
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC + header + _digest(header, body))
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_tables(path: str | Path) -> ArithTables:
    """Read a cache written by save_tables; ValueError if it is not one or fails its digest."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(CACHE_MAGIC))
        if magic != CACHE_MAGIC:
            raise ValueError(f"{path} is not a shell-count cache")
        header, digest, body = fh.read(16), fh.read(64), fh.read()
    if len(header) != 16 or digest != _digest(header, body):
        raise ValueError(f"{path} is truncated or corrupt")
    q, limit = struct.unpack("<qq", header)
    data = np.frombuffer(body, dtype="<u8")
    if len(data) != limit + 1:
        raise ValueError(f"{path} is truncated")
    return ArithTables(q=q, limit=limit, prefix=data.astype(np.int64))


def shell_tables(q: int, limit: int, cache_dir: str | Path | None = None) -> ArithTables:
    """Shell tables for (q, limit), kept as a file in cache_dir when given.

    A cache file that cannot be read, fails its digest, or whose header
    names another (q, limit), is rebuilt and replaced.
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
