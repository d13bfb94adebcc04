"""Truncated trigonometric approximations to the normalized error term.

The approximation S_{q,H}(x) is a finite sum of phases sin/cos of
2 pi sqrt(m)/d x^2 - pi/4 whose coefficients are finite weighted counts of
representations m = n^2 + h^2 with congruence conditions.  For q = 3 two
extra short sums over moduli d > sqrt(H) enter the decomposition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import ArithTables, _chi4_array, _rep_weight, chi4, rho_chi_q, rho_q, two_square_reps, xi
from .lattice import sample_normalized_errors

QUARTER = math.pi / 4


def tau(t: float) -> float:
    """Kernel t(1-t)cot(pi t) + t/pi on [0, 1], with tau(0) = 1/pi."""
    if t < 0 or t > 1:
        raise ValueError("tau is defined on [0, 1]")
    if t == 0.0:
        return 1.0 / math.pi
    if t == 1.0:
        return 0.0
    return t * (1 - t) / math.tan(math.pi * t) + t / math.pi


def _rep_pairs(m: int, h_cap: float):
    """Pairs (n, h) with n^2 + h^2 = m, 0 <= n <= h, 1 <= h <= h_cap.

    Yields (n, h, edge) where edge marks n = 0 or n = h (half weight).
    """
    for n, h in two_square_reps(m):
        if n <= h and 1 <= h <= h_cap:
            yield n, h, (n == 0 or n == h)


def coeff_aH(q: int, m: int, d: int, H: float) -> float:
    """Smoothed representation coefficient with the tau kernel."""
    inv1 = 1.0 / (math.floor(H) + 1)
    den2 = d * (math.floor(H / d) + 1)
    total = 0.0
    for n, h, edge in _rep_pairs(m, H):
        half = 0.5 if edge else 1.0
        if n % d == 0:
            total += half * tau(h * inv1) * _rep_weight(h, m, q)
        if h % d == 0:
            total += half * tau(h / den2) * _rep_weight(n, m, q)
    return total / m**0.75


def coeff_aH_chi(q: int, m: int, d: int, H: float) -> float:
    """Character-twisted coefficient (factor 2, chi4(-h) and chi4(-n))."""
    inv1 = 1.0 / (math.floor(H) + 1)
    den2 = d * (math.floor(H / d) + 1)
    total = 0.0
    for n, h, edge in _rep_pairs(m, H):
        half = 0.5 if edge else 1.0
        if n % d == 0:
            total += half * chi4(-h) * tau(h * inv1) * _rep_weight(h, m, q)
        if h % d == 0:
            total += half * chi4(-n) * tau(h / den2) * _rep_weight(n, m, q)
    return 2.0 * total / m**0.75


@dataclass
class VoronoiCoefficients:
    """Immutable term list for one (q, H): frequencies sqrt(m)/d and weights.

    Terms are assembled in ascending (d, h, n) order, so repeated builds
    produce bit-identical sums.
    """

    q: int
    H: float
    freq: np.ndarray = field(repr=False)
    coef: np.ndarray = field(repr=False)
    is_cos: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.freq)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Vectorized S_{q,H} at the given dilation parameters."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        out = np.zeros_like(x)
        x2 = x * x
        for is_cos in (False, True):
            sel = self.is_cos == is_cos
            freq, coef = self.freq[sel], self.coef[sel]
            chunk = max(1, int(4e6 / max(len(freq), 1)))
            for lo in range(0, len(x), chunk):
                out[lo : lo + chunk] += _phase_sum(freq, coef, is_cos, x2[lo : lo + chunk])
        return out


def _phase_sum(freq: np.ndarray, coef: np.ndarray, is_cos: bool, x2: np.ndarray) -> np.ndarray:
    """Sum of coef * sin(2 pi freq x^2 - pi/4), or cosines, at each x^2."""
    arg = 2 * math.pi * freq[:, None] * x2[None, :] - QUARTER
    return coef @ (np.cos(arg) if is_cos else np.sin(arg))


_CHIRP_BLOCK = 4096


def _term_blocks(rows):
    """Concatenate (freq, coef, is_cos) rows into blocks of about _CHIRP_BLOCK terms.

    Zero coefficients are dropped.  Each block is (freq, coef, shift) with
    shift = -1/8 turn for sine terms and +1/8 for cosine terms, so that every
    term reads sin(2 pi (freq x^2 + shift)).
    """
    block, n = [], 0
    for freq, coef, is_cos in rows:
        keep = coef != 0.0
        k = int(np.count_nonzero(keep))
        block.append((freq[keep], coef[keep], np.full(k, 0.125 if is_cos else -0.125)))
        n += k
        if n >= _CHIRP_BLOCK:
            out = tuple(np.concatenate(parts) for parts in zip(*block))
            block, n = [], 0
            yield out
    if n:
        yield tuple(np.concatenate(parts) for parts in zip(*block))


def _chirp_sum(rows, num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """Sum of the rows' coef * sin(2 pi freq x^2 - pi/4), or cosines, at x = num/den.

    Takes the integer numerators num of the samples, in order.  With
    N' = N + s, z = e^{2 pi i f N^2/den^2} advances by z <- z u_s, and for
    every distinct step t, u_t = e^{2 pi i f (2tN + t^2)/den^2} advances by
    u_t <- u_t e^{2 pi i f 2ts/den^2}.  So each term costs one exp per
    constant, with its phase reduced mod 1 in turns first, and complex
    multiplies from sample to sample.  Terms go in blocks of about
    _CHIRP_BLOCK, so memory stays O(block x steps^2).  Returns the sums and
    the number of nonzero terms.
    """
    num = np.asarray(num, dtype=np.int64)
    steps, step_idx = np.unique(np.diff(num), return_inverse=True)
    den2 = den * den
    x0sq = int(num[0]) ** 2 / den2
    start = (2 * int(num[0]) * steps + steps * steps) / den2
    pair = 2 * np.multiply.outer(steps, steps) / den2

    def block_sums(freq, coef, shift):
        # a function of its own, so one block's arrays are freed before the next
        v = _turns(np.multiply.outer(pair, freq))
        u = _turns(np.multiply.outer(start, freq))
        z = _turns(freq * x0sq + shift)
        # every term weighs Im z; the interleaved (Re, Im) dot is the fast one
        weight = np.zeros((len(coef), 2))
        weight[:, 1] = coef
        weight = weight.ravel()
        zf = z.view(np.float64)
        sums = np.empty(len(num))
        sums[0] = zf @ weight
        for i, a in enumerate(step_idx, 1):
            z *= u[a]
            u *= v[a]
            sums[i] = zf @ weight
        return sums

    out = np.zeros(len(num))
    terms = 0
    for freq, coef, shift in _term_blocks(rows):
        out += block_sums(freq, coef, shift)
        terms += len(coef)
    return out, terms


def _turns(t: np.ndarray) -> np.ndarray:
    """e^{2 pi i t}, with t reduced mod 1 first; overwrites t."""
    np.mod(t, 1.0, out=t)
    t *= 2 * math.pi
    out = np.empty(t.shape, dtype=np.complex128)
    np.cos(t, out=out.real)
    np.sin(t, out=out.imag)
    return out


def _sum1_arrays(d: int, H: float, q: int, twist=None):
    """Yield the (m, coef) rows of the first inner sum (n = 0 mod d) for one modulus d."""
    h_max = math.floor(H)
    inv1 = 1.0 / (h_max + 1)
    n = 0
    while n <= h_max:
        h = np.arange(max(n, 1), h_max + 1, dtype=np.int64)
        if len(h):
            m = n * n + h * h
            w = _rep_weight(h, m, q) * _tau_np(h * inv1)
            half = np.where((n == 0) | (h == n), 0.5, 1.0)
            t = w * half
            if twist is not None:
                t = t * twist(-h, n)
            yield m, t
        n += d


def _sum2_arrays(d: int, H: float, q: int, twist=None):
    """Yield the (m, coef) rows of the second inner sum (h = 0 mod d) for one modulus d."""
    den2 = d * (math.floor(H / d) + 1)
    h = d
    while h <= H:
        n = np.arange(0, h + 1, dtype=np.int64)
        m = n * n + h * h
        w = _rep_weight(n, m, q) * tau(h / den2)
        half = np.where((n == 0) | (n == h), 0.5, 1.0)
        t = w * half
        if twist is not None:
            t = t * twist(n, h)
        yield m, t
        h += d


def _tau_np(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    interior = (t > 0) & (t < 1)
    ti = t[interior]
    out[interior] = ti * (1 - ti) / np.tan(math.pi * ti) + ti / math.pi
    out[t <= 0] = 1.0 / math.pi
    out[t >= 1] = 0.0
    return out


def iter_S_rows(q: int, H: float):
    """Yield (freq, coef, is_cos) row batches of the S_{q,H} term list.

    Rows come out in ascending (d, h, n) order so that both the stored and
    the streaming evaluation sum in a fixed order.
    """
    d_max = math.isqrt(math.floor(H))
    if q % 2 == 0:
        amp = 2 * rho_q(q)
        for d in range(1, d_max + 1):
            pref = amp * xi(d, q) / d ** (q - 1.5)
            for m, t in itertools.chain(_sum1_arrays(d, H, q), _sum2_arrays(d, H, q)):
                if len(m):
                    yield np.sqrt(m.astype(np.float64)) / d, pref * t / m**0.75, False
    else:
        ampc = rho_chi_q(q)
        sin_amp = 2**q * ampc
        cos_amp = (-1) ** ((q - 1) // 2) * 2 ** (2 * q - 1) * ampc
        chi_h = lambda a, b: _chi4_array(a)
        chi_n = lambda a, b: _chi4_array(-a)
        for d in range(1, d_max + 1):
            cd = chi4(d)
            if cd:
                pref = sin_amp * cd / d ** (q - 1.5)
                for m, t in itertools.chain(_sum1_arrays(d, H, q), _sum2_arrays(d, H, q)):
                    if len(m):
                        yield np.sqrt(m.astype(np.float64)) / d, pref * t / m**0.75, False
            if d % 4 == 0:
                # factor 2 from the twisted coefficient definition
                pref = cos_amp * 2.0 / d ** (q - 1.5)
                rows = itertools.chain(_sum1_arrays(d, H, q, twist=chi_h), _sum2_arrays(d, H, q, twist=chi_n))
                for m, t in rows:
                    if len(m):
                        yield np.sqrt(m.astype(np.float64)) / d, pref * t / m**0.75, True


def build_S_terms(q: int, H: float) -> VoronoiCoefficients:
    """Assemble the term list of S_{q,H} grouped by representation pairs."""
    freqs, coefs, cosflags = [], [], []
    for freq, coef, is_cos in iter_S_rows(q, H):
        freqs.append(freq)
        coefs.append(coef)
        cosflags.append(np.full(len(freq), is_cos, dtype=bool))
    if freqs:
        freq = np.concatenate(freqs)
        coef = np.concatenate(coefs)
        is_cos = np.concatenate(cosflags)
    else:
        freq = np.zeros(0)
        coef = np.zeros(0)
        is_cos = np.zeros(0, dtype=bool)
    keep = coef != 0.0
    return VoronoiCoefficients(q=q, H=H, freq=freq[keep], coef=coef[keep], is_cos=is_cos[keep])


def eval_S_streaming(q: int, H: float, x: np.ndarray) -> np.ndarray:
    """S_{q,H}(x) without materializing the full term list.

    Memory stays bounded by one row (at most floor(H) terms), which matters
    for large H where the list holds tens of millions of terms.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    x2 = x * x
    out = np.zeros_like(x)
    for freq, coef, is_cos in iter_S_rows(q, H):
        out += _phase_sum(freq, coef, is_cos, x2)
    return out


def _T_rows(q: int, H: float):
    """Yield (freq, coef, is_cos) rows of the two q=3 tail sums, one d at a time.

    Sine rows belong to t_chi and cosine rows to t_chi_upper; frequencies
    are h/d over moduli sqrt(H) < d <= H and 1 <= h <= H/d.
    """
    ampc = rho_chi_q(q)
    sin_amp = 2 ** (q - 1) * ampc
    cos_amp = (-1) ** ((q + 1) // 2) * 2 ** (2 * q - 1) * ampc
    for d in range(math.isqrt(math.floor(H)) + 1, math.floor(H) + 1):
        h_top = math.floor(H / d)
        h = np.arange(1, h_top + 1)
        k = _tau_np(h / (h_top + 1)) / (d ** (q - 1.5) * h**1.5)
        cd = chi4(d)
        if cd:
            yield h / d, sin_amp * cd * k, False
        if d % 4 == 0:
            yield h / d, cos_amp * _chi4_array(h) * k, True


def eval_T_sums(q: int, H: float, x) -> dict[str, np.ndarray]:
    """The two short q=3 tail sums over moduli d > sqrt(H)."""
    if q % 2 == 0:
        raise ValueError("the tail sums are defined for odd q (used at q = 3)")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    x2 = x * x
    out = {"t_chi": np.zeros_like(x), "t_chi_upper": np.zeros_like(x)}
    for freq, coef, is_cos in _T_rows(q, H):
        out["t_chi_upper" if is_cos else "t_chi"] += _phase_sum(freq, coef, is_cos, x2)
    return out


@dataclass
class GapReport:
    """Mean-square gap to S_{q,H} and what it was computed from."""

    gap: float
    H: float
    samples: int
    den: int
    terms: int


def gap_report(
    q: int,
    tables: ArithTables,
    X: int,
    n_samples: int = 200,
    H: float | None = None,
    include_tails: bool = True,
) -> GapReport:
    """Mean square of (normalized error - S_{q,H}) over [X, 2X].

    With H = X^2/2 this is the quantity that decays like X^-2 log^4 X.
    For q = 3 the two short tail sums are part of the decomposition and
    are subtracted as well when include_tails is set.  The sums run on the
    sampler's grid x = num/den by _chirp_sum; terms counts their nonzero
    terms.
    """
    if H is None:
        H = X * X / 2
    series = sample_normalized_errors(q, tables, X, 2 * X, n_samples)
    rows = iter_S_rows(q, H)
    if q == 3 and include_tails:
        rows = itertools.chain(rows, _T_rows(q, H))
    approx, terms = _chirp_sum(rows, series.num, series.den)
    gap = float(np.mean((series.err - approx) ** 2))
    return GapReport(gap=gap, H=H, samples=len(series.x), den=series.den, terms=terms)


def mean_square_gap(
    q: int,
    tables: ArithTables,
    X: int,
    n_samples: int = 200,
    H: float | None = None,
    include_tails: bool = True,
) -> float:
    """Mean square of (normalized error - S_{q,H}) over [X, 2X]: gap_report's gap."""
    return gap_report(q, tables, X, n_samples, H, include_tails).gap
