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
from .phi import _amplitudes, _trig_sum


def tau(t):
    """Kernel t(1-t)cot(pi t) + t/pi on [0, 1], with tau(0) = 1/pi and tau(1) = 0.

    Takes a scalar or an array and returns the same kind.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ValueError("tau is defined on [0, 1]")
    out = np.where(arr == 0, 1.0 / math.pi, 0.0)
    inner = (arr > 0) & (arr < 1)
    ti = arr[inner]
    out[inner] = ti * (1 - ti) / np.tan(math.pi * ti) + ti / math.pi
    return float(out[0]) if np.ndim(t) == 0 else out


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
        return _trig_sum(self.freq, _amplitudes(self.coef, self.is_cos), x * x)


_CHIRP_BLOCK = 4096


def _term_blocks(rows):
    """Concatenate (freq, coef, is_cos) rows into (freq, amp) blocks of about _CHIRP_BLOCK terms.

    amp holds the _amplitudes of the terms, so that every term reads
    Re(amp e^{2 pi i freq x^2}).
    """
    block, n = [], 0
    for freq, coef, is_cos in rows:
        block.append((freq, _amplitudes(coef, is_cos)))
        n += len(coef)
        if n >= _CHIRP_BLOCK:
            out = tuple(np.concatenate(parts) for parts in zip(*block))
            block, n = [], 0
            yield out
    if n:
        yield tuple(np.concatenate(parts) for parts in zip(*block))


def _chirp_sum(rows, num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """Sum of the rows' terms at x = num/den.

    Takes the integer numerators num of the samples, in order.  With
    N' = N + s, z = e^{2 pi i f N^2/den^2} advances by z <- z u_s, and for
    every distinct step t, u_t = e^{2 pi i f (2tN + t^2)/den^2} advances by
    u_t <- u_t e^{2 pi i f 2ts/den^2}.  So each term costs one exp per
    constant, with its phase reduced mod 1 in turns first, and complex
    multiplies from sample to sample.  Terms go in blocks of about
    _CHIRP_BLOCK, so memory stays O(block x steps^2).  Returns the sums and
    the number of terms.
    """
    num = np.asarray(num, dtype=np.int64)
    steps, step_idx = np.unique(np.diff(num), return_inverse=True)
    den2 = den * den
    x0sq = int(num[0]) ** 2 / den2
    start = (2 * int(num[0]) * steps + steps * steps) / den2
    pair = 2 * np.multiply.outer(steps, steps) / den2

    def block_sums(freq, amp):
        # a function of its own, so one block's arrays are freed before the next
        v = _turns(np.multiply.outer(pair, freq))
        u = _turns(np.multiply.outer(start, freq))
        z = _turns(freq * x0sq)
        # Re(amp z) = Re amp Re z - Im amp Im z: the interleaved dot is the fast one
        weight = np.conj(amp).view(np.float64)
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
    for freq, amp in _term_blocks(rows):
        out += block_sums(freq, amp)
        terms += len(amp)
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
    kernel = tau(np.arange(1, h_max + 1) * inv1)
    n = 0
    while n <= h_max:
        h = np.arange(max(n, 1), h_max + 1, dtype=np.int64)
        if len(h):
            m = n * n + h * h
            w = _rep_weight(h, m, q) * kernel[max(n, 1) - 1 :]
            half = np.where((n == 0) | (h == n), 0.5, 1.0)
            t = w * half
            if twist is not None:
                t = t * twist(-h, n)
            yield m, t
        n += d


def _sum2_arrays(d: int, H: float, q: int, twist=None):
    """Yield the (m, coef) rows of the second inner sum (h = 0 mod d) for one modulus d."""
    den2 = d * (math.floor(H / d) + 1)
    hs = np.arange(d, math.floor(H) + 1, d)
    kernel = tau(hs / den2)
    for h, k in zip(hs.tolist(), kernel.tolist()):
        n = np.arange(0, h + 1, dtype=np.int64)
        m = n * n + h * h
        w = _rep_weight(n, m, q) * k
        half = np.where((n == 0) | (n == h), 0.5, 1.0)
        t = w * half
        if twist is not None:
            t = t * twist(n, h)
        yield m, t


def iter_S_rows(q: int, H: float):
    """Yield (freq, coef, is_cos) row batches of the S_{q,H} term list.

    Rows come out in ascending (d, h, n) order so that both the stored and
    the streaming evaluation sum in a fixed order.  Only nonzero terms are
    yielded: the n = 0 weights and the zeros of the chi4 twists are dropped.
    """
    d_max = math.isqrt(math.floor(H))
    if q % 2 == 0:
        amp = 2 * rho_q(q)
        for d in range(1, d_max + 1):
            pref = amp * xi(d, q) / d ** (q - 1.5)
            rows = itertools.chain(_sum1_arrays(d, H, q), _sum2_arrays(d, H, q))
            yield from _S_rows(rows, d, pref, False)
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
                rows = itertools.chain(_sum1_arrays(d, H, q), _sum2_arrays(d, H, q))
                yield from _S_rows(rows, d, pref, False)
            if d % 4 == 0:
                # factor 2 from the twisted coefficient definition
                pref = cos_amp * 2.0 / d ** (q - 1.5)
                rows = itertools.chain(_sum1_arrays(d, H, q, twist=chi_h), _sum2_arrays(d, H, q, twist=chi_n))
                yield from _S_rows(rows, d, pref, True)


def _S_rows(rows, d: int, pref: float, is_cos: bool):
    """Turn (m, t) rows of modulus d into (freq, coef, is_cos) rows of their nonzero terms."""
    for m, t in rows:
        keep = t != 0.0
        if keep.any():
            m = m[keep]
            yield np.sqrt(m.astype(np.float64)) / d, pref * t[keep] / m**0.75, is_cos


def build_S_terms(q: int, H: float) -> VoronoiCoefficients:
    """Assemble the term list of S_{q,H} grouped by representation pairs."""
    rows = [(np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool))]
    rows += [(freq, coef, np.full(len(freq), is_cos)) for freq, coef, is_cos in iter_S_rows(q, H)]
    freq, coef, is_cos = (np.concatenate(parts) for parts in zip(*rows))
    return VoronoiCoefficients(q=q, H=H, freq=freq, coef=coef, is_cos=is_cos)


def eval_S_streaming(q: int, H: float, x: np.ndarray) -> np.ndarray:
    """S_{q,H}(x) without materializing the full term list.

    Memory stays bounded by one row (at most floor(H) terms), which matters
    for large H where the list holds tens of millions of terms.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    x2 = x * x
    out = np.zeros_like(x)
    for freq, coef, is_cos in iter_S_rows(q, H):
        out += _trig_sum(freq, _amplitudes(coef, is_cos), x2)
    return out


def _T_rows(q: int, H: float):
    """Yield (freq, coef, is_cos) rows of the two q=3 tail sums, one d at a time.

    Sine rows belong to t_chi and cosine rows to t_chi_upper; frequencies
    are h/d over moduli sqrt(H) < d <= H and 1 <= h <= H/d.  Cosine rows
    keep odd h only, where chi4(h) is nonzero.
    """
    ampc = rho_chi_q(q)
    sin_amp = 2 ** (q - 1) * ampc
    cos_amp = (-1) ** ((q + 1) // 2) * 2 ** (2 * q - 1) * ampc
    for d in range(math.isqrt(math.floor(H)) + 1, math.floor(H) + 1):
        h_top = math.floor(H / d)
        h = np.arange(1, h_top + 1)
        k = tau(h / (h_top + 1)) / (d ** (q - 1.5) * h**1.5)
        cd = chi4(d)
        if cd:
            yield h / d, sin_amp * cd * k, False
        if d % 4 == 0:
            odd = h % 2 == 1
            yield h[odd] / d, cos_amp * _chi4_array(h[odd]) * k[odd], True


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
) -> GapReport:
    """Mean square of (normalized error - S_{q,H}) over [X, 2X].

    With H = X^2/2 this is the quantity that decays like X^-2 log^4 X.
    For q = 3 the two short tail sums are part of the decomposition and
    are subtracted as well.  The sums run on the sampler's grid
    x = num/den by _chirp_sum; terms counts their terms.
    """
    if H is None:
        H = X * X / 2
    series = sample_normalized_errors(q, tables, X, 2 * X, n_samples)
    rows = iter_S_rows(q, H)
    if q == 3:
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
) -> float:
    """Mean square of (normalized error - S_{q,H}) over [X, 2X]: gap_report's gap."""
    return gap_report(q, tables, X, n_samples, H).gap
