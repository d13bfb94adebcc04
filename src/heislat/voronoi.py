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

from .arithmetic import ArithTables, _amplitude_constant, _branch, _chi4_array, _rep_weight
from .empirical import ErrorSample, sample_errors
from .phi import _amplitudes


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


# term x point elements per block of _trig_sum: each element is one float64 of
# working memory, so a block holds 128 KB whatever the number of terms.
_TRIG_BLOCK = 2**14


def _trig_sum(freq: np.ndarray, amp: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Re sum_j amp_j e^{2 pi i freq_j t} at each point of the 1-D array t.

    The direct evaluator of S_{q,H} rows, whose frequencies sqrt(m)/d share
    no common base.  Evaluated as |amp| cos(2 pi freq t + arg amp) over
    blocks of at most _TRIG_BLOCK term x point elements, so the working
    memory beyond the output stays O(_TRIG_BLOCK) whatever the number of
    terms.  It rounds each phase 2 pi freq t in float64, an error of about
    eps |2 pi freq t| per term.
    """
    w = 2 * math.pi * freq
    r, ph = np.abs(amp), np.angle(amp)
    out = np.zeros(len(t))
    n_pts = max(1, min(len(t), _TRIG_BLOCK))
    n_terms = _TRIG_BLOCK // n_pts
    for lo in range(0, len(t), n_pts):
        for k in range(0, len(w), n_terms):
            arg = np.multiply.outer(w[k : k + n_terms], t[lo : lo + n_pts])
            arg += ph[k : k + n_terms, None]
            out[lo : lo + n_pts] += r[k : k + n_terms] @ np.cos(arg, out=arg)
    return out


@dataclass
class VoronoiCoefficients:
    """Immutable term list for one (q, H): frequencies sqrt(m)/d and weights.

    Terms are assembled in ascending (d, m) order, so repeated builds
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
    """Sum of the rows' terms at x = num/den, for integer numerators num_i = N + i s.

    Each term takes y = amp e(f N^2/den^2), u = e(f (2Ns + s^2)/den^2) and
    v = e(2 f s^2/den^2), e(t) = e^{2 pi i t} with t reduced mod 1 in turns
    first, and advances from sample to sample by y <- y u, u <- u v.  Each
    sample sums Re y, with no BLAS call.  Terms go in blocks of about
    _CHIRP_BLOCK.  Returns the sums and the number of terms; ValueError
    unless num is an arithmetic progression.
    """
    num = np.asarray(num, dtype=np.int64)
    N, s = int(num[0]), int(num[1] - num[0]) if len(num) > 1 else 0
    if np.any(np.diff(num) != s):
        raise ValueError("the chirp needs equispaced numerators")
    den2 = den * den
    # the phases of y, u and v in turns per unit frequency
    ty, tu, tv = N * N / den2, (2 * N * s + s * s) / den2, 2 * s * s / den2

    def block_sums(freq, amp):
        # a function of its own, so one block's arrays are freed before the next
        v = _turns(tv * freq)
        u = _turns(tu * freq)
        y = amp * _turns(freq * ty)
        sums = np.empty(len(num))
        sums[0] = y.real.sum()
        for i in range(1, len(num)):
            y *= u
            u *= v
            sums[i] = y.real.sum()
        return sums

    out = np.zeros(len(num))
    terms = 0
    for freq, amp in _term_blocks(rows):
        out += block_sums(freq, amp)
        terms += len(amp)
    return out, terms


def _turns(t: np.ndarray) -> np.ndarray:
    """e^{2 pi i t}, with t reduced mod 1 first; overwrites t.

    t - floor(t) and np.mod(t, 1.0) both round the exact value t - floor(t)
    once, so they agree bit for bit on every finite t.  On a 2-core Xeon the
    floor form takes about 1.4 ns an element where np.mod took about 19 ns.
    """
    t -= np.floor(t)
    t *= 2 * math.pi
    out = np.empty(t.shape, dtype=np.complex128)
    np.cos(t, out=out.real)
    np.sin(t, out=out.imag)
    return out


# about the most pairs one m-window of _S_windows holds: the rows' memory bound, whatever H
_S_WINDOW = 16384


def _sweep(q, windows, f, v_lo, v_hi, line_w=None, v_w=None, both=False):
    """Yield (m, weight) of the pairs (f, v), v_lo <= v <= v_hi on each line f, for each window
    [A, A + windows.step) of m = f^2 + v^2, A in the range windows.

    A pair weighs _rep_weight(v, m, q), plus _rep_weight(f, m, q) if both, times
    line_w[line] and v_w[v] where given.  f ascends, and so do the least and the
    largest m of a line, so the lines that reach a window are one slice.
    """
    ff, cur, v_end = f * f, v_lo.copy(), v_hi + 1
    m_lo, m_hi = ff + v_lo * v_lo, ff + v_hi * v_hi
    for A in windows:
        B = A + windows.step
        i, j = np.searchsorted(m_hi, A), np.searchsorted(m_lo, B)
        # each line of the slice has f^2 + v_lo^2 < B; below 2^52 the float sqrt floors exactly
        end = np.minimum(np.sqrt(B - 1 - ff[i:j]).astype(np.int64) + 1, v_end[i:j])
        size = end - cur[i:j]
        v = np.arange(size.sum()) - np.repeat(np.cumsum(size) - end, size)
        cur[i:j] = end
        m = np.repeat(ff[i:j], size) + v * v
        t = _rep_weight(v, m, q)
        if both:
            t += _rep_weight(np.repeat(f[i:j], size), m, q)
        if line_w is not None:
            t *= np.repeat(line_w[i:j], size)
        if v_w is not None:
            t *= v_w[v]
        yield m, t


def _S_windows(d: int, H: float, q: int, twisted: bool):
    """Yield (m, t) rows of modulus d, one per m-window: each m once, ascending, and t the summed
    weight of its representations m = n^2 + h^2 in both inner sums; zero sums are dropped.

    Sum 1 takes n = 0 mod d, n <= h <= floor(H), kernel k1(h) = tau(h/(floor(H) + 1)); sum 2
    h = 0 mod d, 0 <= n <= h, kernel k2(h) = tau(h/den2).  A pair weighs _rep_weight of its free
    coordinate, times chi4 of it if twisted, halved if n = 0 or n = h.  The halved pairs are
    listed apart: (0, h) weighs k1(h)/2 (sum 2 gives it 0^((q-1)/2) = 0), and (h, h), d | h,
    (k1(h) + k2(h)) 2^((1-q)/2)/2.  The rest are swept along the lines n = 0 mod d and h = 0 mod d,
    or at d = 1, where both sums share pairs and kernel, in one sweep with both weights.  Below
    floor(H)^2 a sweep has about pi (B - A)/(8d) pairs in [A, B): a window holds about _S_WINDOW.
    """
    h_max = math.floor(H)
    h_all = np.arange(h_max + 1)
    k1 = tau(h_all / (h_max + 1))
    k2 = tau(h_all / (d * (math.floor(H / d) + 1)))
    chi = _chi4_array(h_all) if twisted else np.ones(h_max + 1)
    lines = h_all[d::d]
    edge_m = np.concatenate([h_all[1:] ** 2, 2 * lines**2])
    edge_t = 0.5 * np.concatenate([k1[1:] * chi[1:], _rep_weight(lines, 2 * lines**2, q) * ((k1 + k2) * chi)[lines]])
    order = np.argsort(edge_m)
    edge_m, edge_t = edge_m[order], edge_t[order]
    width = math.ceil(8 * d * _S_WINDOW / (math.pi * (1 if d == 1 else 2)))
    windows = range(1, 2 * h_max * h_max + 1, width)
    ones = np.ones_like(lines)
    if d == 1:
        sweeps = [_sweep(q, windows, lines, ones, lines - 1, line_w=k1[lines], both=True)]
    else:
        sweeps = [
            _sweep(q, windows, lines, lines + 1, np.full(len(lines), h_max), v_w=k1 * chi),
            _sweep(q, windows, lines, ones, lines - 1, line_w=k2[lines], v_w=chi if twisted else None),
        ]
    for A, parts in zip(windows, zip(*sweeps)):
        e0, e1 = np.searchsorted(edge_m, (A, A + width))
        m, t = (np.concatenate(p) for p in zip((edge_m[e0:e1], edge_t[e0:e1]), *parts))
        if not len(m):
            continue
        # sort on the unique key (m - A, position): any sort then gives one order of summation
        bits = len(m).bit_length()
        key = np.sort((m - A) << bits | np.arange(len(m)))
        m, t = A + (key >> bits), t[key & ((1 << bits) - 1)]
        first = np.concatenate([[True], m[1:] != m[:-1]])
        m, t = m[first], np.bincount(np.cumsum(first) - 1, t)
        keep = t != 0.0
        yield m[keep], t[keep]


def iter_S_rows(q: int, H: float):
    """Yield (freq, coef, is_cos) row batches of the S_{q,H} term list, one term per (d, m).

    Rows come out in ascending (d, m) order, so that both the stored and
    the streaming evaluation sum in a fixed order.  The coefficient of
    sqrt(m)/d sums every representation m = n^2 + h^2 of both inner sums.
    Each modulus d takes its (factor, twisted) from arithmetic._branch;
    twisted rows are the cosine rows.  Only nonzero terms are yielded.
    """
    amp = 2 * _amplitude_constant(q)
    for d in range(1, math.isqrt(math.floor(H)) + 1):
        factor, twisted = _branch(d, q)
        if factor:
            pref = amp * factor / d ** (q - 1.5)
            for m, t in _S_windows(d, H, q, twisted):
                root = np.sqrt(m)
                yield root / d, pref * t / (root * np.sqrt(root)), twisted


def build_S_terms(q: int, H: float) -> VoronoiCoefficients:
    """Assemble the term list of S_{q,H}: the terms of iter_S_rows, one per (d, m)."""
    rows = [(np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool))]
    rows += [(freq, coef, np.full(len(freq), is_cos)) for freq, coef, is_cos in iter_S_rows(q, H)]
    freq, coef, is_cos = (np.concatenate(parts) for parts in zip(*rows))
    return VoronoiCoefficients(q=q, H=H, freq=freq, coef=coef, is_cos=is_cos)


def eval_S_streaming(q: int, H: float, x: np.ndarray) -> np.ndarray:
    """S_{q,H}(x) without materializing the full term list.

    Memory stays bounded by one row (about _S_WINDOW terms at most), which matters
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

    Sine rows belong to t_chi and cosine (twisted) rows to t_chi_upper;
    frequencies are h/d over moduli sqrt(H) < d <= H and 1 <= h <= H/d.
    Cosine rows keep odd h only, where chi4(h) is nonzero.  Every (d, h)
    pair is formed in one array pass and one tau call, and each modulus's
    row is a slice of it; the per-modulus scalars amp * factor and
    d^(q - 1.5) stay Python floats, so each row equals a per-modulus build
    bit for bit.  The pairs, about (H/2) log H of them (11,603 at H = 3200),
    are held at once: far less than the O(H^2) terms of iter_S_rows before them.
    """
    amp = _amplitude_constant(q)
    mods = []
    for d in range(math.isqrt(math.floor(H)) + 1, math.floor(H) + 1):
        factor, twisted = _branch(d, q)
        if factor:
            mods.append((d, amp * factor, d ** (q - 1.5), twisted))
    if not mods:
        return
    d, scale, d_pow, twisted = (np.array(col) for col in zip(*mods))
    h_top = np.floor(H / d).astype(np.int64)
    h = np.arange(1, h_top.sum() + 1) - np.repeat(np.cumsum(h_top) - h_top, h_top)
    tw = np.repeat(twisted, h_top)
    k = tau(h / np.repeat(h_top + 1, h_top)) / (np.repeat(d_pow, h_top) * h**1.5)
    coef = np.repeat(scale, h_top) * np.where(tw, _chi4_array(h), 1.0) * k
    keep = ~tw | (h % 2 == 1)
    freq, coef = (h / np.repeat(d, h_top))[keep], coef[keep]
    ends = np.cumsum(np.where(twisted, (h_top + 1) // 2, h_top)).tolist()
    for lo, hi, is_cos in zip([0, *ends], ends, twisted.tolist()):
        yield freq[lo:hi], coef[lo:hi], is_cos


@dataclass
class GapReport:
    """Mean-square gap to S_{q,H} and what it was computed from."""

    gap: float
    H: float
    samples: int
    den: int
    terms: int


def gap_report(series: ErrorSample, H: float | None = None) -> GapReport:
    """Mean square of (normalized error - S_{q,H}) over the sampled window [X, 2X].

    With H = X^2/2, the default, this decays like X^-2 log^4 X.  For q = 3 the
    two short tail sums of the decomposition are subtracted as well.  The sums
    run on the sample's grid x = num/den by _chirp_sum; terms counts their terms.
    ValueError unless H is finite and >= 0; below 1, S has no terms.
    """
    q, X = series.q, series.X
    if H is None:
        H = X * X / 2
    if not 0 <= H < math.inf:
        raise ValueError(f"need a finite H >= 0, got H = {H}")
    rows = iter_S_rows(q, H)
    if q == 3:
        rows = itertools.chain(rows, _T_rows(q, H))
    approx, terms = _chirp_sum(rows, series.num, series.den)
    gap = float(np.mean((series.err - approx) ** 2))
    return GapReport(gap=gap, H=H, samples=series.n, den=series.den, terms=terms)


def mean_square_gap(
    q: int,
    tables: ArithTables,
    X: int,
    n_samples: int = 200,
    H: float | None = None,
) -> float:
    """Mean square of (normalized error - S_{q,H}) over [X, 2X]: gap_report's gap."""
    return gap_report(sample_errors(q, tables, X, n_samples), H).gap
