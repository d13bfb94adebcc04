"""Almost periodic components of the limiting error profile.

For each squarefree m free of prime factors p = 3 mod 4 there is a component
phi_m(t): a double series over moduli d and integers k of phases
sin/cos(2 pi (k/d) t - pi/4) weighted by representation counts of m k^2.
Truncated at d <= d_max the component is a trigonometric polynomial with
exact rational frequencies k/d and period lcm(1..d_max); its terms merge
into one spectrum, which its evaluators and the ergodic moments read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arithmetic import (
    _branch,
    has_prime_factor_3_mod_4,
    is_squarefree,
    r2_weighted,
    r2_weighted_chi,
    rho_chi_q,
    rho_q,
    two_square_reps,
)

# term x point elements per block of _trig_sum.  On partial_sum_phi at 4000
# points, larger blocks ran no faster, and 2^16 and 2^20 raised the
# tracemalloc peak from 0.42 MB to 1.2 and 17 MB.
_TRIG_BLOCK = 2**14


def _amplitudes(coef, is_cos) -> np.ndarray:
    """Complex a with Re(a e^{2 pi i f t}) = coef sin(2 pi f t - pi/4), or cos where is_cos.

    The one place the phase convention of phi_m and S_{q,H} is written down.
    """
    return coef * (np.exp(-1j * math.pi / 4) * np.where(is_cos, 1, -1j))


def _trig_sum(freq: np.ndarray, amp: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Re sum_j amp_j e^{2 pi i freq_j t} at each point of the 1-D array t.

    Evaluated as |amp| cos(2 pi freq t + arg amp) over blocks of at most
    _TRIG_BLOCK term x point elements, so the working memory beyond the
    output stays O(_TRIG_BLOCK) whatever the number of terms.
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


def component_vanishes(m: int) -> bool:
    """phi_m is identically zero unless m is squarefree with no p = 3 mod 4."""
    return not is_squarefree(m) or has_prime_factor_3_mod_4(m)


@dataclass
class PhiTruncation:
    """Term list of phi_m truncated to moduli d <= d_max and k <= k_max.

    Each term is coef * sin(2 pi (k/d) t - pi/4), or cosine when is_cos.  The
    evaluators read the merged spectrum().  Arrays are read-only: build_phi
    hands one cached object to every caller.
    """

    q: int
    m: int
    d_max: int
    k_max: int
    k: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    coef: np.ndarray = field(repr=False)
    is_cos: np.ndarray = field(repr=False)
    _spec: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def period(self) -> int:
        return math.lcm(*range(1, self.d_max + 1))

    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct reduced frequencies num/den and merged amplitudes a.

        phi(t) = Re sum a e^{2 pi i (num/den) t}, sorted by (den, num); a term
        adds its _amplitudes value.  Terms merge on the exact pair
        (num, den): units of 1/period overflow int64 from d_max = 43 on.
        """
        if self._spec is None:
            g = np.gcd(self.k, self.d)
            stride = self.k_max + 1
            keys, inv = np.unique(self.d // g * stride + self.k // g, return_inverse=True)
            den, num = np.divmod(keys, stride)
            z = _amplitudes(self.coef, self.is_cos)
            a = np.bincount(inv, z.real, len(keys)) + 1j * np.bincount(inv, z.imag, len(keys))
            for arr in (num, den, a):
                arr.setflags(write=False)
            self._spec = (num, den, a)
        return self._spec

    def __call__(self, t) -> np.ndarray:
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        num, den, a = self.spectrum()
        out = _trig_sum(num / den, a, t)
        return out[0] if scalar else out

    def grid_values(self, n_points: int) -> np.ndarray:
        """Values at t_j = j * period / n_points for j = 0..n_points-1.

        n_points must be a multiple of the period; frequency num/den then
        sits on the integer bin f = num * period / den with its amplitude
        from spectrum(), and the grid is the real part of an inverse DFT of
        length n_points, exact for aliased bins too.  It runs as r inverse
        FFTs of length M = n_points / r, so the working memory stays O(M):
        samples j = c (mod r) see bin f at f mod M with the phase
        exp(2 pi i f c / n_points).
        """
        P = self.period
        if n_points % P:
            raise ValueError("n_points must be a multiple of the period")
        r = 1
        while n_points % (2 * r) == 0 and n_points // (2 * r) >= 2**15:
            r *= 2
        M = n_points // r
        num, den, z = self.spectrum()
        f = num * (P // den) % n_points
        bins = f % M
        out = np.empty(n_points)
        for c in range(r):
            zc = z * np.exp(2j * math.pi * (f * c % n_points) / n_points)
            spec = np.bincount(bins, zc.real, M) + 1j * np.bincount(bins, zc.imag, M)
            out[c::r] = (M * np.fft.ifft(spec)).real
        return out


@lru_cache(maxsize=None)
def _reps_cached(n: int) -> tuple:
    return tuple(two_square_reps(n))


@lru_cache(maxsize=None)
def build_phi(q: int, m: int, d_max: int = 128, k_max: int = 128) -> PhiTruncation:
    """Assemble the truncated term list of phi_m, once per argument tuple."""
    if q < 3 or m < 1:
        raise ValueError("need q >= 3 and m >= 1")
    ks, ds, coefs, coss = [], [], [], []
    if not component_vanishes(m):
        pref = amplitude_prefactor(q) * (1.0 / m**0.75)
        for d in range(1, d_max + 1):
            factor, twisted = _branch(d, q)
            if not factor:
                continue
            weight = r2_weighted_chi if twisted else r2_weighted
            for k in range(1, k_max + 1):
                w = weight(m * k * k, d, q, _reps_cached(m * k * k))
                if w:
                    ks.append(k)
                    ds.append(d)
                    coefs.append(pref * factor * w / (d ** (q - 1.5) * k**1.5))
                    coss.append(twisted)
    arrays = (np.array(ks, np.int64), np.array(ds, np.int64))
    arrays += (np.array(coefs, float), np.array(coss, bool))
    for arr in arrays:
        arr.setflags(write=False)
    return PhiTruncation(q, m, d_max, k_max, *arrays)


def amplitude_prefactor(q: int) -> float:
    """Prefactor of the phi series (absolute value, both parities)."""
    if q % 2 == 0:
        return rho_q(q) / (2 * math.pi)
    return 2 ** (q - 2) * rho_chi_q(q) / math.pi


def partial_sum_phi(q: int, M: int, x, d_max: int = 128, k_max: int = 128) -> np.ndarray:
    """Sum over m <= M of phi_m(sqrt(m) x^2), evaluated on an array of x.

    This is the Voronoi-type series' limit profile truncated to its first
    M components; its L2 distance (in x) to the normalized error shrinks
    as M grows.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.zeros_like(x)
    for m in range(1, M + 1):
        if not component_vanishes(m):
            out += build_phi(q, m, d_max, k_max)(math.sqrt(m) * x * x)
    return out
