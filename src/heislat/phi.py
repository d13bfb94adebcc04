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
    chi4,
    has_prime_factor_3_mod_4,
    is_squarefree,
    r2,
    r2_weighted,
    r2_weighted_chi,
    rho_chi_q,
    rho_q,
    two_square_reps,
    xi,
    zeta_value,
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
            # branch weight, representation count and phase of the modulus d
            if q % 2 == 0:
                branch, weight, isc = xi(d, q), r2_weighted, False
            elif d % 2:
                branch, weight, isc = chi4(d), r2_weighted, False
            else:
                branch = (d % 4 == 0) * (-1) ** ((q + 1) // 2) * 2**q
                weight, isc = r2_weighted_chi, True
            if not branch:
                continue
            for k in range(1, k_max + 1):
                w = weight(m * k * k, d, q, _reps_cached(m * k * k))
                if w:
                    ks.append(k)
                    ds.append(d)
                    coefs.append(pref * branch * w / (d ** (q - 1.5) * k**1.5))
                    coss.append(isc)
    arrays = (np.array(ks, np.int64), np.array(ds, np.int64))
    arrays += (np.array(coefs, float), np.array(coss, bool))
    for arr in arrays:
        arr.setflags(write=False)
    return PhiTruncation(q, m, d_max, k_max, *arrays)


@lru_cache(maxsize=None)
def divisor_counts(limit: int) -> np.ndarray:
    tau_arr = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        tau_arr[d::d] += 1
    return tau_arr


def _sum_tau_sq_partial(k_max: int) -> float:
    tau_arr = divisor_counts(k_max)[1:].astype(np.float64)
    k = np.arange(1, k_max + 1, dtype=np.float64)
    return float(np.sum(tau_arr**2 / k**1.5))


def _modulus_weight_sums(q: int, d_max: int) -> tuple[float, float]:
    """(partial, tail) of sum over d of |branch weight| d^(3/2-q).

    Branch weights: for even q, |xi(d;q)|; for odd q, |chi4(d)| on odd d and
    2^q on d = 0 mod 4.  Full sums reduce to zeta values.
    """
    s = q - 1.5
    z = zeta_value(s)
    if q % 2 == 0:
        full = (1 - 2.0**-s) * z  # d odd
        full += abs(xi(2, q)) * 2.0**-s * (1 - 2.0**-s) * z  # d = 2 mod 4
        full += abs(xi(4, q)) * 4.0**-s * z  # d = 0 mod 4
        partial = sum(abs(xi(d, q)) * d**-s for d in range(1, d_max + 1))
    else:
        full = (1 - 2.0**-s) * z + 2**q * 4.0**-s * z
        partial = 0.0
        for d in range(1, d_max + 1):
            if d % 2:
                partial += d**-s
            elif d % 4 == 0:
                partial += 2**q * d**-s
    return partial, max(full - partial, 0.0)


def amplitude_prefactor(q: int) -> float:
    """Prefactor of the phi series (absolute value, both parities)."""
    if q % 2 == 0:
        return rho_q(q) / (2 * math.pi)
    return 2 ** (q - 2) * rho_chi_q(q) / math.pi


def tail_bound_for(q: int, m: int, d_max: int, k_max: int) -> float:
    """Bound on the sup-norm of the terms dropped by the (d_max, k_max) box.

    Uses |r2(m k^2, d; q)| <= r2(m) tau(k)^2, valid for the contributing m
    (squarefree, no prime factor 3 mod 4), and exact zeta expressions for
    the completed k and d sums.
    """
    if component_vanishes(m):
        return 0.0
    k_full = zeta_value(1.5) ** 4 / zeta_value(3.0)  # sum of tau(k)^2 / k^(3/2)
    k_part = _sum_tau_sq_partial(k_max)
    k_tail = max(k_full - k_part, 0.0)
    d_part, d_tail = _modulus_weight_sums(q, d_max)
    dropped = d_part * k_tail + d_tail * k_full
    return amplitude_prefactor(q) * r2(m) / m**0.75 * dropped


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
