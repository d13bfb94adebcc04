"""Almost periodic components of the limiting error profile.

For each squarefree m free of prime factors p = 3 mod 4 there is a component
phi_m(t): a double series over moduli d and integers k of phases
sin/cos(2 pi (k/d) t - pi/4) weighted by representation counts of m k^2.
Truncated at d <= d_max the component is a trigonometric polynomial with
exact rational frequencies k/d; its terms merge into one spectrum, which its
evaluators and the ergodic moments read, and its period is the lcm of the
spectrum's denominators, for every m > 1 far below lcm(1..d_max).  Off its
period grid a component is a polynomial in e^{2 pi i t/den} for each
denominator, which PhiTruncation.__call__ evaluates by Horner's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arithmetic import _branch, _branch_weights, _frozen, rep_weights, rho_chi_q, rho_q

# points per block of PhiTruncation.__call__, about 40 bytes of working memory
# each (t mod den, z and the Horner accumulator).  On partial_sum_phi at 4000
# points, 2^10 points per block ran 1.5x slower and 2^14 no faster.
_PHI_BLOCK = 2**12


def _amplitudes(coef, is_cos) -> np.ndarray:
    """Complex a with Re(a e^{2 pi i f t}) = coef sin(2 pi f t - pi/4), or cos where is_cos.

    The one place the phase convention of phi_m and S_{q,H} is written down.
    """
    return coef * (np.exp(-1j * math.pi / 4) * np.where(is_cos, 1, -1j))


def component_vanishes(m: int) -> bool:
    """phi_m is identically zero unless m is squarefree with no prime p = 3 mod 4.

    One trial-division pass: True at the first prime that divides m twice or
    is 3 mod 4; what is left after the loop is 1 or a prime.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0 or p % 4 == 3:
                return True
        p += 1 if p == 2 else 2
    return m % 4 == 3


def contributing_m(m_max: int) -> list[int]:
    """The m <= m_max whose component phi_m does not vanish."""
    return [m for m in range(1, m_max + 1) if not component_vanishes(m)]


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
        """The lcm of the spectrum's denominators, an integer period of phi."""
        return math.lcm(1, *self.spectrum()[1].tolist())

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
            self._spec = _frozen(num, den, a)
        return self._spec

    def __call__(self, t) -> np.ndarray:
        """phi(t) at each point of t, a scalar for a scalar t.

        For each reduced denominator D the spectrum() terms are a_n z^n with
        z = e^{2 pi i t/D}.  For t >= 0, np.mod(t, D) is the floating-point
        remainder, exact in float64; for t < 0 it adds D to that exact
        negative remainder once, rounding by at most half an ulp of D.  So z
        costs one complex exp of a phase in [0, 2 pi] whatever t, and
        Re sum_n a_n z^n follows by Horner's rule from the largest numerator
        down.  Over blocks of _PHI_BLOCK points the working memory beyond the
        output stays O(_PHI_BLOCK).  The cost is one vectorised step per
        numerator up to each D's largest, sum_D max num Python steps whatever
        the number of points: 8760 for the 40 components of
        partial_sum_phi(3, 40, x, 64, 64).
        On a 2-core Xeon one point through them takes 12 ms, where one cos
        per term took 0.7 ms, and 4000 points take 0.06-0.08 s, where they
        took 0.47-0.53 s (0.10-0.11 s with np.fmod, 70-160 ns a point at
        t near 10^6 against 13 ns for np.mod).
        """
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        num, den, a = self.spectrum()
        # one (D, coefficients from the largest numerator down to 1) per denominator
        starts = np.flatnonzero(np.diff(den, prepend=0)).tolist()
        polys = []
        for i, j in zip(starts, [*starts[1:], len(den)]):
            coef = np.zeros(int(num[j - 1]), complex)
            coef[num[i:j] - 1] = a[i:j]
            polys.append((int(den[i]), coef[::-1].tolist()))
        out = np.zeros(len(t))
        size = min(len(t), _PHI_BLOCK)
        buffers = np.empty(size), np.empty(size, complex), np.empty(size, complex)
        for lo in range(0, len(t), _PHI_BLOCK):
            tb = t[lo : lo + _PHI_BLOCK]
            phase, z, acc = (buf[: len(tb)] for buf in buffers)
            for D, coef in polys:
                np.mod(tb, D, out=phase)
                phase *= 2 * math.pi / D
                np.cos(phase, out=z.real)
                np.sin(phase, out=z.imag)
                acc.fill(0)
                for c in coef:
                    if c:
                        acc += c
                    acc *= z
                out[lo : lo + _PHI_BLOCK] += acc.real
        return out[0] if scalar else out

    def grid_values(self, n_points: int, part=slice(None)) -> np.ndarray:
        """Values of the spectrum()[part] sum at t_j = j * P / n_points, j < n_points.

        P = lcm(1, *den[part]) is the part's own period (self.period for the
        whole spectrum) and n_points must be a multiple of it; frequency
        num/den then sits on the integer bin f = num * P / den mod n_points,
        exact for aliased bins too, and the grid is one real inverse FFT.
        Re(a e^{2 pi i f j/n}) = Re(conj(a) e^{2 pi i (n - f) j/n}) folds a
        bin above n/2 onto n - f; irfft doubles every bin but 0 and n/2, so
        those two weigh n and the rest n/2.
        """
        num, den, z = (arr[part] for arr in self.spectrum())
        P = math.lcm(1, *den.tolist())
        if n_points % P:
            raise ValueError("n_points must be a multiple of the period")
        f = num * (P // den) % n_points
        fold = f > n_points // 2
        f = np.where(fold, n_points - f, f)
        z = np.where(fold, z.conj(), z) * np.where((f == 0) | (2 * f == n_points), n_points, n_points / 2)
        spec = np.bincount(f, z.real, n_points // 2 + 1) + 1j * np.bincount(f, z.imag, n_points // 2 + 1)
        return np.fft.irfft(spec, n_points)


@lru_cache(maxsize=None)
def build_phi(q: int, m: int, d_max: int = 128, k_max: int = 128) -> PhiTruncation:
    """Assemble the truncated term list of phi_m, once per argument tuple.

    Terms run over d, then k, and keep every nonzero _branch factor times
    weight of m k^2 from one rep_weights table.
    """
    if q < 3 or m < 1:
        raise ValueError("need q >= 3 and m >= 1")
    if d_max < 1 or k_max < 1:
        raise ValueError("need d_max >= 1 and k_max >= 1")
    k = np.arange(1, 1 if component_vanishes(m) else k_max + 1)  # no terms when phi_m vanishes
    d = np.arange(1, d_max + 1)
    factor, w, twisted = _branch_weights(rep_weights(q, m * k * k, d_max), q, _branch)
    pref = amplitude_prefactor(q) * (1.0 / m**0.75)
    coef = (pref * factor * w).T / np.multiply.outer(d ** (q - 1.5), k**1.5)
    dd, kk = np.nonzero(coef)
    return PhiTruncation(q, m, d_max, k_max, *_frozen(k[kk], d[dd], coef[dd, kk], twisted[dd]))


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
    for m in contributing_m(M):
        out += build_phi(q, m, d_max, k_max)(math.sqrt(m) * x * x)
    return out
