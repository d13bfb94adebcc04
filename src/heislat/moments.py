"""Integral moments of the almost periodic components and of the density.

Q(m, l) denotes the mean of phi_m^l over long intervals.  Three routes are
implemented: the analytic moment formula (the _frak_items spectrum of frak_r
coefficients) and the ergodic mean of the truncated component (its merged
spectrum), which both take the zero bin of an l-fold convolution of one
(num, den, amp) spectrum format (_power_mean, numpy steps on exact int64
frequency keys mod 2^61 - 1), and a closed-form double series for l = 2.
All three estimate their error by one rule (_moment) against a coarser box.
The moments of the limiting density follow from the Q(m, l) by one cumulant
ledger: the components are independent, so their cumulants add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arithmetic import (
    BudgetError,
    _branch_weights,
    _chi4_array,
    _frak_branch,
    _frozen,
    _rep_weight,
    eps_sign,
    rep_weights,
    zeta_value,
)
from .phi import _merge, build_phi, component_vanishes, contributing_m


@dataclass
class MomentValue:
    """A computed moment with an error estimate and provenance tag."""

    value: float
    error: float
    method: str
    meta: dict = field(default_factory=dict)


def _moment_prefactor(q: int, ell: int, m: int) -> float:
    """(-1)^l (pi^(q-1) / (4 Gamma(q)))^l / m^(3l/4), the prefactor of Q(m, l); variance_series takes twice it."""
    return (-1) ** ell * (math.pi ** (q - 1) / (4 * math.gamma(q))) ** ell / m ** (0.75 * ell)


@lru_cache(maxsize=None)
def _frak_items(q: int, m: int, d_max: int, k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The analytic spectrum (num, den, amp) = (eps(d) k, d, w (1 + i)), d-major.

    One item per nonzero frak_r(m k^2, d), the _frak_branch factor times a rep_weights
    weight, in the box with gcd(k, d) = 1, and w = frak_r / (d^(q-1.5) k^1.5).
    w (1 + i) = sqrt(2) w e^{i pi/4}, so phase products stay exact; q_analytic
    divides the sqrt(2) factors out once.
    """
    d, k = np.arange(1, d_max + 1), np.arange(1, k_max + 1)
    factor, weight, _ = _branch_weights(rep_weights(q, m * k * k, d_max), q, _frak_branch)
    frak = (factor * weight).T
    dd, kk = np.nonzero(np.where(np.gcd.outer(d, k) == 1, frak, 0.0))
    w = frak[dd, kk] / ((dd + 1.0) ** (q - 1.5) * (kk + 1.0) ** 1.5)
    return _frozen(eps_sign(dd + 1, q) * (kk + 1), dd + 1, w * (1 + 1j))


_BUDGET = 4_000_000  # products per convolution step, for both Q(m, l) routes
_KEY_PRIME = 2**61 - 1  # frequency keys are residues mod this Mersenne prime
# products per block of one convolution step: a block's keys, products and
# lookups take about 100 bytes a product, so under 1 MB whatever the step
_PRODUCT_BLOCK = 2**13


def _negated(keys: np.ndarray) -> np.ndarray:
    """The keys of the negated frequencies."""
    return (_KEY_PRIME - keys) % _KEY_PRIME


def _outer_blocks(keys_a, vals_a, keys_b, vals_b):
    """The keys (a + b mod _KEY_PRIME) and products of every pair, in blocks of about _PRODUCT_BLOCK pairs."""
    rows = max(1, _PRODUCT_BLOCK // len(keys_b))
    for lo in range(0, len(keys_a), rows):
        keys = np.add.outer(keys_a[lo : lo + rows], keys_b).ravel()
        np.subtract(keys, _KEY_PRIME, out=keys, where=keys >= _KEY_PRIME)
        yield keys, np.multiply.outer(vals_a[lo : lo + rows], vals_b).ravel()


def _power_mean(num: np.ndarray, den: np.ndarray, amp: np.ndarray, ell: int) -> complex:
    """Zero bin of the ell-fold convolution, ell >= 2, of the spectrum {num/den: amp, -num/den: conj amp}.

    A frequency n/d has the exact key n d^-1 mod p, p = _KEY_PRIME prime, and
    keys add mod p.  A sum of ell frequencies with |n| <= n_max and d <= R is
    N/L with L = lcm of its denominators <= R^ell and |N| <= ell n_max L; its
    key is N L^-1 mod p, zero exactly when N is, if ell n_max R^ell < p.  The
    same bound makes distinct sums of at most ell/2 frequencies distinct keys;
    where it fails, BudgetError.  With half = spec^{*floor(l/2)}, each step an
    outer key sum merged by np.unique and np.bincount, the zero bin is
    sum_f half[f] half[-f] for even l (2 sum |amp|^2 at l = 2, the
    frequencies being distinct and nonzero) and
    sum_{f,g} half[f] spec[g] half[-f-g] for odd l, -f and -f-g looked up by
    np.searchsorted.  _BUDGET bounds the products of one step,
    len(half) * len(spec), and BudgetError is raised before a step exceeds
    it; a step runs in blocks of _PRODUCT_BLOCK products.
    """
    if ell * int(np.max(np.abs(num), initial=0)) * int(np.max(den, initial=1)) ** ell >= _KEY_PRIME:
        raise BudgetError(f"frequency keys mod 2^61 - 1 cannot certify a zero sum of {ell} terms in this box")
    inverse = {d: pow(d, -1, _KEY_PRIME) for d in set(den.tolist())}
    key = np.array([n * inverse[d] % _KEY_PRIME for n, d in zip(num.tolist(), den.tolist())], np.int64)
    spec = _merge(np.concatenate([key, _negated(key)]), np.concatenate([amp, amp.conj()]))

    def check_budget(n_half: int) -> None:
        if n_half * len(spec[0]) > _BUDGET:
            raise BudgetError(f"{n_half} x {len(spec[0])} products exceed the convolution budget {_BUDGET}")

    def half_at(keys: np.ndarray) -> np.ndarray:
        i = np.minimum(np.searchsorted(half[0], keys), len(half[0]) - 1)
        return np.where(half[0][i] == keys, half[1][i], 0)

    half = spec
    for _ in range(ell // 2 - 1):
        check_budget(len(half[0]))
        blocks = [_merge(*block) for block in _outer_blocks(*half, *spec)]
        half = _merge(*(np.concatenate(part) for part in zip(*blocks)))
    if ell % 2 == 0:
        return complex(np.sum(half[1] * half_at(_negated(half[0]))))
    check_budget(len(half[0]))
    # keys of -f-g, with the products half[f] spec[g]
    blocks = _outer_blocks(_negated(half[0]), half[1], _negated(spec[0]), spec[1])
    return complex(sum(np.sum(vals * half_at(keys)) for keys, vals in blocks))


def _halved(d_max: int, k_max: int) -> tuple[int, int]:
    """The coarse box of the analytic and closed routes: both depths halved."""
    if d_max < 4 or k_max < 4:
        raise ValueError(f"box ({d_max}, {k_max}) has no halved box for its error estimate; both need >= 4")
    return d_max // 2, k_max // 2


def _modulus_step(d_mod: int, k_max: int) -> tuple[int, int]:
    """The coarse box of q_ergodic and of density's truncation_residual: (d_mod - 2, k_max / 2)."""
    if d_mod < 4 or k_max < 8:
        raise ValueError(f"box ({d_mod}, {k_max}) has no coarser box for its error estimate; need d_mod >= 4, k_max >= 8")
    return d_mod - 2, k_max // 2


def _moment(method: str, m: int, ell: int, box: tuple, ladder, prepare) -> MomentValue:
    """Q(m, l) = value_at(*box) by one route, with the one error rule of all three.

    Exact zeros, of a vanishing phi_m or at l = 1, hold at any box.  Otherwise
    the route's ladder, _halved or _modulus_step, gives its next coarser box
    and raises ValueError where there is none; only then does prepare() build
    the route's tables and return (value_at, meta).  The error is
    1e-12 (1 + |v|) + 2 |v - value_at(*ladder(*box))|.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if component_vanishes(m):
        return MomentValue(0.0, 0.0, method, {"vanishes": True})
    if ell == 1:
        return MomentValue(0.0, 0.0, method, {"exact": True})
    coarse = ladder(*box)
    value_at, meta = prepare()
    value = value_at(*box)
    return MomentValue(value, 1e-12 * (1 + abs(value)) + 2 * abs(value - value_at(*coarse)), method, meta)


def q_analytic(q: int, m: int, ell: int, d_max: int = 16, k_max: int = 16) -> MomentValue:
    """Q(m, l) from the analytic moment formula, as one spectrum convolution.

    The formula sums prod w_i cos(pi/4 sum e_i) over ordered l-tuples of box
    items (d_i, k_i) and signs e_i = +-1 whose frequencies e_i eps(d_i) k_i/d_i
    add up to zero exactly, with w = frak_r / (d^(q-1.5) k^1.5).  Since
    cos(pi/4 sum e_i) = Re prod e^{i pi e_i/4}, the sum is the real part of
    the _power_mean of the _frak_items spectrum.  Its ladder is _halved.
    """

    def value_at(d, k):
        return _moment_prefactor(q, ell, m) * _power_mean(*_frak_items(q, m, d, k), ell).real / 2 ** (ell / 2)

    def prepare():
        return value_at, {"d_max": d_max, "k_max": k_max, "terms": len(_frak_items(q, m, d_max, k_max)[0])}

    return _moment("analytic", m, ell, (d_max, k_max), _halved, prepare)


def q2_closed(q: int, m: int, d_max: int = 40, k_max: int = 40) -> MomentValue:
    """Q(m, 2) = _moment_prefactor(q, 2, m) sum |amp|^2 over the _frak_items, summed directly.

    q_analytic at l = 2 takes it through _power_mean.  For squarefree m the
    items' gcd(k, d) = 1 keeps the double series' gcd(m k^2, d) = 1 terms: p | d, m
    and not k makes d | b force p^2 | m k^2.  Its ladder is _halved, the corner
    den <= d, |num| <= k of the same list (that change dominates the tail).
    """

    def value_at(d_top, k_top):
        num, den, amp = _frak_items(q, m, d_max, k_max)
        corner = amp[(den <= d_top) & (np.abs(num) <= k_top)]
        return _moment_prefactor(q, 2, m) * float(np.vdot(corner, corner).real)

    meta = {"d_max": d_max, "k_max": k_max}
    return _moment("closed2", m, 2, (d_max, k_max), _halved, lambda: (value_at, meta))


def q_ergodic(q: int, m: int, ell: int, d_mod: int = 8, k_max: int = 64) -> MomentValue:
    """Q(m, l) as the mean of phi_m^l over one exact period, with no grid.

    The truncated component phi(t) = Re sum a e^{2 pi i f t}
    (PhiTruncation.spectrum) is sum a/2 e^{2 pi i f t} + conj(a)/2 e^{-2 pi i f t},
    so the mean of phi^l is the _power_mean of the spectrum with amplitudes
    a/2 (BudgetError at l >= 5 in the default box).  Its ladder is
    _modulus_step.
    """

    def value_at(d, k):
        num, den, amp = build_phi(q, m, d, k).spectrum()
        return _power_mean(num, den, amp / 2, ell).real

    def prepare():
        trunc = build_phi(q, m, d_mod, k_max)
        return value_at, {"period": trunc.period, "frequencies": len(trunc.spectrum()[0])}

    return _moment("ergodic", m, ell, (d_mod, k_max), _modulus_step, prepare)


def third_moment_sum(q: int, m_max: int = 50, d_max: int = 16, k_max: int = 16) -> MomentValue:
    """Sum over m <= m_max of Q(m, 3) with aggregated truncation error.

    Every individual Q(m, 3) is nonpositive, so the omitted m > m_max tail
    can only push the total further below zero.
    """
    total = 0.0
    err = 0.0
    per_m = {}
    for m in contributing_m(m_max):
        mv = q_analytic(q, m, 3, d_max, k_max)
        per_m[m] = mv.value
        total += mv.value
        err += mv.error
    return MomentValue(total, err, "analytic-sum", {"per_m": per_m})


VARIANCE_N_LIMIT = 200_000


def _octave_tail(top: float) -> float:
    """The remainder past a series' top octave, when each octave is 2^-1/2 of the one before."""
    return top / (math.sqrt(2) - 1)


def variance_series(q: int, d_max: int = 15) -> MomentValue:
    """Sum over all m of Q(m, 2) from the direct double series.

    The series is c_q sum_{d <= d_max} f(d)^2 d^(3-2q) sum_n r_d(n)^2 n^(-3/2)
    over n <= VARIANCE_N_LIMIT coprime to d, with c_q = (pi^(q-1) /
    (2 Gamma(q)))^2 / 2, (f(d), twisted) = _frak_branch(d, q) and r_d(n) the
    sum of (a^2/n)^((q-1)/2), times chi4(a) where twisted, over the (a, b)
    in Z^2 with a^2 + b^2 = n and d | b.  One b-major sieve of the pairs
    a, b >= 0 with a^2 + b^2 <= VARIANCE_N_LIMIT (157,528 at the default
    2e5) serves every d: modulus d reads only its rows b = 0 mod d, about
    1/d of the pairs, tests gcd(n, d) = 1 as gcd(a, d) = 1, and bins into
    the 46,450 distinct representable n.  A cold call at the default box
    takes about 16 ms on a 2-core x86_64.  The n-tail estimate is empirical
    (fitted log n / sqrt(n) shape, _octave_tail); the d-tail uses the
    majorant.  The series is summed once per (q, d_max, n_limit), with
    VARIANCE_N_LIMIT read at each call; every call returns a fresh
    MomentValue.  q < 3 or d_max < 1 raises ValueError before any sieving.
    """
    if q < 3:
        raise ValueError("need q >= 3")
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    value, err = _variance_series(q, d_max, VARIANCE_N_LIMIT)
    return MomentValue(value, err, "direct-series", {"n_limit": VARIANCE_N_LIMIT, "d_max": d_max})


@lru_cache(maxsize=None)
def _variance_series(q: int, d_max: int, n_limit: int) -> tuple[float, float]:
    top = math.isqrt(n_limit)
    # the pairs b-major: row b holds a = 0..isqrt(n_limit - b^2) from offset
    # start[b]; pair 0, (0, 0), is left out of the pair arrays
    width = np.array([math.isqrt(n_limit - b * b) + 1 for b in range(top + 1)])
    start = np.cumsum(width) - width
    B = np.repeat(np.arange(top + 1), width)[1:]
    A = np.arange(1, len(B) + 1) - start[B]
    N = A * A + B * B
    seen = np.zeros(n_limit + 1, dtype=bool)
    seen[N] = True
    n_pow = np.flatnonzero(seen).astype(np.float64) ** -1.5  # on the distinct representable n
    W = np.where(A > 0, 2.0, 1.0) * np.where(B > 0, 2.0, 1.0) * _rep_weight(A.astype(np.float64), N, q)
    n_bin = (np.cumsum(seen) - 1)[N]  # each pair's bin among those n
    a = np.arange(top + 1)
    half_pref = 2 * _moment_prefactor(q, 2, 1)
    s = 2 * q - 3
    total = d_partial = 0.0
    for d in range(1, d_max + 1):
        factor, twisted = _frak_branch(d, q)
        if not factor:
            continue
        d_partial += factor**2 * d**-s
        # the rows b = 0 mod d, from row 0 on, less pair 0; as d | b, a prime
        # p | d divides n = a^2 + b^2 iff p | a
        rows = width[::d]
        sel = (np.arange(rows.sum()) + np.repeat(start[::d] - np.cumsum(rows) + rows, rows))[1:] - 1
        per_a = (np.gcd(a, d) == 1) * (_chi4_array(a) if twisted else 1.0)
        r2d = np.bincount(n_bin[sel], W[sel] * per_a[A[sel]], len(n_pow))
        terms = r2d**2 * n_pow
        contrib = float(np.sum(terms))
        total += factor**2 * contrib / d**s
        if d == 1:
            sub_first = contrib
            octave = float(np.sum(terms[np.count_nonzero(seen[: n_limit // 2]) :]))
    value = half_pref * total
    # n-tail estimate: the d = 1 series has a c log(t)/t^(3/2) density, so
    # each octave holds about 2^-1/2 of the one before
    tail_n = half_pref * _octave_tail(octave)
    z = zeta_value(s)
    d_full = (1 - 2.0**-s) * z + 2 ** (2 * q) * 4.0**-s * z
    tail_d = max(d_full - d_partial, 0.0) * sub_first
    return value, half_pref * tail_d + tail_n


def density_moment(
    q: int, j: int, m_max: int = 300, d_max: int = 16, k_max: int = 16
) -> MomentValue:
    """j-th moment of the limiting density from one cumulant ledger.

    The limit law is the law of sum_m phi_m with independent components, so
    its cumulants add.  For every non-vanishing m <= m_max the moments
    mu_l = Q(m, l) (q2_closed for l = 2, q_analytic for l >= 3, mu_1 = 0)
    become cumulants kappa_n(m) by the moment-cumulant recursion; the sums
    K_n = sum_m kappa_n(m) are the law's cumulants, and the same recursion
    turns them into its moments M_j.  At j = 2 and 3, M_j = K_j =
    sum_m Q(m, j).

    Errors propagate through both recursions to first order in absolute
    values.  Each K_n also carries an m-tail estimate: the _octave_tail of
    the top octave m_max/2 < m <= m_max of |kappa_n(m)| (the n = 2 tail
    decays like log(m)/sqrt(m), higher orders faster).  ValueError for j < 0 or m_max < 1.
    """
    if j < 0 or m_max < 1:
        raise ValueError(f"need j >= 0 and m_max >= 1, got j = {j}, m_max = {m_max}")
    ms = contributing_m(m_max)
    zeros = np.zeros(len(ms))
    mu, dmu = [np.ones(len(ms)), zeros], [zeros, zeros]
    for ell in range(2, j + 1):
        mvs = [
            q2_closed(q, m, d_max=max(d_max, 24), k_max=max(k_max, 24))
            if ell == 2
            else q_analytic(q, m, ell, d_max, k_max)
            for m in ms
        ]
        mu.append(np.array([mv.value for mv in mvs]))
        dmu.append(np.array([mv.error for mv in mvs]))
    kappa, dkappa = _cumulants(mu, dmu)
    top = np.array(ms) > m_max // 2
    K = [float(np.sum(k)) for k in kappa]
    dK = [float(np.sum(e)) + _octave_tail(float(np.sum(np.abs(k[top])))) for k, e in zip(kappa, dkappa)]
    M, dM = _moments(K, dK)
    return MomentValue(M[j], dM[j], "cumulant", {"m_max": m_max, "j": j, "d_max": d_max, "k_max": k_max})


def _cumulants(mu: list, dmu: list) -> tuple[list, list]:
    """Cumulants kappa_0..kappa_j (kappa_0 = 0) of raw moments mu_0..mu_j (mu_0 = 1).

    kappa_n = mu_n - sum_{i<n} C(n-1, i-1) kappa_i mu_{n-i}, with the errors
    dmu carried to first order in absolute values.  Works elementwise on
    arrays.
    """
    kappa, dkappa = [0 * mu[0]], [0 * mu[0]]
    for n in range(1, len(mu)):
        c = {i: math.comb(n - 1, i - 1) for i in range(1, n)}
        kappa.append(mu[n] - sum(c[i] * kappa[i] * mu[n - i] for i in c))
        dkappa.append(
            dmu[n] + sum(c[i] * (abs(kappa[i]) * dmu[n - i] + dkappa[i] * abs(mu[n - i])) for i in c)
        )
    return kappa, dkappa


def _moments(K: list, dK: list) -> tuple[list, list]:
    """Raw moments M_0..M_j of cumulants K_1..K_j: the inverse of _cumulants, with errors."""
    M, dM = [1.0], [0.0]
    for n in range(1, len(K)):
        c = {i: math.comb(n - 1, i - 1) for i in range(1, n + 1)}
        M.append(sum(c[i] * K[i] * M[n - i] for i in c))
        dM.append(sum(c[i] * (dK[i] * abs(M[n - i]) + abs(K[i]) * dM[n - i]) for i in c))
    return M, dM
