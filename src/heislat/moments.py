"""Integral moments of the almost periodic components and of the density.

Q(m, l) denotes the mean of phi_m^l over long intervals.  Three routes are
implemented: the analytic moment formula (frak_r coefficients) and the
ergodic mean of the truncated component (its merged spectrum), which both
take the zero bin of an l-fold convolution of an exact frequency spectrum
(_zero_bin), and a closed-form double series for l = 2.  The moments of the
limiting density follow from the Q(m, l) by one cumulant ledger: the
components are independent, so their cumulants add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arithmetic import (
    BudgetError,
    _chi4_array,
    _frak_branch,
    _rep_weight,
    eps_sign,
    frak_r,
    two_square_reps,
    zeta_value,
)
from .phi import _reps_cached, build_phi, component_vanishes


@dataclass
class MomentValue:
    """A computed moment with an error estimate and provenance tag."""

    value: float
    error: float
    method: str
    meta: dict = field(default_factory=dict)


def _moment_prefactor(q: int, ell: int, m: int) -> float:
    return (-1) ** ell * (math.pi ** (q - 1) / (4 * math.gamma(q))) ** ell / m ** (0.75 * ell)


@lru_cache(maxsize=None)
def _frak_items(q: int, m: int, d_max: int, k_max: int) -> tuple:
    """Nonzero (d, k, frak_r) triples with gcd(k, d) = 1 in the box."""
    items = []
    for d in range(1, d_max + 1):
        if not _frak_branch(d, q)[0]:
            continue
        for k in range(1, k_max + 1):
            if math.gcd(k, d) != 1:
                continue
            val = frak_r(m * k * k, d, q, _reps_cached(m * k * k))
            if val:
                items.append((d, k, val))
    return tuple(items)


_BUDGET = 4_000_000  # products per convolution step, for both Q(m, l) routes


def _zero_bin(spec: dict, ell: int, budget: int) -> complex:
    """Zero bin of the ell-fold convolution of spec {integer frequency: amplitude}.

    With half = spec^{*floor(l/2)} by dict convolution, the zero bin is
    sum_f half[f] half[-f] for even l, sum_{f,g} half[f] spec[g] half[-f-g]
    for odd l.  budget bounds the products of one convolution step,
    len(half) * len(spec); BudgetError is raised before a step exceeds it.
    """
    if ell == 1:
        return spec.get(0, 0j)

    def check_budget(n_half: int) -> None:
        if n_half * len(spec) > budget:
            raise BudgetError(
                f"{n_half} x {len(spec)} products exceed the convolution budget {budget}"
            )

    half = spec
    for _ in range(ell // 2 - 1):
        check_budget(len(half))
        nxt: dict[int, complex] = {}
        for f, a in half.items():
            for g, b in spec.items():
                nxt[f + g] = nxt.get(f + g, 0) + a * b
        half = nxt
    if ell % 2 == 0:
        return sum(a * half.get(-f, 0) for f, a in half.items())
    check_budget(len(half))
    return sum(a * b * half.get(-f - g, 0) for f, a in half.items() for g, b in spec.items())


def q_analytic(
    q: int,
    m: int,
    ell: int,
    d_max: int = 16,
    k_max: int = 16,
    budget: int = _BUDGET,
    _estimate_error: bool = True,
) -> MomentValue:
    """Q(m, l) from the analytic moment formula, as one spectrum convolution.

    The formula sums prod w_i cos(pi/4 sum e_i) over ordered l-tuples of box
    items (d_i, k_i) and signs e_i = +-1 whose frequencies e_i eps(d_i) k_i/d_i
    add up to zero exactly, with w = frak_r / (d^(q-1.5) k^1.5).  Since
    cos(pi/4 sum e_i) = Re prod e^{i pi e_i/4}, the sum is the real part of
    the zero bin of the l-fold convolution of the spectrum
    spec = {e eps(d) k/d: w e^{i pi e/4}}, whose frequencies are kept as exact
    integers in units of 1/lcm(1..d_max); budget is that of _zero_bin.
    The error estimate is coarsening-based: twice the change observed when
    the box is halved.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if component_vanishes(m):
        return MomentValue(0.0, 0.0, "analytic", {"vanishes": True})
    if ell == 1:
        return MomentValue(0.0, 0.0, "analytic", {"exact": True})
    items = _frak_items(q, m, d_max, k_max)
    unit = math.lcm(*range(1, d_max + 1))
    spec = {}
    for d, k, v in items:
        w = v / (d ** (q - 1.5) * k**1.5)
        f = eps_sign(d, q) * k * (unit // d)
        # w (1 + ie) = sqrt(2) w e^{i pi e/4}: phase products stay exact, and
        # the sqrt(2) factors are divided out once at the end
        spec[f] = complex(w, w)
        spec[-f] = complex(w, -w)
    value = _moment_prefactor(q, ell, m) * _zero_bin(spec, ell, budget).real / 2 ** (ell / 2)
    err = 1e-12 * (1 + abs(value))
    if _estimate_error and d_max >= 4 and k_max >= 4:
        coarse = q_analytic(
            q, m, ell, d_max // 2, k_max // 2, budget, _estimate_error=False
        )
        err += 2 * abs(value - coarse.value)
    return MomentValue(value, err, "analytic", {"d_max": d_max, "k_max": k_max, "terms": len(items)})


def q2_closed(
    q: int, m: int, d_max: int = 40, k_max: int = 40, _estimate_error: bool = True
) -> MomentValue:
    """Q(m, 2) from the closed-form double series.

    The error estimate is coarsening-based: twice the change observed when
    the truncation depths are halved (the k-sum decays like k^-3 and the
    d-sum like d^(3-2q), so the halved-box change dominates the true tail).
    """
    if component_vanishes(m):
        return MomentValue(0.0, 0.0, "closed2", {"vanishes": True})
    moduli = [d for d in range(1, d_max + 1) if _frak_branch(d, q)[0]]
    # the odd-d and the d = 0 mod 4 series of the closed form, summed apart
    total = [0.0, 0.0]
    for k in range(1, k_max + 1):
        n = m * k * k
        reps = two_square_reps(n)
        for d in moduli:
            if math.gcd(d, n) == 1:
                total[d % 2] += frak_r(n, d, q, reps) ** 2 / (d ** (2 * q - 3) * k**3)
    pref = 0.5 * (math.pi ** (q - 1) / (2 * math.gamma(q))) ** 2 / m**1.5
    value = pref * (total[1] + total[0])
    err = 1e-12 * (1 + abs(value))
    if _estimate_error and d_max >= 4 and k_max >= 4:
        coarse = q2_closed(q, m, d_max // 2, k_max // 2, _estimate_error=False)
        err += 2 * abs(value - coarse.value)
    return MomentValue(value, err, "closed2", {"d_max": d_max, "k_max": k_max})


def q_ergodic(
    q: int, m: int, ell: int, d_mod: int = 8, k_max: int = 64, _estimate_error: bool = True
) -> MomentValue:
    """Q(m, l) as the mean of phi_m^l over one exact period, with no grid.

    The truncated component phi(t) = Re sum a e^{2 pi i f t}
    (PhiTruncation.spectrum) is sum a/2 e^{2 pi i f t} + conj(a)/2 e^{-2 pi i f t},
    so the mean of phi^l is the zero bin (_zero_bin, default budget of
    q_analytic, so BudgetError at l >= 5 in the default box) of the l-fold
    convolution of this two-sided spectrum, in exact units of 1/lcm(1..d_mod).
    The error estimate adds twice the change against a coarser component.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if component_vanishes(m):
        return MomentValue(0.0, 0.0, "ergodic", {"vanishes": True})
    trunc = build_phi(q, m, d_mod, k_max)
    P = trunc.period
    num, den, amp = trunc.spectrum()
    spec = {}
    for n, d, a in zip(num.tolist(), den.tolist(), amp.tolist()):
        spec[n * (P // d)] = a / 2
        spec[-n * (P // d)] = a.conjugate() / 2
    value = _zero_bin(spec, ell, _BUDGET).real
    err = 1e-12 * (1 + abs(value))
    if _estimate_error and d_mod >= 4 and k_max >= 8:
        coarse = q_ergodic(
            q, m, ell, max(d_mod - 2, 2), k_max // 2, _estimate_error=False
        )
        err += 2 * abs(value - coarse.value)
    return MomentValue(value, err, "ergodic", {"period": P, "frequencies": len(num)})


def third_moment_sum(q: int, m_max: int = 50, d_max: int = 16, k_max: int = 16) -> MomentValue:
    """Sum over m <= m_max of Q(m, 3) with aggregated truncation error.

    Every individual Q(m, 3) is nonpositive, so the omitted m > m_max tail
    can only push the total further below zero.
    """
    total = 0.0
    err = 0.0
    per_m = {}
    for m in range(1, m_max + 1):
        if component_vanishes(m):
            continue
        mv = q_analytic(q, m, 3, d_max, k_max)
        per_m[m] = mv.value
        total += mv.value
        err += mv.error
    return MomentValue(total, err, "analytic-sum", {"per_m": per_m})


VARIANCE_N_LIMIT = 200_000


def variance_series(q: int, d_max: int = 15) -> MomentValue:
    """Sum over all m of Q(m, 2) from the direct double series.

    Computed by sieving all two-squares representations up to
    VARIANCE_N_LIMIT and accumulating the weighted counts per modulus.  The
    n-tail estimate is empirical (fitted log n / sqrt(n) shape); the d-tail
    uses the majorant.  The series is summed once per (q, d_max); every
    call returns a fresh MomentValue.
    """
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    value, err = _variance_series(q, d_max)
    return MomentValue(value, err, "direct-series", {"n_limit": VARIANCE_N_LIMIT, "d_max": d_max})


@lru_cache(maxsize=None)
def _variance_series(q: int, d_max: int) -> tuple[float, float]:
    n_limit = VARIANCE_N_LIMIT
    amax = math.isqrt(n_limit)
    a_list, b_list = [], []
    for a in range(amax + 1):
        bmax = math.isqrt(n_limit - a * a)
        b = np.arange(0, bmax + 1, dtype=np.int64)
        a_list.append(np.full(len(b), a, dtype=np.int64))
        b_list.append(b)
    A = np.concatenate(a_list)
    B = np.concatenate(b_list)
    N = A * A + B * B
    keep = N >= 1
    A, B, N = A[keep], B[keep], N[keep]
    mult = np.where(A > 0, 2.0, 1.0) * np.where(B > 0, 2.0, 1.0)
    W = mult * _rep_weight(A.astype(np.float64), N, q)

    half_pref = 0.5 * (math.pi ** (q - 1) / (2 * math.gamma(q))) ** 2
    n = np.arange(n_limit + 1, dtype=np.float64)
    n[0] = 1.0
    total = 0.0
    for d in range(1, d_max + 1):
        factor, twisted = _frak_branch(d, q)
        if not factor:
            continue
        sel = B % d == 0
        r2d = np.zeros(n_limit + 1)
        weights = W[sel] * _chi4_array(A[sel]) if twisted else W[sel]
        np.add.at(r2d, N[sel], weights)
        coprime = np.ones(n_limit + 1, dtype=bool)
        for p in range(2, d + 1):  # every divisor p > 1 of d; primes would suffice
            if d % p == 0:
                coprime[::p] = False
        terms = r2d[coprime] ** 2 * n[coprime] ** -1.5
        contrib = float(np.sum(terms))
        total += factor**2 * contrib / d ** (2 * q - 3)
        if d == 1:
            sub_first = contrib
            octave = float(np.sum(terms[n_limit // 2 :]))
    value = half_pref * total
    # n-tail estimate: the d = 1 series has a c log(t)/t^(3/2) density, whose
    # mass in the top octave [n/2, n] is about (sqrt(2) - 1) of the remainder
    tail_n = half_pref * octave / (math.sqrt(2) - 1)
    s = 2 * q - 3
    z = zeta_value(s)
    d_full = (1 - 2.0**-s) * z + 2 ** (2 * q) * 4.0**-s * z
    d_partial = sum(dd**-s for dd in range(1, d_max + 1, 2)) + 2 ** (2 * q) * sum(
        dd**-s for dd in range(4, d_max + 1, 4)
    )
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
    values.  Each K_n also carries an m-tail estimate: the top octave
    m_max/2 < m <= m_max of |kappa_n(m)| as a proxy for the remainder mass
    (the n = 2 tail decays like log(m)/sqrt(m), higher orders faster).
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    ms = [m for m in range(1, m_max + 1) if not component_vanishes(m)]
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
    dK = [
        float(np.sum(e)) + float(np.sum(np.abs(k[top]))) / (math.sqrt(2) - 1)
        for k, e in zip(kappa, dkappa)
    ]
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
