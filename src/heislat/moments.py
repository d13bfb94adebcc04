"""Integral moments of the almost periodic components and of the density.

Q(m, l) denotes the mean of phi_m^l over long intervals.  Three routes are
implemented: an exact enumeration of the resonating frequency tuples from
the analytic moment formula, a closed-form double series for l = 2, and
ergodic averaging of the truncated component over one exact period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arithmetic import (
    BudgetError,
    _chi4_array,
    _rep_weight,
    eps_sign,
    frak_r,
    r2_weighted,
    r2_weighted_chi,
    two_square_reps,
    zeta_value,
)
from .phi import build_phi, component_vanishes


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
        if d % 4 == 2:
            continue
        for k in range(1, k_max + 1):
            if math.gcd(k, d) != 1:
                continue
            val = frak_r(m * k * k, d, q, two_square_reps(m * k * k))
            if val:
                items.append((d, k, val))
    return tuple(items)


def q_analytic(
    q: int,
    m: int,
    ell: int,
    d_max: int = 16,
    k_max: int = 16,
    budget: int = 4_000_000,
    _estimate_error: bool = True,
) -> MomentValue:
    """Q(m, l) by enumerating resonating tuples of the moment formula.

    Tuples (d_i, k_i) with signs e_i satisfy the exact rational constraint
    sum e_i eps(d_i) k_i / d_i = 0; the first l-1 items run over the
    truncation box and the last is solved for as a reduced fraction.  The
    error estimate is coarsening-based: twice the change observed when the
    box is halved.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if component_vanishes(m):
        return MomentValue(0.0, 0.0, "analytic", {"vanishes": True})
    if ell == 1:
        return MomentValue(0.0, 0.0, "analytic", {"exact": True})
    items = _frak_items(q, m, d_max, k_max)
    n_items = len(items)
    if n_items ** (ell - 1) > budget:
        raise BudgetError(
            f"{n_items}^{ell - 1} tuples exceed the enumeration budget {budget}"
        )
    lookup = {(d, k): v for d, k, v in items}
    eps = [0] + [eps_sign(d, q) for d in range(1, d_max + 1)]
    weights = {(d, k): v / (d ** (q - 1.5) * k**1.5) for d, k, v in items}
    cosv = [math.cos(a * math.pi / 4) for a in range(8)]

    # iterate over ordered (ell-1)-tuples of items and sign vectors
    def recurse(depth: int, esum: int, num: int, den: int, wprod: float) -> float:
        acc = 0.0
        if depth == ell - 1:
            # solve the last item: e * eps(d) * k/d = -(num/den)
            if num == 0:
                return 0.0
            sgn = -1 if num > 0 else 1
            p, r = abs(num), den
            g = math.gcd(p, r)
            p //= g
            r //= g
            if r > d_max or p > k_max:
                return 0.0
            val = lookup.get((r, p))
            if val is None:
                return 0.0
            e_last = sgn * eps[r]
            a = (esum + e_last) % 8
            w_last = val / (r ** (q - 1.5) * p**1.5)
            return cosv[a] * wprod * w_last
        for d, k, v in items:
            w = weights[(d, k)]
            f_num = eps[d] * k * den
            for e in (1, -1):
                nn = num * d + e * f_num
                acc += recurse(depth + 1, esum + e, nn, den * d, wprod * w)
        return acc

    total = recurse(0, 0, 0, 1, 1.0)
    value = _moment_prefactor(q, ell, m) * total
    err = 1e-12 * (1 + abs(value))
    if _estimate_error and d_max >= 4 and k_max >= 4:
        coarse = q_analytic(
            q, m, ell, d_max // 2, k_max // 2, budget, _estimate_error=False
        )
        err += 2 * abs(value - coarse.value)
    return MomentValue(value, err, "analytic", {"d_max": d_max, "k_max": k_max, "terms": n_items})


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
    s1 = 0.0
    s2 = 0.0
    for k in range(1, k_max + 1):
        n = m * k * k
        reps = two_square_reps(n)
        for d in range(1, d_max + 1, 2):
            if math.gcd(d, n) != 1:
                continue
            w = r2_weighted(n, d, q, reps)
            s1 += w * w / (d ** (2 * q - 3) * k**3)
        for d in range(4, d_max + 1, 4):
            if math.gcd(d, n) != 1:
                continue
            w = r2_weighted(n, d, q, reps) if q % 2 == 0 else r2_weighted_chi(n, d, q, reps)
            s2 += w * w / (d ** (2 * q - 3) * k**3)
    pref = 0.5 * (math.pi ** (q - 1) / (2 * math.gamma(q))) ** 2 / m**1.5
    value = pref * (s1 + 2 ** (2 * q) * s2)
    err = 1e-12 * (1 + abs(value))
    if _estimate_error and d_max >= 4 and k_max >= 4:
        coarse = q2_closed(q, m, d_max // 2, k_max // 2, _estimate_error=False)
        err += 2 * abs(value - coarse.value)
    return MomentValue(value, err, "closed2", {"d_max": d_max, "k_max": k_max})


def q_ergodic(
    q: int, m: int, ell: int, d_mod: int = 8, k_max: int = 64, _estimate_error: bool = True
) -> MomentValue:
    """Q(m, l) by exact-period trapezoid quadrature of phi_m^l.

    The modulus-truncated component has period P = lcm(1..d_mod); on a grid
    of N = P * 2^s points with 2^s > l * k_max, the trapezoid rule averages
    the trigonometric polynomial phi^l exactly.  What remains is the series
    truncation itself, estimated by comparing against a coarser component.
    """
    if component_vanishes(m):
        return MomentValue(0.0, 0.0, "ergodic", {"vanishes": True})
    trunc = build_phi(q, m, d_mod, k_max)
    P = trunc.period
    pow2 = 1
    while pow2 <= ell * k_max:
        pow2 *= 2
    n_points = P * pow2
    vals = trunc.grid_values(n_points)
    value = float(np.mean(vals**ell))
    check = float(np.mean(trunc.grid_values(2 * n_points) ** ell))
    err = abs(value - check) + 1e-12 * (1 + abs(value))
    if _estimate_error and d_mod >= 4 and k_max >= 8:
        coarse = q_ergodic(
            q, m, ell, max(d_mod - 2, 2), k_max // 2, _estimate_error=False
        )
        err += 2 * abs(value - coarse.value)
    return MomentValue(value, err, "ergodic", {"period": P, "n_points": n_points})


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


def variance_series(q: int, n_limit: int = 200_000, d_max: int = 15) -> MomentValue:
    """Sum over all m of Q(m, 2) from the direct double series.

    Computed by sieving all two-squares representations up to n_limit and
    accumulating the weighted counts per modulus.  The n-tail estimate is
    empirical (fitted log n / sqrt(n) shape); the d-tail uses the majorant.
    The series is summed once per (q, n_limit, d_max); every call returns a
    fresh MomentValue.
    """
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    value, err = _variance_series(q, n_limit, d_max)
    return MomentValue(value, err, "direct-series", {"n_limit": n_limit, "d_max": d_max})


@lru_cache(maxsize=None)
def _variance_series(q: int, n_limit: int, d_max: int) -> tuple[float, float]:
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
    W_four = W if q % 2 == 0 else W * _chi4_array(A)

    half_pref = 0.5 * (math.pi ** (q - 1) / (2 * math.gamma(q))) ** 2
    n = np.arange(n_limit + 1, dtype=np.float64)
    n[0] = 1.0
    total = 0.0
    for d in range(1, d_max + 1):
        if d % 4 == 2:
            continue
        sel = B % d == 0
        r2d = np.zeros(n_limit + 1)
        weights = W if (d % 2 or q % 2 == 0) else W_four
        np.add.at(r2d, N[sel], weights[sel])
        coprime = np.ones(n_limit + 1, dtype=bool)
        for p in _prime_factors(d):
            coprime[::p] = False
        terms = r2d[coprime] ** 2 * n[coprime] ** -1.5
        contrib = float(np.sum(terms))
        total += (1 if d % 2 else 2 ** (2 * q)) * contrib / d ** (2 * q - 3)
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


def _prime_factors(d: int) -> list[int]:
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            out.append(p)
            while d % p == 0:
                d //= p
        p += 1
    if d > 1:
        out.append(d)
    return out


def density_moment(
    q: int, j: int, m_max: int = 300, d_max: int = 16, k_max: int = 16
) -> MomentValue:
    """j-th moment of the limiting density via the combinatorial expansion.

    Sum over compositions (l_1..l_s) of j with every part >= 2 (parts equal
    to 1 contribute Q(m, 1) = 0) of multinomial weights times sums of
    products of Q(m_i, l_i) over strictly increasing m-tuples.
    """
    if j == 0:
        return MomentValue(1.0, 0.0, "composition", {})
    if j == 1:
        return MomentValue(0.0, 0.0, "composition", {"exact": True})
    ms = [m for m in range(1, m_max + 1) if not component_vanishes(m)]
    q_by_ell: dict[int, np.ndarray] = {}
    err_by_ell: dict[int, np.ndarray] = {}
    for ell in range(2, j + 1):
        vals, errs = [], []
        for m in ms:
            mv = q2_closed(q, m, d_max=max(d_max, 24), k_max=max(k_max, 24)) if ell == 2 else q_analytic(q, m, ell, d_max, k_max)
            vals.append(mv.value)
            errs.append(mv.error)
        q_by_ell[ell] = np.array(vals)
        err_by_ell[ell] = np.array(errs)

    # m-tail estimates per order: take the top octave of computed values
    # as a proxy for the remainder mass (the l = 2 tail decays like
    # log(m)/sqrt(m), higher orders faster)
    abs_sums = {ell: float(np.sum(np.abs(v))) for ell, v in q_by_ell.items()}
    tails = {}
    for ell, v in q_by_ell.items():
        octave = np.abs(v)[np.array(ms) > m_max // 2]
        tails[ell] = float(np.sum(octave)) / (math.sqrt(2) - 1)

    total = 0.0
    err = 0.0
    for comp in _compositions(j, min_part=2):
        weight = math.factorial(j)
        for part in comp:
            weight //= math.factorial(part)
        val, bnd = _increasing_product_sum(comp, q_by_ell, err_by_ell)
        for t, ell in enumerate(comp):
            others = 1.0
            for u, ell2 in enumerate(comp):
                if u != t:
                    others *= abs_sums[ell2]
            bnd += tails[ell] * others
        total += weight * val
        err += weight * bnd
    return MomentValue(total, err, "composition", {"m_max": m_max, "j": j})


def _compositions(j: int, min_part: int):
    if j == 0:
        yield ()
        return
    for first in range(min_part, j + 1):
        for rest in _compositions(j - first, min_part):
            yield (first,) + rest


def _increasing_product_sum(comp, q_by_ell, err_by_ell) -> tuple[float, float]:
    """Sum over m_1 < ... < m_s of prod Q(m_i, l_i), with error propagation."""
    # prefix[i] after step t: sum over increasing tuples ending at index i
    cur = None
    cur_err = None
    for t, ell in enumerate(comp):
        v = q_by_ell[ell]
        e = err_by_ell[ell]
        if t == 0:
            cur = v.copy()
            cur_err = e.copy()
        else:
            prev = np.concatenate([[0.0], np.cumsum(cur)[:-1]])
            prev_err = np.concatenate([[0.0], np.cumsum(cur_err)[:-1]])
            cur = v * prev
            cur_err = np.abs(v) * prev_err + e * np.abs(prev)
    return float(np.sum(cur)), float(np.sum(cur_err))
