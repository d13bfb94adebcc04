"""Truncated trigonometric approximation of the normalized error."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from heislat import voronoi
from heislat.arithmetic import _branch, _chi4_array, _rep_weight, build_r2q_prefix, chi4, rho_chi_q, rho_q, two_square_reps
from heislat.empirical import sample_errors
from heislat.phi import _amplitudes
from heislat.voronoi import (
    _CHIRP_BLOCK,
    _S_windows,
    _T_rows,
    _chirp_sum,
    _trig_sum,
    _turns,
    build_S_terms,
    eval_S_streaming,
    gap_report,
    iter_S_rows,
    mean_square_gap,
    tau,
)


def _rep_pairs(m: int, h_cap: float):
    """Pairs (n, h) with n^2 + h^2 = m, 0 <= n <= h, 1 <= h <= h_cap, and whether they count half."""
    for n, h in two_square_reps(m):
        if n <= h and 1 <= h <= h_cap:
            yield n, h, (n == 0 or n == h)


def coeff_aH(q: int, m: int, d: int, H: float, twist=lambda a: 1) -> float:
    """Scalar oracle of the smoothed representation coefficient with the tau kernel.

    Each representation carries twist(a) of its free coordinate a.
    """
    inv1 = 1.0 / (math.floor(H) + 1)
    den2 = d * (math.floor(H / d) + 1)
    total = 0.0
    for n, h, edge in _rep_pairs(m, H):
        half = 0.5 if edge else 1.0
        if n % d == 0:
            total += half * twist(h) * tau(h * inv1) * _rep_weight(h, m, q)
        if h % d == 0:
            total += half * twist(n) * tau(h / den2) * _rep_weight(n, m, q)
    return total / m**0.75


def coeff_aH_chi(q: int, m: int, d: int, H: float) -> float:
    """Character-twisted coefficient (factor 2, chi4(-h) and chi4(-n))."""
    return 2.0 * coeff_aH(q, m, d, H, twist=lambda a: chi4(-a))


def test_tau_reference_values():
    assert tau(0.0) == pytest.approx(1 / math.pi, abs=1e-15)
    assert tau(1.0) == 0.0
    assert tau(0.5) == pytest.approx(1 / (2 * math.pi), abs=1e-15)


def test_tau_monotone_on_unit_interval():
    grid = np.linspace(0, 1, 101)
    vals = [tau(t) for t in grid]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_coeff_aH_smallest_modulus():
    for q in (3, 4):
        for H in (10.0, 25.0):
            assert coeff_aH(q, 1, 1, H) == pytest.approx(tau(1 / (int(H) + 1)) / 2, rel=1e-13)


def test_streaming_matches_materialized():
    x = np.array([2.3, 5.7, 11.1, 17.9])
    for q in (3, 4):
        dense = build_S_terms(q, 60.0).evaluate(x)
        stream = eval_S_streaming(q, 60.0, x)
        assert np.max(np.abs(dense - stream)) < 1e-12


def test_rows_cover_all_terms():
    # the rows carry only nonzero terms, and the materialized list keeps them all
    for q in (3, 4, 5):
        rows = list(itertools.chain(iter_S_rows(q, 30.0), _T_rows(q, 30.0) if q == 3 else ()))
        assert all(len(c) and np.all(c != 0.0) for _, c, _ in rows)
        if q == 3:
            assert any(is_cos for _, _, is_cos in rows)
    terms = build_S_terms(3, 30.0)
    assert sum(len(c) for _, c, _ in iter_S_rows(3, 30.0)) == len(terms.freq)


def test_rows_match_scalar_coefficients():
    # the vectorized rows, summed per frequency sqrt(m)/d, equal the scalar
    # coefficients times their modulus prefactor, summed over the (m, d)
    # pairs that share that frequency
    H = 30.0
    d_max = math.isqrt(int(H))
    L = math.lcm(*range(1, d_max + 1))
    for q in (3, 4, 5, 6):
        rows = {False: {}, True: {}}
        for freq, coef, is_cos in iter_S_rows(q, H):
            for f, c in zip(freq, coef):
                key = round(f * f * L * L)
                rows[is_cos][key] = rows[is_cos].get(key, 0.0) + c
        oracle = {False: {}, True: {}}
        for d in range(1, d_max + 1):
            if q % 2 == 0:
                # xi(d; q): 1 on odd d, else -s, plus s 2^q on d = 0 mod 4
                s = -1 if (q // 2) % 2 else 1
                xi = 1 if d % 2 else -s + (s * 2**q if d % 4 == 0 else 0)
                parts = [(False, 2 * rho_q(q) * xi, coeff_aH)]
            else:
                parts = [(False, 2**q * rho_chi_q(q) * chi4(d), coeff_aH)]
                if d % 4 == 0:
                    cos_amp = (-1) ** ((q - 1) // 2) * 2 ** (2 * q - 1) * rho_chi_q(q)
                    parts.append((True, cos_amp, coeff_aH_chi))
            for is_cos, amp, coeff in parts:
                if not amp:
                    continue
                for m in range(1, 2 * int(H) ** 2 + 1):
                    key = m * (L // d) ** 2
                    val = amp / d ** (q - 1.5) * coeff(q, m, d, H)
                    oracle[is_cos][key] = oracle[is_cos].get(key, 0.0) + val
        for is_cos in (False, True):
            got, want = rows[is_cos], oracle[is_cos]
            assert set(got) <= set(want)
            for key, val in want.items():
                assert abs(got.get(key, 0.0) - val) <= 1e-14 * (1 + abs(val)), (q, is_cos, key)


def _unmerged_terms(q, H):
    """(d, m) -> sum of the per-representation terms, by a scalar loop over both inner sums.

    Keys whose every term is 0 (n = 0 in the second sum, the zeros of chi4) are left out.
    """
    amp = 2 * rho_q(q) if q % 2 == 0 else 2**q * rho_chi_q(q)
    h_max = math.floor(H)
    out = {}
    for d in range(1, math.isqrt(h_max) + 1):
        factor, twisted = _branch(d, q)
        if not factor:
            continue
        pref = amp * factor / d ** (q - 1.5)
        den2 = d * (math.floor(H / d) + 1)
        for h in range(1, h_max + 1):
            for n in range(h + 1):
                m = n * n + h * h
                half = 0.5 if n in (0, h) else 1.0
                reps = [(h, tau(h / (h_max + 1)))] if n % d == 0 else []
                reps += [(n, tau(h / den2))] if h % d == 0 else []
                for free, kernel in reps:
                    t = half * kernel * _rep_weight(free, m, q) * (chi4(free) if twisted else 1)
                    if t:
                        out[(d, m)] = out.get((d, m), 0.0) + pref * t / m**0.75
    return out


@pytest.mark.parametrize("window", [None, 8])
def test_each_modulus_yields_each_m_once(monkeypatch, window):
    if window:
        monkeypatch.setattr(voronoi, "_S_WINDOW", window)
    for q in (3, 4, 5):
        for d in range(1, math.isqrt(60) + 1):
            factor, twisted = _branch(d, q)
            if factor:
                m = np.concatenate([m for m, _ in _S_windows(d, 60.0, q, twisted)])
                assert np.all(np.diff(m) > 0), (q, d)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_merged_rows_equal_unmerged_sums(q):
    # one term per (d, m) in ascending (d, m) order, whose coefficient is the
    # sum of the unmerged per-representation terms
    H = 30.0
    want = _unmerged_terms(q, H)
    keys = sorted(want)
    rows = list(iter_S_rows(q, H))
    freq = np.concatenate([f for f, _, _ in rows])
    coef = np.concatenate([c for _, c, _ in rows])
    assert len(freq) == len(keys)
    assert np.allclose(freq, [math.sqrt(m) / d for d, m in keys], rtol=1e-15, atol=0)
    ref = np.array([want[k] for k in keys])
    assert np.all(np.abs(coef - ref) <= 1e-14 * (1 + np.abs(ref)))
    # cosine rows come from the twisted moduli d = 0 mod 4 of odd q
    is_cos = np.concatenate([np.full(len(f), c) for f, _, c in rows])
    assert np.array_equal(is_cos, [q % 2 == 1 and d % 4 == 0 for d, _ in keys])


def test_window_size_leaves_gap_unchanged(tables_q3, monkeypatch):
    series = sample_errors(3, tables_q3, 10, 40)
    base = gap_report(series)
    monkeypatch.setattr(voronoi, "_S_WINDOW", 8)
    tiny = gap_report(series)
    assert tiny.terms == base.terms
    assert abs(tiny.gap - base.gap) <= 1e-12 * base.gap


def _peak_bytes(q, H):
    """Peak traced bytes while iterating iter_S_rows(q, H) to its end, and the term count."""
    tracemalloc.start()
    try:
        terms = sum(len(f) for f, _, _ in iter_S_rows(q, H))
        return tracemalloc.get_traced_memory()[1], terms
    finally:
        tracemalloc.stop()


def test_row_memory_does_not_grow_with_H():
    list(iter_S_rows(3, 20.0))  # one-off allocations of the first call
    small, _ = _peak_bytes(3, 300.0)
    large, terms = _peak_bytes(3, 1250.0)
    # about 20 times the terms of H = 300, and 16 bytes a term to hold them all
    assert large <= 1.25 * small
    assert large < 16 * terms / 10


def test_terms_grow_with_H():
    small = build_S_terms(3, 20.0)
    large = build_S_terms(3, 80.0)
    assert len(large.freq) > len(small.freq)


def _tail_sums(q, H, x):
    """The two q=3 tail sums at x through the one evaluator: sine rows, cosine rows."""
    out = {False: np.zeros_like(x), True: np.zeros_like(x)}
    for freq, coef, is_cos in _T_rows(q, H):
        out[is_cos] += _trig_sum(freq, _amplitudes(coef, is_cos), x * x)
    return out[False], out[True]


def test_t_sums_keys_and_finiteness():
    x = np.array([2.0, 4.0])
    assert {is_cos for _, _, is_cos in _T_rows(3, 50.0)} == {False, True}
    for v in _tail_sums(3, 50.0, x):
        assert np.all(np.isfinite(v))


def test_t_sums_match_scalar_loop():
    # inline scalar double loop over (d, h), the definition of the two tails
    q, H = 3, 50.0
    x = np.array([1.7, 3.0, 6.25, 9.9])
    ampc = rho_chi_q(q)
    want_chi = np.zeros_like(x)
    want_upper = np.zeros_like(x)
    for d in range(math.isqrt(int(H)) + 1, int(H) + 1):
        h_top = int(H // d)
        for h in range(1, h_top + 1):
            k = tau(h / (h_top + 1)) / (d ** (q - 1.5) * h**1.5)
            arg = 2 * math.pi * (h / d) * x * x - math.pi / 4
            want_chi += 2 ** (q - 1) * ampc * chi4(d) * k * np.sin(arg)
            if d % 4 == 0:
                want_upper += (-1) ** ((q + 1) // 2) * 2 ** (2 * q - 1) * ampc * chi4(h) * k * np.cos(arg)
    got_chi, got_upper = _tail_sums(q, H, x)
    assert np.max(np.abs(got_chi - want_chi)) <= 1e-12 * (1 + np.max(np.abs(want_chi)))
    assert np.max(np.abs(got_upper - want_upper)) <= 1e-12 * (1 + np.max(np.abs(want_upper)))
    assert np.any(want_chi != 0) and np.any(want_upper != 0)


def _T_rows_per_modulus(q, H):
    """The q=3 tail rows built one modulus at a time: the oracle of the one-pass _T_rows."""
    amp = 2 ** (q - 1) * rho_chi_q(q)
    for d in range(math.isqrt(math.floor(H)) + 1, math.floor(H) + 1):
        factor, twisted = _branch(d, q)
        if not factor:
            continue
        h_top = math.floor(H / d)
        h = np.arange(1, h_top + 1)
        k = tau(h / (h_top + 1)) / (d ** (q - 1.5) * h**1.5)
        if twisted:
            odd = h % 2 == 1
            yield h[odd] / d, amp * factor * _chi4_array(h[odd]) * k[odd], True
        else:
            yield h / d, amp * factor * k, False


@pytest.mark.parametrize("H", [1, 10, 10.5, 16, 288, 512, 3200])
def test_t_rows_equal_per_modulus_build(H):
    # the same rows, in the same order, bit for bit; H = 16 has an integer sqrt(H)
    got, want = list(_T_rows(3, H)), list(_T_rows_per_modulus(3, H))
    assert len(got) == len(want)
    for (f, c, ic), (wf, wc, wic) in zip(got, want):
        assert ic is wic and f.tobytes() == wf.tobytes() and c.tobytes() == wc.tobytes()


def test_turns_reduce_as_np_mod():
    rng = np.random.default_rng(5)
    edges = [0.0, 1.0, 1 - 2.0**-53, 2.0**52 - 1, 2.0**52, 2.0**60, 1e-300, 5e-324]
    t = np.concatenate([rng.uniform(-1e7, 1e7, 4000), rng.uniform(-2, 2, 4000), edges, np.negative(edges)])
    want = np.mod(t, 1.0) * (2 * math.pi)
    got_t = t.copy()
    z, want_z = _turns(got_t), np.empty(len(t), complex)
    np.cos(want, out=want_z.real)
    np.sin(want, out=want_z.imag)
    assert got_t.tobytes() == want.tobytes() and z.tobytes() == want_z.tobytes()


def test_gap_below_unit_H_is_raw_mean_square(tables_q3):
    series = sample_errors(3, tables_q3, 10, 40)
    for H in (0.0, 0.5):
        rep = gap_report(series, H)
        assert rep.terms == 0 and rep.gap == float(np.mean(series.err**2))


@pytest.mark.parametrize("X, gap", [(10, 2.490911214929993), (24, 0.39882729036611403), (32, 0.3704243350648525)])
def test_mean_square_gap_pinned(X, gap):
    assert mean_square_gap(3, build_r2q_prefix(3, 64**2), X, 97) == gap


def _chirp_against_direct(rows, num, den):
    """Max |chirp - direct|, its tolerance and the term count, for the rows at x = num/den.

    Float64 rounds a phase 2 pi f x^2 to about eps * 2 pi f x^2 rad.  The
    direct sum rounds it once per term and sample; the recurrence adds at
    most as much per step, so with n samples the bound is
    eps * sum|coef| * 2 pi f_max x_max^2 * n.
    """
    rows = list(rows)
    num = np.asarray(num)
    x = num / den
    want = sum(_trig_sum(f, _amplitudes(c, ic), x * x) for f, c, ic in rows)
    got, terms = _chirp_sum(iter(rows), num, den)
    assert terms == sum(int(np.count_nonzero(c)) for _, c, _ in rows)
    abs_coef = sum(float(np.sum(np.abs(c))) for _, c, _ in rows)
    f_max = max(float(np.max(f)) for f, _, _ in rows)
    tol = np.finfo(float).eps * abs_coef * 2 * math.pi * f_max * float(np.max(x * x)) * len(num)
    return float(np.max(np.abs(got - want))), tol, terms


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("X", [10, 24])
def test_chirp_matches_direct_on_sampler_grid(q, X):
    tables = build_r2q_prefix(q, (2 * X) ** 2)
    series = sample_errors(q, tables, X, 96)
    assert np.array_equal(series.x, series.num / series.den)
    H = X * X / 2
    rows = itertools.chain(iter_S_rows(q, H), _T_rows(q, H) if q == 3 else ())
    diff, tol, _ = _chirp_against_direct(rows, series.num, series.den)
    assert diff <= tol, (diff, tol)


@pytest.mark.parametrize(
    "q, H, num, den, min_terms",
    [
        (3, 40.0, [500, 777], 101, 0),
        (3, 200.0, 17 * 401 + 40 * np.arange(7), 401, 3 * _CHIRP_BLOCK),
    ],
    ids=["two-points", "several-blocks"],
)
def test_chirp_matches_direct_on_synthetic_grid(q, H, num, den, min_terms):
    diff, tol, terms = _chirp_against_direct(iter_S_rows(q, H), num, den)
    assert diff <= tol, (diff, tol)
    assert terms > min_terms


def test_chirp_rejects_numerators_off_one_step():
    # four steps, one of them negative: the recurrence holds for one step only
    with pytest.raises(ValueError, match="equispaced"):
        _chirp_sum(iter_S_rows(4, 40.0), np.cumsum([1000, 3, 7, 1, 7, -2, 3, 3, 1, -2, 7]), 97)


def test_mean_square_gap_small_scale(tables_q3):
    # crude sanity at small X: the truncation leaves only a modest residual
    gap = mean_square_gap(3, tables_q3, 10, n_samples=40)
    assert 0 <= gap < 10.0
    # the report behind it records what the gap was computed from
    series = sample_errors(3, tables_q3, 10, 40)
    rep = gap_report(series)
    rows = itertools.chain(iter_S_rows(3, 50.0), _T_rows(3, 50.0))
    assert (rep.gap, rep.H, rep.samples, rep.den) == (gap, 50.0, 40, series.den)
    assert rep.terms == sum(int(np.count_nonzero(c)) for _, c, _ in rows)
