"""Truncated trigonometric approximation of the normalized error."""

import itertools
import math

import numpy as np
import pytest

from heislat.arithmetic import build_r2q_prefix, chi4, rho_chi_q, rho_q
from heislat.lattice import sample_normalized_errors
from heislat.phi import _amplitudes, _trig_sum
from heislat.voronoi import (
    _CHIRP_BLOCK,
    _T_rows,
    _chirp_sum,
    build_S_terms,
    coeff_aH,
    coeff_aH_chi,
    eval_S_streaming,
    gap_report,
    iter_S_rows,
    mean_square_gap,
    tau,
)


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
    series = sample_normalized_errors(q, tables, X, 2 * X, 96)
    assert np.array_equal(series.x, series.num / series.den)
    H = X * X / 2
    rows = itertools.chain(iter_S_rows(q, H), _T_rows(q, H) if q == 3 else ())
    diff, tol, _ = _chirp_against_direct(rows, series.num, series.den)
    assert diff <= tol, (diff, tol)


@pytest.mark.parametrize(
    "q, H, num, den, min_terms",
    [
        (4, 40.0, np.cumsum([1000, 3, 7, 1, 7, -2, 3, 3, 1, -2, 7]), 97, 0),
        (3, 40.0, [500, 777], 101, 0),
        (3, 200.0, 17 * 401 + np.array([0, 40, 81, 121, 162, 202, 243]), 401, 3 * _CHIRP_BLOCK),
    ],
    ids=["four-steps-one-negative", "two-points", "several-blocks"],
)
def test_chirp_matches_direct_on_synthetic_grid(q, H, num, den, min_terms):
    diff, tol, terms = _chirp_against_direct(iter_S_rows(q, H), num, den)
    assert diff <= tol, (diff, tol)
    assert terms > min_terms


def test_mean_square_gap_small_scale(tables_q3):
    # crude sanity at small X: the truncation leaves only a modest residual
    gap = mean_square_gap(3, tables_q3, 10, n_samples=40)
    assert 0 <= gap < 10.0
    # the report behind it records what the gap was computed from
    rep = gap_report(3, tables_q3, 10, n_samples=40)
    series = sample_normalized_errors(3, tables_q3, 10, 20, 40)
    rows = itertools.chain(iter_S_rows(3, 50.0), _T_rows(3, 50.0))
    assert (rep.gap, rep.H, rep.samples, rep.den) == (gap, 50.0, 40, series.den)
    assert rep.terms == sum(int(np.count_nonzero(c)) for _, c, _ in rows)
