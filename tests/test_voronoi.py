"""Truncated trigonometric approximation of the normalized error."""

import math

import numpy as np
import pytest

from heislat.arithmetic import chi4, rho_chi_q, rho_q, xi
from heislat.voronoi import (
    build_S_terms,
    coeff_aH,
    coeff_aH_chi,
    eval_S_streaming,
    eval_T_sums,
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
    # the materialized list keeps exactly the nonzero streamed coefficients
    terms = build_S_terms(3, 30.0)
    n_nonzero = sum(int(np.count_nonzero(c)) for _, c, _ in iter_S_rows(3, 30.0))
    assert n_nonzero == len(terms.freq)


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
                parts = [(False, 2 * rho_q(q) * xi(d, q), coeff_aH)]
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


def test_t_sums_keys_and_finiteness():
    x = np.array([2.0, 4.0])
    out = eval_T_sums(3, 50.0, x)
    assert set(out) == {"t_chi", "t_chi_upper"}
    for v in out.values():
        assert np.all(np.isfinite(v))


def test_mean_square_gap_small_scale(tables_q3):
    # crude sanity at small X: the truncation leaves only a modest residual
    gap = mean_square_gap(3, tables_q3, 10, n_samples=40)
    assert 0 <= gap < 10.0
