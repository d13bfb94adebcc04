"""Exact counting against brute force and volume against quadrature."""

import math
from fractions import Fraction

import pytest
from scipy.integrate import quad

from heislat.arithmetic import BudgetError, build_r2q_prefix
from heislat.lattice import (
    count_points,
    count_points_bruteforce,
    count_points_fast,
    normalized_error,
    sample_normalized_errors,
    volume_unit_ball,
)


@pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(99, 100), 1, Fraction(5, 4), Fraction(3, 2)])
def test_count_matches_bruteforce_q3(tables_q3_small, x):
    assert count_points(3, tables_q3_small, x=x) == count_points_bruteforce(3, x=x)


def test_count_matches_bruteforce_q4(tables_q4_small):
    assert count_points(4, tables_q4_small, x=1) == count_points_bruteforce(4, x=1)


def test_count_reference_values(tables_q3_small):
    assert count_points(3, tables_q3_small, x=1) == 15
    assert count_points(3, tables_q3_small, x=Fraction(99, 100)) == 1
    assert count_points_bruteforce(4, x=1) == 19


def test_count_accepts_x2_and_x4(tables_q3_small):
    by_x = count_points(3, tables_q3_small, x=Fraction(3, 2))
    by_x2 = count_points(3, tables_q3_small, x2=Fraction(9, 4))
    by_x4 = count_points(3, tables_q3_small, x4=Fraction(81, 16))
    assert by_x == by_x2 == by_x4


def test_count_rejects_conflicting_args(tables_q3_small):
    with pytest.raises(ValueError):
        count_points(3, tables_q3_small, x=1, x2=1)
    with pytest.raises(ValueError):
        count_points(3, tables_q3_small)


def test_volume_q3_closed_form():
    assert volume_unit_ball(3) == pytest.approx(math.pi**4 / 16, rel=1e-15)


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_volume_against_quadrature(q):
    # slice the ball along the last coordinate: a 2q-dimensional Euclidean
    # ball of radius (1 - w^2)^(1/4) at height w
    ball_2q = math.pi**q / math.gamma(q + 1)
    integral, _ = quad(lambda w: (1 - w * w) ** (q / 2), -1, 1, epsabs=1e-13)
    assert volume_unit_ball(q) == pytest.approx(ball_2q * integral, rel=1e-10)


def test_normalized_error_definition(tables_q3_small):
    x = Fraction(3, 2)
    n = count_points(3, tables_q3_small, x=x)
    expect = (n - volume_unit_ball(3) * float(x) ** 8) / float(x) ** 5
    assert normalized_error(3, tables_q3_small, x=x) == pytest.approx(expect, rel=1e-12)


def test_count_fast_matches_scalar(tables_q3_small):
    # integer x^4 (P0 - w^2 runs through perfect squares), floor(x^4) with
    # den > 1, and num^4 >= 2^62 with x^4 small
    for num, den in [(1, 1), (3, 2), (5, 4), (13, 10), (6, 1), (25, 1), (301, 7), (1201, 61), (46349, 7919)]:
        fast = count_points_fast(3, tables_q3_small, num, den)
        slow = count_points(3, tables_q3_small, x=Fraction(num, den))
        assert fast == slow


@pytest.mark.parametrize("num, den", [(300, 1), (18301, 61)])
def test_count_fast_matches_scalar_multi_block(num, den):
    # x^2 > 2^16, so the folded w-range spans more than one block
    tables = build_r2q_prefix(3, 301**2)
    assert count_points_fast(3, tables, num, den) == count_points(3, tables, x=Fraction(num, den))


def test_count_fast_budgets(tables_q3_small):
    with pytest.raises(BudgetError, match="x\\^4"):
        count_points_fast(3, tables_q3_small, 8192, 1)  # floor(x^4) = 2^52
    with pytest.raises(BudgetError, match="tables"):
        count_points_fast(3, tables_q3_small, 8191, 1)
    with pytest.raises(BudgetError, match="tables"):
        count_points_fast(3, tables_q3_small, 45, 1)  # x^2 = 2025 > 2000


def test_sample_normalized_errors(tables_q3_small):
    res = sample_normalized_errors(3, tables_q3_small, 2, 4, 20)
    assert len(res.x) == len(res.err) == 20
    assert res.x[0] >= 2 and res.x[-1] <= 4
    # spot check one sample against the scalar path
    i = 7
    direct = normalized_error(3, tables_q3_small, x=Fraction(res.x[i]).limit_denominator(10**12))
    assert res.err[i] == pytest.approx(direct, rel=1e-9)


def test_sampler_falls_back_to_exact_count(tables_q3_small, monkeypatch):
    # every sample the float64 kernel declines is recounted on Python integers
    want = sample_normalized_errors(3, tables_q3_small, 2, 4, 20)

    def declines(*args):
        raise BudgetError("x^4 too large for the float64 counting path")

    monkeypatch.setattr("heislat.lattice.count_points_fast", declines)
    got = sample_normalized_errors(3, tables_q3_small, 2, 4, 20)
    assert got.den == want.den
    for field in ("x", "err", "num"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
