"""Component moments: three independent routes must agree."""

import pytest

from heislat.moments import (
    density_moment,
    q2_closed,
    q_analytic,
    q_ergodic,
    third_moment_sum,
    variance_series,
)


def test_first_moment_vanishes():
    for q, m in [(3, 1), (3, 2), (4, 5)]:
        mv = q_analytic(q, m, 1)
        assert abs(mv.value) < 1e-12


def test_vanishing_component_moments_zero():
    for route in (q2_closed,):
        mv = route(3, 3)
        assert mv.value == 0.0
    assert q_analytic(3, 9, 2).value == 0.0
    assert q_ergodic(4, 21, 2).value == 0.0


def test_second_moment_closed_equals_analytic():
    for q, m in [(3, 1), (3, 2), (4, 1), (4, 5)]:
        c = q2_closed(q, m, d_max=16, k_max=16)
        a = q_analytic(q, m, 2, d_max=16, k_max=16)
        assert a.value == pytest.approx(c.value, rel=1e-10)


def test_second_moment_ergodic_consistent():
    c = q2_closed(3, 2)
    e = q_ergodic(3, 2, 2)
    assert abs(c.value - e.value) <= c.error + e.error


def test_second_moments_positive_errors_finite():
    for q in (3, 4):
        for m in (1, 2, 5, 13):
            mv = q2_closed(q, m)
            assert mv.value > 0
            assert 0 <= mv.error < mv.value


def test_third_moment_sum_negative():
    for q in (3, 4):
        mv = third_moment_sum(q, m_max=30)
        assert mv.value + mv.error < 0


def test_variance_series_value():
    mv = variance_series(3)
    assert mv.value == pytest.approx(53.88, abs=0.5)
    assert mv.error < mv.value * 0.1
    with pytest.raises(ValueError):
        variance_series(3, d_max=0)


def test_variance_series_dominates_partial_sums():
    mv = variance_series(3)
    head = sum(
        q2_closed(3, m).value
        for m in range(1, 41)
        if q2_closed(3, m).value > 0
    )
    assert mv.value + mv.error > head


def test_density_moment_even_matches_component_sum():
    dm = density_moment(3, 2, m_max=30)
    direct = sum(q2_closed(3, m).value for m in range(1, 31))
    direct_err = sum(q2_closed(3, m).error for m in range(1, 31))
    assert abs(dm.value - direct) <= dm.error + direct_err


def test_density_moment_parity():
    assert density_moment(3, 1, m_max=20).value == 0.0
    assert density_moment(3, 3, m_max=20, d_max=8, k_max=8).value < 0
