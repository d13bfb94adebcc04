"""Component moments: three independent routes must agree."""

import itertools
import math
from fractions import Fraction

import pytest

from heislat.arithmetic import BudgetError, eps_sign, frak_r
from heislat.moments import (
    _moment_prefactor,
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


def _tuple_oracle(q, m, ell, box):
    """Q(m, l) by enumerating every ordered l-tuple of signed box items.

    A tuple counts when its frequencies e eps(d) k/d add up to zero as exact
    fractions; it contributes prod w * cos(pi/4 * sum e).
    """
    signed = []
    for d in range(1, box + 1):
        for k in range(1, box + 1):
            v = frak_r(m * k * k, d, q) if math.gcd(k, d) == 1 else 0.0
            if v:
                for e in (1, -1):
                    signed.append((e * eps_sign(d, q) * Fraction(k, d), e, v / (d ** (q - 1.5) * k**1.5)))
    total = 0.0
    for tup in itertools.product(signed, repeat=ell):
        if sum(f for f, _, _ in tup) == 0:
            total += math.prod(w for _, _, w in tup) * math.cos(math.pi / 4 * sum(e for _, e, _ in tup))
    return _moment_prefactor(q, ell, m) * total


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("ell, box", [(2, 6), (3, 5), (4, 4)])
def test_analytic_matches_tuple_enumeration(q, ell, box):
    want = _tuple_oracle(q, 1, ell, box)
    got = q_analytic(q, 1, ell, d_max=box, k_max=box).value
    assert want != 0.0
    assert got == pytest.approx(want, rel=1e-13)


def test_analytic_budget_raises():
    # the spectrum holds both signs of every item, and l = 3 convolves it once
    mv = q_analytic(3, 1, 3, d_max=8, k_max=8)
    products = (2 * mv.meta["terms"]) ** 2
    assert q_analytic(3, 1, 3, d_max=8, k_max=8, budget=products).value == mv.value
    with pytest.raises(BudgetError):
        q_analytic(3, 1, 3, d_max=8, k_max=8, budget=products - 1)
    with pytest.raises(BudgetError):
        q_analytic(3, 1, 4, d_max=8, k_max=8, budget=1000)


def test_density_moment_two_components_explicit():
    # with components m = 1, 2 only: E(X+Y)^4 and E(X+Y)^5 of independent,
    # centred X and Y
    q, box = 3, 6

    def Q(m, ell):
        if ell == 2:
            return q2_closed(q, m, d_max=24, k_max=24).value
        return q_analytic(q, m, ell, d_max=box, k_max=box).value

    m4 = Q(1, 4) + Q(2, 4) + 6 * Q(1, 2) * Q(2, 2)
    m5 = Q(1, 5) + Q(2, 5) + 10 * (Q(1, 2) * Q(2, 3) + Q(1, 3) * Q(2, 2))
    got4 = density_moment(q, 4, m_max=2, d_max=box, k_max=box)
    got5 = density_moment(q, 5, m_max=2, d_max=box, k_max=box)
    assert got4.method == got5.method == "cumulant"
    assert got4.value == pytest.approx(m4, rel=1e-12)
    assert got5.value == pytest.approx(m5, rel=1e-12)
    assert got4.error > 0 and got5.error > 0
