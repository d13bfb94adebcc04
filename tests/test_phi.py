"""Almost periodic components: support, periodicity, bounds."""

import math

import numpy as np
import pytest

from heislat.phi import (
    build_phi,
    component_vanishes,
    partial_sum_phi,
    sup_bound,
    tail_bound_for,
)


def test_component_support():
    assert not component_vanishes(1)
    assert not component_vanishes(2)
    assert not component_vanishes(5)
    assert not component_vanishes(10)
    assert component_vanishes(3)   # prime 3 mod 4
    assert component_vanishes(4)   # not squarefree
    assert component_vanishes(9)
    assert component_vanishes(21)


def test_vanishing_component_is_zero():
    for q in (3, 4):
        trunc = build_phi(q, 3, 16, 16)
        t = np.linspace(0, 5, 50)
        assert np.max(np.abs(trunc(t))) == 0.0


def test_truncation_period():
    trunc = build_phi(3, 1, 4, 8)
    assert trunc.period == 12  # lcm(1..4)
    t = np.linspace(0, 12, 37)
    assert np.max(np.abs(trunc(t) - trunc(t + 12))) < 1e-10


def test_grid_values_match_pointwise():
    # (q, m, d_max, k_max, points per period, stride of the checked points):
    # at 8 points per period with k_max = 8 the bins k * period / d pass
    # n / 2 and alias; 840 * 256 points split into several FFT blocks
    for q, m, d_max, k_max, per, stride in [
        (3, 1, 4, 8, 16, 1),
        (4, 2, 4, 8, 16, 1),
        (3, 5, 4, 8, 16, 1),
        (3, 1, 4, 8, 8, 1),
        (3, 1, 8, 64, 256, 97),
    ]:
        trunc = build_phi(q, m, d_max, k_max)
        n = trunc.period * per
        grid = trunc.grid_values(n)
        j = np.arange(0, n, stride)
        # the pointwise reference rounds each phase 2 pi (k/d) t in float64
        phase_err = np.finfo(float).eps * np.sum(np.abs(trunc.coef) * 2 * np.pi * trunc.k / trunc.d * trunc.period)
        assert np.max(np.abs(grid[j] - trunc(j * (trunc.period / n)))) <= 1e-12 + phase_err


def test_grid_values_requires_multiple_of_period():
    trunc = build_phi(3, 1, 4, 8)
    with pytest.raises(ValueError):
        trunc.grid_values(trunc.period * 16 + 1)


def test_truncation_converges_in_d():
    t = np.linspace(0, 3, 40)
    coarse = build_phi(3, 1, 8, 64)(t)
    fine = build_phi(3, 1, 64, 64)(t)
    finer = build_phi(3, 1, 128, 64)(t)
    assert np.max(np.abs(finer - fine)) < np.max(np.abs(finer - coarse))


def test_tail_bound_decreasing():
    for q, m in [(3, 1), (4, 5)]:
        b1 = tail_bound_for(q, m, 8, 64)
        b2 = tail_bound_for(q, m, 32, 64)
        b3 = tail_bound_for(q, m, 128, 64)
        assert b1 > b2 > b3 >= 0


def test_sup_bound_dominates_samples():
    for q, m in [(3, 1), (3, 2), (4, 5)]:
        trunc = build_phi(q, m, 10, 32)
        grid = trunc.grid_values(trunc.period * 64)
        assert sup_bound(q, m) >= np.max(np.abs(grid)) * (1 - 1e-12)


def test_partial_sum_finite_and_additive():
    x = np.array([1.1, 2.2])
    one = partial_sum_phi(3, 1, x, 32, 32)
    two = partial_sum_phi(3, 2, x, 32, 32)
    expect = one + build_phi(3, 2, 32, 32)(math.sqrt(2) * x * x)
    assert np.allclose(two, expect, atol=1e-12)
