"""Almost periodic components: support, periodicity, bounds."""

import math

import numpy as np
import pytest

from heislat.phi import (
    _TRIG_BLOCK,
    build_phi,
    component_vanishes,
    partial_sum_phi,
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


def _term_sum(trunc, t):
    """The unmerged term list summed one term at a time."""
    out = np.zeros_like(t)
    for k, d, c, isc in zip(trunc.k, trunc.d, trunc.coef, trunc.is_cos):
        arg = 2 * math.pi * (k / d) * t - math.pi / 4
        out += c * (np.cos(arg) if isc else np.sin(arg))
    return out


def _phase_err(trunc, t_max):
    # float64 rounding of each phase 2 pi (k/d) t, summed over the terms
    return np.finfo(float).eps * np.sum(np.abs(trunc.coef) * 2 * np.pi * trunc.k / trunc.d * t_max)


def test_vanishing_component_is_zero():
    for q in (3, 4):
        trunc = build_phi(q, 3, 16, 16)
        t = np.linspace(0, 5, 50)
        assert np.max(np.abs(trunc(t))) == 0.0
        assert all(len(part) == 0 for part in trunc.spectrum())
        assert np.max(np.abs(trunc.grid_values(trunc.period * 4))) == 0.0


@pytest.mark.parametrize(
    "q, m, d_max, k_max, n_t",
    [(3, 1, 8, 64, 301), (4, 2, 12, 16, 301), (5, 5, 8, 8, 301), (3, 1, 128, 16, 301), (3, 2, 6, 8, 2 * _TRIG_BLOCK + 7)],
    ids=["3-1-8-64", "4-2-12-16", "5-5-8-8", "3-1-128-16", "3-2-6-8-long-t"],
)
def test_spectrum_merges_term_list(q, m, d_max, k_max, n_t):
    # (3, 1, 128, 16): the period lcm(1..128) is far above 2^63
    # long-t: more points than one block of the evaluator, with a ragged last block
    trunc = build_phi(q, m, d_max, k_max)
    num, den, a = trunc.spectrum()
    pairs = set(zip(num.tolist(), den.tolist()))
    assert len(pairs) == len(num) < len(trunc.k)
    assert all(math.gcd(n, d) == 1 for n, d in pairs)
    terms = zip(trunc.k.tolist(), trunc.d.tolist())
    assert pairs == {(k // math.gcd(k, d), d // math.gcd(k, d)) for k, d in terms}
    t = np.linspace(0, 40, n_t)
    raw = _term_sum(trunc, t)
    merged = (a[None, :] * np.exp(2j * np.pi * np.outer(t, num / den))).real.sum(axis=1)
    assert np.max(np.abs(merged - raw)) <= 1e-12 + _phase_err(trunc, t[-1])
    assert np.max(np.abs(trunc(t) - raw)) <= 1e-12 + _phase_err(trunc, t[-1])


def test_build_phi_shared_and_read_only():
    trunc = build_phi(3, 2, 8, 16)
    assert build_phi(3, 2, 8, 16) is trunc
    for arr in (trunc.k, trunc.d, trunc.coef, trunc.is_cos, *trunc.spectrum()):
        with pytest.raises(ValueError):
            arr[0] = 0


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
        bound = 1e-12 + _phase_err(trunc, trunc.period)
        assert np.max(np.abs(grid[j] - trunc(j * (trunc.period / n)))) <= bound


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


def test_partial_sum_finite_and_additive():
    x = np.array([1.1, 2.2])
    one = partial_sum_phi(3, 1, x, 32, 32)
    two = partial_sum_phi(3, 2, x, 32, 32)
    expect = one + build_phi(3, 2, 32, 32)(math.sqrt(2) * x * x)
    assert np.allclose(two, expect, atol=1e-12)
