"""Characteristic function and Fourier-inverted limiting density."""

import warnings

import numpy as np
import pytest

from heislat import distribution
from heislat.distribution import (
    CutoffError,
    cdf_and_moments,
    char_factor,
    char_function,
    contributing_m,
    density,
    tail_variance_estimate,
)


def test_contributing_m_list():
    assert contributing_m(20) == [1, 2, 5, 10, 13, 17]


def test_char_factor_at_zero_is_one():
    for m in (1, 2, 5):
        assert complex(char_factor(3, 0.0, m)) == pytest.approx(1.0, abs=1e-12)


def test_char_factor_vanishing_component():
    sig = np.linspace(-1, 1, 7)
    vals = char_factor(3, sig, 3)
    assert np.allclose(vals, 1.0)


def test_char_factor_bounded_by_one():
    sig = np.linspace(0.01, 0.4, 12)
    for m in (1, 2, 5):
        vals = char_factor(3, sig, m, d_mod=6, k_max=32)
        assert np.all(np.abs(vals) <= 1 + 1e-9)


def test_char_factor_real_for_even_components():
    # each component is a real almost periodic signal; its factor average
    # satisfies conjugate symmetry
    sig = np.array([0.1, 0.25])
    for m in (1, 2):
        pos = char_factor(3, sig, m, d_mod=6, k_max=32)
        neg = char_factor(3, -sig, m, d_mod=6, k_max=32)
        assert np.allclose(np.conj(pos), neg, atol=1e-12)


def test_char_function_at_zero():
    assert complex(char_function(3, 0.0, m_max=20, d_mod=4, k_max=16)) == pytest.approx(1.0)


@pytest.mark.parametrize("m", [1, 2, 13])
@pytest.mark.parametrize("u", [0.5, 2.2, 4.0])
def test_quadrature_bound_holds_against_finer_grid(m, u):
    # the chosen level's factor sits within its strip bound plus both Taylor
    # remainders of the factor two levels finer; 1e-15 covers the rounding
    # of the bin sums
    refine, bound = distribution._quadrature_level(3, m, 6, 32, u)
    assert 0 < bound <= distribution.QUAD_TOL
    coarse, fine = (distribution._phi_bins(3, m, 6, 32, r) for r in (refine, refine + 2))
    gap = abs(distribution._factor_from_bins(u, coarse) - distribution._factor_from_bins(u, fine))[0]
    taylor = sum((u * bins[-1] / 2) ** 4 / 24 for bins in (coarse, fine))
    assert gap <= bound + taylor + 1e-15


def test_char_factor_builds_one_grid_per_call(monkeypatch):
    seen = []
    real = distribution._phi_bins

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(distribution, "_phi_bins", spy)
    for m in (1, 2, 13):
        seen.clear()
        char_factor(3, np.linspace(-0.6, 0.6, 9), m, d_mod=6, k_max=32)
        assert len(seen) == 1


def test_char_factor_at_zero_with_large_box_stays_finite():
    # at k_max = 128 an unbounded strip height overflows sinh, and 0 * inf
    # is nan at sigma = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert complex(char_factor(3, 0.0, 1, d_mod=4, k_max=128)) == 1


def test_tail_variance_nonnegative_and_decreasing():
    v30 = tail_variance_estimate(3, 30, d_mod=6, k_max=32)
    v60 = tail_variance_estimate(3, 60, d_mod=6, k_max=32)
    assert v30 >= v60 >= 0


@pytest.fixture(scope="module")
def small_grid():
    return density(3, m_max=30, d_mod=4, k_max=32)


def test_density_mass_and_symmetry(small_grid):
    rep = cdf_and_moments(small_grid)
    mass, mean = rep["moments"][0], rep["moments"][1]
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert abs(mean) < 1e-6
    assert np.min(small_grid.p) > -1e-8


def test_density_cdf_monotone(small_grid):
    rep = cdf_and_moments(small_grid)
    assert np.all(np.diff(rep["cdf"]) >= -1e-12)
    assert rep["cdf"][0] == pytest.approx(0.0, abs=1e-6)
    assert rep["cdf"][-1] == pytest.approx(1.0, abs=1e-6)


def test_density_negative_skew(small_grid):
    rep = cdf_and_moments(small_grid)
    assert rep["moments"][3] < 0


def test_density_budget_entries(small_grid):
    budget = small_grid.error_budget
    assert all(v >= 0 for v in budget.values())
    # a computed bound, below the 1e-9 per component once assumed
    assert 0 < budget["factor_quadrature"] < 1e-9 * len(contributing_m(small_grid.m_max))
    assert small_grid.total_error == pytest.approx(sum(budget.values()))


def test_density_rejects_undecayed_cutoff():
    with pytest.raises(CutoffError):
        density(3, m_max=30, A=0.01, d_mod=4, k_max=32)
