"""Finite-dilation sampling and comparison against the limit law."""

import numpy as np
import pytest

from heislat.arithmetic import BudgetError
from heislat.distribution import density
from heislat.empirical import (
    GRID_DEN,
    component_sum_l2_gap,
    empirical_lambda_moment,
    ks_distance,
    ks_distance_gaussian,
    sample_errors,
)


@pytest.fixture(scope="module")
def series(tables_q3):
    return sample_errors(3, tables_q3, 50, 400)


def test_sample_series_shape(series):
    assert len(series.x) == len(series.err) == 400
    assert series.x[0] >= 50 and series.x[-1] <= 100
    assert np.all(np.diff(series.x) > 0)


def test_stats_keys(series):
    st = series.stats()
    assert st["n"] == 400
    assert st["mean"] == pytest.approx(float(np.mean(series.err)))


def test_empirical_moments(series):
    st = series.stats()
    assert st["second"] == pytest.approx(float(np.mean(series.err**2)))
    assert st["third"] == pytest.approx(float(np.mean(series.err**3)))
    assert empirical_lambda_moment(series, 1.0) == pytest.approx(
        float(np.mean(np.abs(series.err)))
    )


def test_second_moment_magnitude(series):
    # the limit variance is about 54; a finite-X sample should be in range
    m2 = series.stats()["second"]
    assert 20 < m2 < 120


def test_ks_distance_bounds(series):
    grid = density(3, m_max=30, d_mod=4, k_max=32)
    d = ks_distance(series, grid)
    assert 0 <= d <= 1
    assert d < 0.2


def test_ks_distance_gaussian_bounds(series):
    d = ks_distance_gaussian(series, 54.0)
    assert 0 <= d <= 1


def test_component_sum_gap_decreases(series):
    gaps = component_sum_l2_gap(series, [1, 10])
    assert set(gaps) == {0, 1, 10}
    assert gaps[10] < gaps[0]
    assert all(v >= 0 for v in gaps.values())


def test_grid_is_one_step_on_the_fixed_den(monkeypatch):
    # the grid depends on X and n only; a counting stub keeps the windows cheap
    monkeypatch.setattr("heislat.empirical.count_points_fast", lambda *args: 0)
    for X, n in [(1, 2), (1, 4002), (2, 20), (10, 40), (75, 4000), (80, 96), (300, 4000), (450, 97)]:
        s = sample_errors(3, None, X, n)
        assert s.den == GRID_DEN and s.n == n
        assert len(set(np.diff(s.num).tolist())) == 1, (X, n)
        assert s.num[0] == X * GRID_DEN and s.num[-1] <= 2 * X * GRID_DEN, (X, n)
        assert np.array_equal(s.x, s.num / GRID_DEN)


def test_more_samples_than_grid_points_raise_before_counting(monkeypatch):
    def counts(*args):
        raise AssertionError("counted before the budget check")

    monkeypatch.setattr("heislat.empirical.count_points_fast", counts)
    with pytest.raises(BudgetError, match="more samples"):
        sample_errors(3, None, 1, 4003)
