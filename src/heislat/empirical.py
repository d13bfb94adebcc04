"""Finite-dilation experiments: sampled errors, moments, and distances.

Samples the normalized error on [X, 2X], compares its empirical moments
and distribution against the limiting density, and measures the L2 gap to
the partial sums of the almost periodic components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import ArithTables
from .distribution import DensityGrid, cdf_and_moments
from .lattice import sample_normalized_errors
from .phi import partial_sum_phi


@dataclass
class SampleSeries:
    """Normalized error samples over [X, 2X] with summary statistics."""

    q: int
    X: int
    x: np.ndarray = field(repr=False)
    err: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.err)

    def stats(self) -> dict:
        e = self.err
        return {
            "n": int(len(e)),
            "mean": float(np.mean(e)),
            "second": float(np.mean(e**2)),
            "third": float(np.mean(e**3)),
            "min": float(np.min(e)),
            "max": float(np.max(e)),
        }


def sample_errors(q: int, tables: ArithTables, X: int, n_samples: int) -> SampleSeries:
    series = sample_normalized_errors(q, tables, X, 2 * X, n_samples)
    return SampleSeries(q=q, X=X, x=series.x, err=series.err)


def empirical_lambda_moment(series: SampleSeries, lam: float) -> float:
    """Mean of |error|^lambda over the sampled window."""
    return float(np.mean(np.abs(series.err) ** lam))


def _ks(err: np.ndarray, model_cdf) -> float:
    """KS distance between the samples err and a model CDF, a vectorized callable."""
    samples = np.sort(err)
    model = model_cdf(samples)
    n = len(samples)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(upper - model), np.abs(model - lower))))


def ks_distance(series: SampleSeries, grid: DensityGrid) -> float:
    """Kolmogorov-Smirnov distance between samples and a gridded density."""
    cdf = cdf_and_moments(grid)["cdf"]
    total = cdf[-1]
    if total <= 0:
        raise ValueError("density grid carries no mass")
    cdf = cdf / total
    return _ks(series.err, lambda s: np.interp(s, grid.x, cdf, left=0.0, right=1.0))


def ks_distance_gaussian(series: SampleSeries, variance: float) -> float:
    """KS distance to a centered Gaussian with the given variance."""
    erf = np.vectorize(math.erf)
    return _ks(series.err, lambda s: 0.5 * (1 + erf(s / math.sqrt(2 * variance))))


def component_sum_l2_gap(
    q: int,
    tables: ArithTables,
    X: int,
    m_values: list[int],
    n_samples: int = 1500,
    d_max: int = 64,
    k_max: int = 64,
) -> dict[int, float]:
    """Mean square of (error - partial component sum) over [X, 2X].

    Returns {M: gap} including M = 0 (raw mean square of the error), so the
    decay of the gap as M grows measures how much of the error profile the
    first components explain.
    """
    series = sample_normalized_errors(q, tables, X, 2 * X, n_samples)
    gaps: dict[int, float] = {0: float(np.mean(series.err**2))}
    for M in m_values:
        approx = partial_sum_phi(q, M, series.x, d_max, k_max)
        gaps[M] = float(np.mean((series.err - approx) ** 2))
    return gaps
