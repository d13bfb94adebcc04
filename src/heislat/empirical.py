"""Finite-dilation experiments: one sampled window [X, 2X] and its statistics.

`sample_errors` counts the normalized error once on a rational grid over
[X, 2X].  Every window statistic reads its `ErrorSample`: the moments, the
KS distances and the component-sum gaps here, and the S_{q,H} gap in voronoi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arithmetic import ArithTables, BudgetError
from .distribution import DensityGrid, cdf_and_moments
from .lattice import count_points, count_points_fast, volume_unit_ball
from .phi import partial_sum_phi

# the sampler's denominator: a prime far above every modulus of phi_m's spectrum,
# so the grid x = N/GRID_DEN does not resonate with its rational frequencies
GRID_DEN = 4001


@dataclass
class ErrorSample:
    """Normalized errors err at the dilations x = num / den of [X, 2X]."""

    q: int
    X: int
    x: np.ndarray = field(repr=False)
    err: np.ndarray = field(repr=False)
    num: np.ndarray = field(repr=False)
    den: int

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


def sample_errors(q: int, tables: ArithTables, X: int, n_samples: int) -> ErrorSample:
    """Normalized error at x_i = (X GRID_DEN + i step)/GRID_DEN, step = X GRID_DEN // (n - 1), in [X, 2X].

    BudgetError when step < 1.  Samples that count_points_fast declines with
    BudgetError go to count_points.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if X < 1:
        raise ValueError("need X >= 1")
    den = GRID_DEN
    step = X * den // (n_samples - 1)
    if step < 1:
        raise BudgetError("more samples than points on the 1/den grid")
    vol = volume_unit_ball(q)
    nums = np.empty(n_samples, dtype=np.int64)
    xs = np.empty(n_samples)
    errs = np.empty(n_samples)
    for i in range(n_samples):
        num = nums[i] = X * den + i * step
        try:
            cnt = count_points_fast(q, tables, num, den)
        except BudgetError:
            cnt = count_points(q, tables, x=Fraction(num, den))
        xf = num / den
        xs[i] = xf
        errs[i] = (cnt - vol * xf ** (2 * q + 2)) / xf ** (2 * q - 1)
    return ErrorSample(q=q, X=X, x=xs, err=errs, num=nums, den=den)


def empirical_lambda_moment(series: ErrorSample, lam: float) -> float:
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


def ks_distance(series: ErrorSample, grid: DensityGrid) -> float:
    """Kolmogorov-Smirnov distance between samples and a gridded density."""
    cdf = cdf_and_moments(grid)["cdf"]
    total = cdf[-1]
    if total <= 0:
        raise ValueError("density grid carries no mass")
    cdf = cdf / total
    return _ks(series.err, lambda s: np.interp(s, grid.x, cdf, left=0.0, right=1.0))


def ks_distance_gaussian(series: ErrorSample, variance: float) -> float:
    """KS distance to a centered Gaussian with the given variance."""
    erf = np.vectorize(math.erf)
    return _ks(series.err, lambda s: 0.5 * (1 + erf(s / math.sqrt(2 * variance))))


def component_sum_l2_gap(
    series: ErrorSample,
    m_values: list[int],
    d_max: int = 64,
    k_max: int = 64,
) -> dict[int, float]:
    """Mean square of (error - partial component sum) over the sampled window.

    Returns {M: gap} including M = 0 (raw mean square of the error), so the
    decay of the gap as M grows measures how much of the error profile the
    first components explain.
    """
    gaps: dict[int, float] = {0: float(np.mean(series.err**2))}
    for M in m_values:
        approx = partial_sum_phi(series.q, M, series.x, d_max, k_max)
        gaps[M] = float(np.mean((series.err - approx) ** 2))
    return gaps
