"""Characteristic function and limiting density by Fourier inversion.

The characteristic function is a product over components m of factor
averages L(sigma, m) = mean of exp(2 pi i sigma phi_m(t)) over long t
intervals.  Factors are computed by exact-period quadrature of the
modulus-truncated component; the product is cut at m <= M and the variance
carried by the omitted components can be closed off by a Gaussian factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arithmetic import BudgetError, r2
from .moments import q2_closed, q_ergodic, variance_series
from .phi import build_phi, component_vanishes

DEFAULT_D_MOD = 8
DEFAULT_K_MAX = 64


class CutoffError(BudgetError):
    """The characteristic function has not decayed below 1e-9 at the cutoff."""


def contributing_m(m_max: int) -> list[int]:
    return [m for m in range(1, m_max + 1) if not component_vanishes(m)]


@lru_cache(maxsize=None)
def _phi_bins(q: int, m: int, d_mod: int, k_max: int, refine: int = 0, n_bins: int = 8192):
    """Histogram summary (counts and centered moments) of phi_m over a period.

    The factor average over the period grid is recovered from per-bin
    centered moments up to order three; with ~1e-4 bin widths the cubic
    remainder stays below 1e-9 for |2 pi sigma| up to ~100.
    """
    trunc = build_phi(q, m, d_mod, k_max)
    P = trunc.period
    pow2 = 1
    while pow2 < 4 * k_max:
        pow2 *= 2
    pow2 <<= refine
    n_points = P * pow2
    if n_points > 2**26:
        raise BudgetError("period grid too large; lower d_mod or the refinement")
    vals = trunc.grid_values(n_points)
    lo, hi = float(vals.min()), float(vals.max())
    if hi - lo < 1e-12:
        hi = lo + 1e-12
    width = (hi - lo) / n_bins
    idx = ((vals - lo) / width).astype(np.int64)
    np.minimum(idx, n_bins - 1, out=idx)
    centers = lo + (np.arange(n_bins) + 0.5) * width
    # the grid is not needed after binning: reuse it, one grid-sized array fewer
    dev = np.subtract(vals, centers[idx], out=vals)
    s0 = np.bincount(idx, minlength=n_bins).astype(np.float64)
    s1 = np.bincount(idx, weights=dev, minlength=n_bins)
    s2 = np.bincount(idx, weights=dev * dev, minlength=n_bins)
    s3 = np.bincount(idx, weights=dev * dev * dev, minlength=n_bins)
    keep = s0 > 0
    return centers[keep], s0[keep], s1[keep], s2[keep], s3[keep], n_points, width


def _factor_from_bins(u: np.ndarray, bins) -> np.ndarray:
    centers, s0, s1, s2, s3, n_points, _ = bins
    u = np.atleast_1d(u)
    phase = np.exp(1j * np.outer(u, centers))
    iu = 1j * u[:, None]
    series = s0[None, :] + iu * s1[None, :] + iu**2 / 2 * s2[None, :] + iu**3 / 6 * s3[None, :]
    return (phase * series).sum(axis=1) / n_points


def char_factor(
    q: int,
    sigma,
    m: int,
    d_mod: int = DEFAULT_D_MOD,
    k_max: int = DEFAULT_K_MAX,
    refine_tol: float = 1e-9,
):
    """Factor average L(sigma, m); exactly 1 for vanishing components."""
    sig = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    if component_vanishes(m):
        out = np.ones(len(sig), dtype=complex)
        return out[0] if np.isscalar(sigma) or np.ndim(sigma) == 0 else out
    u = 2 * math.pi * sig
    val = _factor_from_bins(u, _phi_bins(q, m, d_mod, k_max, 0))
    for refine in range(1, 7):
        check = _factor_from_bins(u, _phi_bins(q, m, d_mod, k_max, refine))
        # relative accuracy suffices: factor errors enter the product
        # multiplicatively, so small factors tolerate small absolute shifts
        gap = np.abs(val - check) - refine_tol * (1 + np.abs(check))
        val = check
        if np.max(gap) <= 0:
            break
    else:
        raise BudgetError("factor average did not stabilize under refinement")
    return val[0] if np.isscalar(sigma) or np.ndim(sigma) == 0 else val


def char_tail_bound(sigma: float, m_max: int, probe: int = 20000) -> float:
    """Bound sigma^2 sum_{m > M} r2(m)^2 / m^(3/2) on the omitted factors."""
    total = 0.0
    for m in range(m_max + 1, probe + 1):
        if component_vanishes(m):
            continue
        total += r2(m) ** 2 / m**1.5
    # geometric-ish remainder of the probe itself
    total *= 1.2
    return sigma * sigma * total


def char_function(
    q: int,
    sigma,
    m_max: int = 60,
    d_mod: int = DEFAULT_D_MOD,
    k_max: int = DEFAULT_K_MAX,
    tail_variance: float = 0.0,
):
    """Product of factor averages over m <= m_max at real sigma.

    tail_variance > 0 multiplies in exp(-2 pi^2 sigma^2 V), the Gaussian
    closure of the omitted m > m_max components; their individual factor
    averages are 1 + O(sigma^2 r2(m)^2 / m^(3/2)).
    """
    sig = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    out = np.ones(len(sig), dtype=complex)
    for m in contributing_m(m_max):
        out *= char_factor(q, sig, m, d_mod, k_max)
    if tail_variance:
        out *= np.exp(-2 * math.pi**2 * tail_variance * sig * sig)
    return out[0] if np.isscalar(sigma) or np.ndim(sigma) == 0 else out


@dataclass
class DensityGrid:
    """Sampled characteristic function and inverted density."""

    q: int
    x: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    m_max: int
    cutoff: float
    step: float
    x_step: float
    tail_variance: float
    error_budget: dict = field(default_factory=dict)

    @property
    def total_error(self) -> float:
        return sum(self.error_budget.values())


def tail_variance_estimate(
    q: int,
    m_max: int,
    d_mod: int = DEFAULT_D_MOD,
    k_max: int = DEFAULT_K_MAX,
) -> float:
    """Variance not carried by the truncated factors up to m_max.

    Difference of the full direct-series variance and the second moments of
    the components exactly as truncated for the factor averages, so the
    Gaussian closure restores the total variance by construction.
    """
    total = variance_series(q).value
    head = sum(
        q_ergodic(q, m, 2, d_mod, k_max, _estimate_error=False).value
        for m in contributing_m(m_max)
    )
    return max(total - head, 0.0)


def density(
    q: int,
    m_max: int = 60,
    A: float | None = None,
    step: float | None = None,
    x_min: float | None = None,
    x_max: float | None = None,
    x_step: float | None = None,
    d_mod: int = DEFAULT_D_MOD,
    k_max: int = DEFAULT_K_MAX,
    tail_closure: bool = True,
) -> DensityGrid:
    """Limiting density on a grid by direct trapezoid Fourier inversion."""
    v_tail = tail_variance_estimate(q, m_max, d_mod, k_max) if tail_closure else 0.0
    variance = v_tail + sum(
        q2_closed(q, m, d_max=24, k_max=24).value for m in contributing_m(m_max)
    )
    sd = math.sqrt(max(variance, 1e-12))

    if A is None:
        A = _locate_cutoff(q, m_max, d_mod, k_max, v_tail, sd)
    probe = abs(complex(char_function(q, A, m_max, d_mod, k_max, v_tail)))
    if probe >= 1e-9:
        raise CutoffError(f"|Phi({A})| = {probe:.2e} has not decayed below 1e-9")

    if x_min is None:
        x_min = -8.0 * sd
    if x_max is None:
        x_max = 8.0 * sd
    if step is None:
        step = min(1.0 / (4 * A), 1.0 / (4 * max(abs(x_min), abs(x_max))))
    if x_step is None:
        x_step = sd / 50.0

    n_sig = int(math.ceil(A / step))
    sigma = np.arange(-n_sig, n_sig + 1) * step
    half = char_function(q, sigma[n_sig:], m_max, d_mod, k_max, v_tail)
    phi_vals = np.concatenate([np.conj(half[:0:-1]), half])

    x = np.arange(x_min, x_max + x_step / 2, x_step)
    # trapezoid weights are uniform except at the endpoints
    w = np.ones(len(sigma))
    w[0] = w[-1] = 0.5
    kernel = np.exp(-2j * math.pi * np.outer(x, sigma))
    p_complex = kernel @ (phi_vals * w) * step
    p = p_complex.real

    # Gaussian-envelope estimate of the |sigma| > A remainder
    cutoff_tail = 2 * probe / (4 * math.pi**2 * max(variance, 1e-12) * A)

    # coarsening estimate of the Gaussian-closure residual: redo the
    # transform with the closure applied already at m_max // 2 and integrate
    # the change; tail mass shrinks like M^(-1/2) per octave, so sum the
    # octave increments as a geometric series with ratio 2^(-1/2)
    closure_residual = 0.0
    if tail_closure and m_max >= 8:
        m_half = m_max // 2
        v_half = tail_variance_estimate(q, m_half, d_mod, k_max)
        half_coarse = char_function(q, sigma[n_sig:], m_half, d_mod, k_max, v_half)
        octave = 2.0 * float(np.sum(np.abs(half_coarse - half)) * step)
        closure_residual = octave * (2.0**-0.5) / (1.0 - 2.0**-0.5)

    # same coarsening idea for the component truncation itself: compare
    # against the product built from coarser components, with tail variance
    # rematched so the difference isolates the change of shape
    trunc_residual = 0.0
    if d_mod >= 4 and k_max >= 8:
        d_coarse = max(d_mod - 2, 2)
        k_coarse = k_max // 2
        v_coarse = (
            tail_variance_estimate(q, m_max, d_coarse, k_coarse) if tail_closure else 0.0
        )
        half_trunc = char_function(q, sigma[n_sig:], m_max, d_coarse, k_coarse, v_coarse)
        octave = 2.0 * float(np.sum(np.abs(half_trunc - half)) * step)
        trunc_residual = octave * (2.0**-0.5) / (1.0 - 2.0**-0.5)
    # trapezoid periodization: the nearest image of the density sits at
    # distance 1/step from the grid, far out in the Gaussian-type tail
    image_dist = 1.0 / step - max(abs(x_min), abs(x_max))
    aliasing = float(np.max(np.abs(p))) * math.exp(
        -min(image_dist**2 / (2 * max(variance, 1e-12)), 700.0)
    )
    budget = {
        "imag_noise": float(np.max(np.abs(p_complex.imag))),
        "cutoff_remainder": float(cutoff_tail),
        "factor_quadrature": 1e-9 * len(contributing_m(m_max)),
        "product_tail_at_A": float(min(char_tail_bound(A, m_max), 1.0)) if not tail_closure else 0.0,
        "tail_closure_residual": closure_residual,
        "truncation_residual": trunc_residual,
        "aliasing": aliasing,
    }
    return DensityGrid(
        q=q,
        x=x,
        p=p,
        sigma=sigma,
        phi=phi_vals,
        m_max=m_max,
        cutoff=A,
        step=step,
        x_step=x_step,
        tail_variance=v_tail,
        error_budget=budget,
    )


def _locate_cutoff(q, m_max, d_mod, k_max, v_tail, sd) -> float:
    a = 2.0 / sd
    for _ in range(40):
        val = abs(complex(char_function(q, a, m_max, d_mod, k_max, v_tail)))
        if val < 1e-12:
            return a
        a *= 1.3
    raise CutoffError("could not find a cutoff with |Phi| < 1e-12")


def cdf_and_moments(grid: DensityGrid, j_max: int = 3) -> dict:
    """Trapezoid CDF (clipped monotone) and power and |x|^lambda moments."""
    x, p = grid.x, grid.p
    pc = np.clip(p, 0.0, None)
    inc = (pc[1:] + pc[:-1]) / 2 * np.diff(x)
    cdf = np.concatenate([[0.0], np.cumsum(inc)])
    trapz = getattr(np, "trapezoid", None) or np.trapz
    moments = []
    for j in range(j_max + 1):
        moments.append(float(trapz(x**j * p, x)))
    abs_moments = {lam: float(trapz(np.abs(x) ** lam * p, x)) for lam in (1, 2)}
    return {"cdf": cdf, "moments": moments, "abs_moments": abs_moments}
