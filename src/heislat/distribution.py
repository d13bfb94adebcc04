"""Characteristic function and limiting density by Fourier inversion.

The characteristic function is a product over components m of factor
averages L(sigma, m) = mean of exp(2 pi i sigma phi_m(t)) over a period of
the truncated component, each from one period grid: the coarsest whose
trapezoid error a strip bound certifies below 1e-9.  The product is cut at
m <= M and a Gaussian factor closes off the variance of the omitted ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arithmetic import BudgetError, _frozen
from .moments import _modulus_step, _octave_tail, variance_series
from .phi import build_phi, component_vanishes, contributing_m

DEFAULT_D_MOD = 8
DEFAULT_K_MAX = 64
N_BINS = 8192
QUAD_TOL = 1e-9
# _phi_bins' cap on one block, in bytes: binning keeps about six float64/int64
# arrays of the block's size live at once, so 2^29 bytes is about 1.1e7 points.
# The grid build (two bincounts, the half spectrum, the output and the FFT scratch)
# stays below those six, so this one constant is the only memory rule for period grids.
BLOCK_BYTES = 2**29


class CutoffError(BudgetError):
    """The characteristic function has not decayed below 1e-9 at the cutoff."""


def _points_per_unit(k_max: int, refine: int) -> int:
    """Period-grid points per unit t: the power of two >= 4 k_max, times 2^refine."""
    return 1 << ((4 * k_max - 1).bit_length() + refine)


@lru_cache(maxsize=None)
def _strip_bound(q: int, m: int, d_mod: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Heights y, with 2 pi n y <= 700 at level 0, and S(y) = sum |a| sinh(2 pi f y) over phi_m's spectrum."""
    num, den, a = build_phi(q, m, d_mod, k_max).spectrum()
    y = np.geomspace(1e-4, 1.0, 128) * 700 / (2 * math.pi * _points_per_unit(k_max, 0))
    return _frozen(y, np.sinh(2 * math.pi * np.outer(y, num / den)) @ np.abs(a))


def _quadrature_level(q: int, m: int, d_mod: int, k_max: int, u_max: float):
    """Coarsest refine level whose period grid averages e^{i u phi_m} within
    QUAD_TOL for all |u| <= u_max, and that error bound.

    |Im phi_m(x + iy)| <= S(y) (_strip_bound), so the periodic trapezoid rule
    with n points per unit t errs by at most 2 e^{u S(y)} / (e^{2 pi n y} - 1)
    (Trefethen & Weideman, SIAM Rev. 2014), minimized in log space over y with
    2 pi n y <= 700 at level 0: n >= 4 f keeps 2 pi f y <= 175, so S stays
    finite.
    """
    y, s = _strip_bound(q, m, d_mod, k_max)
    for refine in range(7):
        ny = 2 * math.pi * _points_per_unit(k_max, refine) * y
        log_err = float(np.min(math.log(2) + u_max * s - ny - np.log(-np.expm1(-ny))))
        if log_err <= math.log(QUAD_TOL):
            return refine, math.exp(log_err)
    raise BudgetError(f"no period grid up to refine 6 averages phi_{m} within {QUAD_TOL}")


@lru_cache(maxsize=None)
def _phi_bins(q: int, m: int, d_mod: int, k_max: int, refine: int):
    """(c0, S, n_points, width): phi_m's period grid in N_BINS equispaced bins.

    S[r, j] sums (phi - c_j)^r, r <= 3, over bin j, centred at c_j = c0 + j w; empty
    bins stay.  |phi - c_j| <= w/2 bounds the cubic Taylor remainder by (|u| w/2)^4 / 24.

    A prime p > d_mod / 2 divides no modulus d <= d_mod but p, so the spectrum
    splits into the lone part (denominators such p) and the coupled rest, with
    coprime periods P_l and P_c.  With n points per unit t, phi(i/n + r) is the
    sum of the two parts' grids at rows r mod P_c and r mod P_l: by the Chinese
    remainder theorem each point of the period grid is one (row, row) pair,
    exactly.  The grid is binned block by block, one row of the shorter part
    added to the whole longer one, so memory stays O(max(P_c, P_l) n); the bin
    range is exact, since rounded addition is monotone.
    """
    trunc = build_phi(q, m, d_mod, k_max)
    n = _points_per_unit(k_max, refine)
    den = trunc.spectrum()[1]
    primes = [p for p in range(2, d_mod + 1) if 2 * p > d_mod and all(p % r for r in range(2, p))]
    lone = np.isin(den, primes)
    parts = (~lone, lone)
    periods = [math.lcm(1, *den[part].tolist()) for part in parts]
    block = max(periods) * n
    if 6 * 8 * block > BLOCK_BYTES:
        raise BudgetError(
            f"period grid block of {block} points needs over {BLOCK_BYTES >> 20} MB; lower d_mod or the refinement"
        )
    grids = [trunc.grid_values(P * n, part).reshape(P, n) for P, part in zip(periods, parts)]
    small, big = sorted(grids, key=len)
    lo = float((big.min(axis=0) + small.min(axis=0)).min())
    width = max(float((big.max(axis=0) + small.max(axis=0)).max()) - lo, 1e-12) / N_BINS
    centers = lo + (np.arange(N_BINS) + 0.5) * width
    s = np.zeros((4, N_BINS))
    # one block of values (then deviations), one scratch and one of bin indices, reused
    vals, tmp, idx = np.empty(big.size), np.empty(big.size), np.empty(big.size, np.int64)
    for row in small:
        np.add(big, row, out=vals.reshape(big.shape))
        np.subtract(vals, lo, out=tmp)
        tmp /= width
        np.copyto(idx, tmp, casting="unsafe")
        np.minimum(idx, N_BINS - 1, out=idx)
        dev = np.subtract(vals, np.take(centers, idx, out=tmp), out=vals)
        sq = np.multiply(dev, dev, out=tmp)
        s[:3] += [np.bincount(idx, w, N_BINS) for w in (None, dev, sq)]
        s[3] += np.bincount(idx, np.multiply(sq, dev, out=sq), N_BINS)
    return centers[0], s, trunc.period * n, width


def _factor_from_bins(u, bins) -> np.ndarray:
    """sum_j e^{i u c_j} sum_r (i u)^r / r! S[r, j] / n_points for each u.

    j = 64 a + b splits e^{i u c_j} into e^{i u (c0 + 64 w a)} e^{i u w b}: one matrix
    product sums over b, one einsum over a; 192 exps per u, no len(u) x N_BINS array.
    """
    c0, s, n_points, width = bins
    u = np.atleast_1d(u)
    outer = np.exp(1j * np.outer(u, c0 + 64 * width * np.arange(N_BINS // 64)))
    inner = np.exp(1j * width * np.outer(np.arange(64), u))
    # real (4 * 128, 64) @ complex (64, len(u)), as one real product on (re, im)
    part = (s.reshape(-1, 64) @ inner.view(np.float64)).view(np.complex128)
    t = np.einsum("rau,ua->ru", part.reshape(4, -1, len(u)), outer)
    return sum((1j * u) ** r / math.factorial(r) * t[r] for r in range(4)) / n_points


def char_factor(q: int, sigma, m: int, d_mod: int = DEFAULT_D_MOD, k_max: int = DEFAULT_K_MAX):
    """Factor average L(sigma, m); exactly 1 for vanishing components.

    One period grid, at the level _quadrature_level picks for the largest
    |2 pi sigma|, gives L within QUAD_TOL plus the _phi_bins Taylor remainder;
    _factor_from_bins evaluates it at every sigma on one separable-phase path.
    """
    sig = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    if component_vanishes(m):
        val = np.ones(len(sig), dtype=complex)
    else:
        u = 2 * math.pi * sig
        refine, _ = _quadrature_level(q, m, d_mod, k_max, float(np.max(np.abs(u), initial=0.0)))
        val = _factor_from_bins(u, _phi_bins(q, m, d_mod, k_max, refine))
    return val[0] if np.ndim(sigma) == 0 else val


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
    """Inverted density p on the grid x, its truncation box, sigma cutoff and step, and error budget."""

    q: int
    x: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    m_max: int
    d_mod: int
    k_max: int
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
    Gaussian closure restores the total variance by construction.  By Parseval
    a component's mean square is 1/2 sum |a|^2 over its spectrum, q_ergodic's l = 2.
    """
    total = variance_series(q).value
    spectra = (build_phi(q, m, d_mod, k_max).spectrum()[2] for m in contributing_m(m_max))
    return max(total - sum(float(np.vdot(a, a).real) / 2 for a in spectra), 0.0)


def density(
    q: int,
    m_max: int = 60,
    A: float | None = None,
    step: float | None = None,
    x_min: float | None = None,
    x_max: float | None = None,
    d_mod: int = DEFAULT_D_MOD,
    k_max: int = DEFAULT_K_MAX,
) -> DensityGrid:
    """Limiting density on a grid of spacing sd/50 by direct trapezoid Fourier inversion.

    The density is real, so Phi(-sigma) = conj Phi(sigma), and the trapezoid
    rule over [-A, A] folds onto sigma = 0, step, ..., A with weights 1 at
    both ends and 2 between: p = Re(e^{-2 pi i x sigma} @ (Phi w)) step.
    The omitted components m > m_max enter as a Gaussian closure factor.
    error_budget bounds or estimates each source of error in p, pointwise;
    factor_quadrature is the certified bound 2 sigma_max sum_m (bound_m +
    taylor_m) of _quadrature_level and the _phi_bins Taylor remainder.
    tail_closure_residual and truncation_residual coarsen to m_max // 2 and
    to _modulus_step(d_mod, k_max), so m_max < 8 or a box with no coarser
    step raises ValueError, and so does a given A or step that is not
    finite and > 0, or a grid [x_min, x_max] that is not finite with
    x_min < x_max, before any inversion work.  BudgetError, before the sigma
    and x grids are allocated, when the arrays char_function holds over the
    sigma grid or the len(x) x len(sigma) complex inversion array would pass
    BLOCK_BYTES.
    """
    if m_max < 8:
        raise ValueError(f"m_max = {m_max} has no coarser closure for its error estimate; need m_max >= 8")
    for name, val in (("A", A), ("step", step)):
        if val is not None and not 0 < val < math.inf:
            raise ValueError(f"need a finite {name} > 0, got {name} = {val}")
    coarse_box = _modulus_step(d_mod, k_max)
    # the variance the Gaussian closure restores, as tail_variance_estimate says
    variance = variance_series(q).value
    sd = math.sqrt(max(variance, 1e-12))
    if x_min is None:
        x_min = -8.0 * sd
    if x_max is None:
        x_max = 8.0 * sd
    if not -math.inf < x_min < x_max < math.inf:
        raise ValueError(f"need finite x_min < x_max, got [{x_min}, {x_max}]")
    v_tail = tail_variance_estimate(q, m_max, d_mod, k_max)

    if A is None:
        A, probe = _locate_cutoff(q, m_max, d_mod, k_max, v_tail, sd)
    else:
        probe = abs(complex(char_function(q, A, m_max, d_mod, k_max, v_tail)))
    if probe >= 1e-9:
        raise CutoffError(f"|Phi({A})| = {probe:.2e} has not decayed below 1e-9")

    if step is None:
        step = min(1.0 / (4 * A), 1.0 / (4 * max(abs(x_min), abs(x_max))))
    x_step = sd / 50.0
    # grid sizes as floats, so an absurd step fails here and not in an int conversion;
    # per sigma, _factor_from_bins holds 5 N_BINS / 64 + 64 complex values
    n_sigma, n_x = A / step + 2, (x_max - x_min) / x_step + 2
    if 16 * n_sigma * max(5 * N_BINS // 64 + 64, n_x) > BLOCK_BYTES:
        raise BudgetError(
            f"{n_sigma:.3g} sigma by {n_x:.3g} x points need over {BLOCK_BYTES >> 20} MB; "
            "raise step or narrow [x_min, x_max]"
        )

    sigma = np.arange(int(math.ceil(A / step)) + 1) * step
    phi = char_function(q, sigma, m_max, d_mod, k_max, v_tail)
    x = np.arange(x_min, x_max + x_step / 2, x_step)
    w = np.full(len(sigma), 2.0)
    w[0] = w[-1] = 1.0
    p = (np.exp(-2j * math.pi * np.outer(x, sigma)) @ (phi * w)).real * step

    # Gaussian-envelope estimate of the |sigma| > A remainder
    cutoff_tail = 2 * probe / (4 * math.pi**2 * max(variance, 1e-12) * A)

    def coarsened(m, d, k):
        # redo the product at coarser knobs, tail variance rematched, integrate
        # the change over +-sigma; tail mass shrinks like 2^(-1/2) per octave
        coarse = char_function(q, sigma, m, d, k, tail_variance_estimate(q, m, d, k))
        return _octave_tail(2.0 * float(np.sum(np.abs(coarse - phi)) * step))

    # the Gaussian closure, applied already at m_max // 2, and the truncation
    # of the components themselves, at the next coarser box
    closure_residual = coarsened(m_max // 2, d_mod, k_max)
    trunc_residual = coarsened(m_max, *coarse_box)
    # trapezoid periodization: the nearest image of the density sits at
    # distance 1/step from the grid, far out in the Gaussian-type tail
    image_dist = 1.0 / step - max(abs(x_min), abs(x_max))
    aliasing = float(np.max(np.abs(p))) * math.exp(
        -min(image_dist**2 / (2 * max(variance, 1e-12)), 700.0)
    )
    # |Delta p| <= integral over |sigma| <= sigma_max of |Delta Phi|, and each
    # factor error enters Phi at most once since all factors are <= 1
    u_max = 2 * math.pi * float(sigma[-1])
    quadrature = 0.0
    for m in contributing_m(m_max):
        refine, bound = _quadrature_level(q, m, d_mod, k_max, u_max)
        width = _phi_bins(q, m, d_mod, k_max, refine)[-1]
        quadrature += bound + (u_max * width / 2) ** 4 / 24
    budget = {
        "cutoff_remainder": float(cutoff_tail),
        "factor_quadrature": 2 * float(sigma[-1]) * quadrature,
        "tail_closure_residual": closure_residual,
        "truncation_residual": trunc_residual,
        "aliasing": aliasing,
    }
    return DensityGrid(
        q=q, x=x, p=p, m_max=m_max, d_mod=d_mod, k_max=k_max,
        cutoff=A, step=step, x_step=x_step, tail_variance=v_tail, error_budget=budget,
    )


def _locate_cutoff(q, m_max, d_mod, k_max, v_tail, sd) -> tuple[float, float]:
    """The first A = (2/sd) 1.3^i with |Phi(A)| < 1e-12, and that |Phi(A)|."""
    a = 2.0 / sd
    for _ in range(40):
        val = abs(complex(char_function(q, a, m_max, d_mod, k_max, v_tail)))
        if val < 1e-12:
            return a, val
        a *= 1.3
    raise CutoffError("could not find a cutoff with |Phi| < 1e-12")


def cdf_and_moments(grid: DensityGrid) -> dict:
    """Trapezoid CDF (clipped monotone), power moments 0..3 and |x|^lam moments, lam in (0, 2]."""
    x, p = grid.x, grid.p
    pc = np.clip(p, 0.0, None)
    inc = (pc[1:] + pc[:-1]) / 2 * np.diff(x)
    cdf = np.concatenate([[0.0], np.cumsum(inc)])
    moments = [float(np.trapezoid(x**j * p, x)) for j in range(4)]
    abs_moments = {lam: float(np.trapezoid(np.abs(x) ** lam * p, x)) for lam in (0.5, 1, 1.5, 2)}
    return {"cdf": cdf, "moments": moments, "abs_moments": abs_moments}
