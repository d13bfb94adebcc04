"""Characteristic function and Fourier-inverted limiting density."""

import tracemalloc
import warnings

import numpy as np
import pytest

from heislat import distribution
from heislat.arithmetic import BudgetError
from heislat.distribution import (
    CutoffError,
    cdf_and_moments,
    char_factor,
    char_function,
    contributing_m,
    density,
    tail_variance_estimate,
)
from heislat.phi import build_phi

# the half sigma grid of density(3) at its defaults, and criterion 6's scattered +-sigma
HALF_GRID = np.arange(85) * 0.004264855625138066
SCATTERED = np.array([-0.23, -0.11, -0.05, 0.05, 0.11, 0.23]) * 0.34979989491394736


def direct_factor(u, bins):
    # one exp per (u, bin) and the Taylor series in each bin, summed over bins
    c0, s, n_points, width = bins
    u = np.atleast_1d(u)
    centers = c0 + width * np.arange(distribution.N_BINS)
    iu = 1j * u[:, None]
    series = s[0] + iu * s[1] + iu**2 / 2 * s[2] + iu**3 / 6 * s[3]
    return (np.exp(1j * np.outer(u, centers)) * series).sum(axis=1) / n_points


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


def full_grid_bins(q, m, d_mod, k_max, refine):
    # the whole period grid from one FFT, binned at once
    trunc = build_phi(q, m, d_mod, k_max)
    n_points = trunc.period * distribution._points_per_unit(k_max, refine)
    vals = trunc.grid_values(n_points)
    lo = float(vals.min())
    width = max(float(vals.max()) - lo, 1e-12) / distribution.N_BINS
    idx = np.minimum(((vals - lo) / width).astype(np.int64), distribution.N_BINS - 1)
    dev = vals - (lo + (idx + 0.5) * width)
    s = np.stack([np.bincount(idx, dev**r, distribution.N_BINS) for r in range(4)])
    return lo + 0.5 * width, s, n_points, width


@pytest.mark.parametrize(
    "m, refine", [(1, 1), (2, 2), (13, 2)], ids=["lone-5-7", "no-coupled", "no-lone"]
)
def test_crt_bins_match_full_grid(m, refine):
    # phi_1 splits into a coupled part of period 24 and lone primes 5 and 7;
    # phi_2's spectrum past den 1 is den 7; phi_13's denominators 1 and 3
    # hold no lone prime, so its grid is one block
    got = distribution._phi_bins(3, m, 8, 64, refine)
    want = full_grid_bins(3, m, 8, 64, refine)
    assert got[2] == want[2]
    assert got[0] == pytest.approx(want[0], abs=1e-13)
    assert got[3] == pytest.approx(want[3], rel=1e-13)
    # no value sits within rounding of a bin edge, so the counts agree exactly;
    # each centred power moves by the rounding of the values it sums
    assert np.array_equal(got[1][0], want[1][0])
    for r in (1, 2, 3):
        bound = want[1][0] * r * (want[3] / 2) ** (r - 1) * 1e-13
        assert np.all(np.abs(got[1][r] - want[1][r]) <= bound)
    u = 2 * np.pi * np.concatenate([HALF_GRID, SCATTERED])
    gap = distribution._factor_from_bins(u, got) - distribution._factor_from_bins(u, want)
    assert np.max(np.abs(gap)) <= 1e-14


def test_crt_bins_past_the_full_grid_cap():
    # phi_1 at d_mod 16 has period 720720: 92M points at 128 per unit, over
    # the 2^26 a single grid may hold, binned as 143 blocks of 5040 * 128
    tracemalloc.start()
    try:
        c0, s, n_points, width = distribution._phi_bins.__wrapped__(3, 1, 16, 32, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_points == 720720 * 128 > 2**26
    assert s[0].sum() == n_points
    assert peak < 64 * 2**20
    # a block over the cap still raises: 5040 * 16384 points at refine 6, about
    # 4 GB to bin, where BLOCK_BYTES = 2^29 allows about 1.1e7 points
    assert 6 * 8 * 5040 * 16384 > distribution.BLOCK_BYTES
    with pytest.raises(BudgetError):
        distribution._phi_bins(3, 1, 16, 64, 6)


@pytest.mark.parametrize("m", [1, 13])
@pytest.mark.parametrize(
    "sigma", [0.0, 0.17, HALF_GRID, SCATTERED], ids=["zero", "scalar", "half-grid", "scattered"]
)
def test_factor_from_bins_matches_direct_sum(m, sigma):
    u = 2 * np.pi * np.asarray(sigma)
    refine, _ = distribution._quadrature_level(3, m, 6, 32, float(np.max(np.abs(u))))
    bins = distribution._phi_bins(3, m, 6, 32, refine)
    got = distribution._factor_from_bins(u, bins)
    assert got.shape == np.atleast_1d(u).shape
    assert np.max(np.abs(got - direct_factor(u, bins))) <= 1e-13


@pytest.mark.parametrize("width", [1e-12 / distribution.N_BINS, 0.01])
def test_factor_from_bins_point_mass(width):
    # all mass in one bin with zero centered moments: the factor is exactly
    # e^{i u c_j}; the first width is the one _phi_bins gives a constant phi
    j, c0, n_points = 64 * 77 + 13, -3.7, 1000
    s = np.zeros((4, distribution.N_BINS))
    s[0, j] = n_points
    u = 2 * np.pi * np.concatenate([HALF_GRID, SCATTERED])
    got = distribution._factor_from_bins(u, (c0, s, n_points, width))
    assert np.max(np.abs(got - np.exp(1j * u * (c0 + j * width)))) <= 1e-13


def test_factor_from_bins_forms_no_sigma_by_bins_array():
    bins = distribution._phi_bins(3, 1, 6, 32, 0)
    u = 2 * np.pi * HALF_GRID
    # a len(u) x N_BINS complex array alone would take eight times the limit
    tracemalloc.start()
    try:
        distribution._factor_from_bins(u, bins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(u) * distribution.N_BINS * 16 / 8


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


def test_density_abs_moments(small_grid):
    rep = cdf_and_moments(small_grid)
    lam_moments = rep["abs_moments"]
    assert list(lam_moments) == [0.5, 1, 1.5, 2]
    assert lam_moments[2] == pytest.approx(rep["moments"][2], rel=1e-12)
    # Lyapunov: (E|X|^lam)^(1/lam) increases with lam
    norms = [v ** (1 / lam) for lam, v in lam_moments.items()]
    assert np.all(np.diff(norms) > 0)


def test_density_negative_skew(small_grid):
    rep = cdf_and_moments(small_grid)
    assert rep["moments"][3] < 0


def test_density_budget_entries(small_grid):
    budget = small_grid.error_budget
    assert all(v >= 0 for v in budget.values())
    # a computed bound, below the 1e-9 per component once assumed
    assert 0 < budget["factor_quadrature"] < 1e-9 * len(contributing_m(small_grid.m_max))
    assert small_grid.total_error == pytest.approx(sum(budget.values()))


@pytest.mark.parametrize("A", [None, 0.25])
def test_density_matches_two_sided_inversion(small_grid, A):
    # the trapezoid rule over [-A, A] with Phi formed at both signs of sigma;
    # at A = 0.25, |Phi(A)| is about 6e-10, so the weight at A shows in p
    grid = small_grid if A is None else density(3, m_max=30, d_mod=4, k_max=32, A=A)
    n_sig = int(np.ceil(grid.cutoff / grid.step))
    sigma = np.arange(-n_sig, n_sig + 1) * grid.step
    phi = char_function(3, sigma, grid.m_max, grid.d_mod, grid.k_max, grid.tail_variance)
    w = np.ones(len(sigma))
    w[0] = w[-1] = 0.5
    p = (np.exp(-2j * np.pi * np.outer(grid.x, sigma)) @ (phi * w) * grid.step).real
    assert np.max(np.abs(p - grid.p)) <= 1e-15


def test_density_records_its_box(small_grid):
    assert (small_grid.m_max, small_grid.d_mod, small_grid.k_max) == (30, 4, 32)


@pytest.mark.parametrize("box", [{"d_mod": 3}, {"k_max": 4}, {"m_max": 7}])
def test_density_without_coarse_box_raises(box):
    # truncation_residual and tail_closure_residual need a coarser box
    with pytest.raises(ValueError):
        density(3, **{"m_max": 30, "d_mod": 4, "k_max": 32, **box})


@pytest.mark.parametrize("grid", [{"step": 1e-12}, {"step": 5e-324}, {"x_min": -1e6, "x_max": 1e6}])
def test_density_grid_budget_raises_before_allocating(small_grid, grid):
    # the sigma grid or the x by sigma inversion array would pass BLOCK_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="sigma by"):
            density(3, m_max=30, d_mod=4, k_max=32, A=small_grid.cutoff, **grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < distribution.BLOCK_BYTES // 16


def test_density_rejects_undecayed_cutoff():
    with pytest.raises(CutoffError):
        density(3, m_max=30, A=0.01, d_mod=4, k_max=32)


def test_density_probes_each_cutoff_once(small_grid, monkeypatch):
    # the search's last |Phi(A)| is the probe; a given A is probed by density itself
    scalars = []
    real = distribution.char_function

    def spy(q, sigma, *args):
        if np.ndim(sigma) == 0:
            scalars.append(sigma)
        return real(q, sigma, *args)

    monkeypatch.setattr(distribution, "char_function", spy)
    located = density(3, m_max=30, d_mod=4, k_max=32)
    assert len(scalars) == len(set(scalars)) and scalars[-1] == located.cutoff
    given = density(3, m_max=30, d_mod=4, k_max=32, A=small_grid.cutoff)
    assert located.error_budget["cutoff_remainder"] == small_grid.error_budget["cutoff_remainder"]
    assert given.error_budget["cutoff_remainder"] == small_grid.error_budget["cutoff_remainder"]
