"""Almost periodic components: support, periodicity, bounds."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from heislat.phi import (
    _PHI_BLOCK,
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


def _factor(m):
    """{p: exponent} of m, by trial division over every integer 2 <= p <= sqrt(m)."""
    out, p = {}, 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def test_component_rule_matches_definition():
    # phi_m vanishes exactly when some prime divides m twice or is 3 mod 4
    for m in range(1, 5001):
        exps = _factor(m)
        assert component_vanishes(m) == any(e >= 2 or p % 4 == 3 for p, e in exps.items()), m
    assert not component_vanishes(10) and not component_vanishes(65)  # 2 * 5, 5 * 13
    assert component_vanishes(12) and component_vanishes(21)  # 2^2 * 3, 3 * 7
    with pytest.raises(ValueError, match="need m >= 1"):
        component_vanishes(0)


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
        assert trunc(1.5) == 0.0
        assert all(len(part) == 0 for part in trunc.spectrum())
        assert np.max(np.abs(trunc.grid_values(trunc.period * 4))) == 0.0


@pytest.mark.parametrize(
    "q, m, d_max, k_max, n_t",
    [(3, 1, 8, 64, 301), (4, 2, 12, 16, 301), (5, 5, 8, 8, 301), (3, 1, 128, 16, 301), (3, 2, 6, 8, 2 * _PHI_BLOCK + 7)],
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


def _exact_phase_sum(trunc, t: float) -> float:
    """phi at the float t = p / s in mpmath, each phase num t / den reduced mod 1 exactly."""
    p, s = t.as_integer_ratio()
    total = mpmath.mpf(0)
    with mpmath.workdps(30):
        for n, d, a in zip(*(arr.tolist() for arr in trunc.spectrum())):
            theta = 2 * mpmath.pi * mpmath.mpf(n * p % (d * s)) / (d * s)
            total += a.real * mpmath.cos(theta) - a.imag * mpmath.sin(theta)
    return float(total)


def _edge_points(trunc, rng) -> list[float]:
    """Exact multiples of every denominator D and t near 2^40, each with both float neighbours.

    The denominators go into groups of lcm L <= 2^40, and t = j L is a
    multiple of every D of its group.
    """
    groups = [1]
    for D in sorted(set(trunc.spectrum()[1].tolist())):
        if math.lcm(groups[-1], D) > 2**40:
            groups.append(1)
        groups[-1] = math.lcm(groups[-1], D)
    t = [float(int(rng.integers(1, 2**40 // L + 1)) * L) for L in groups]
    t += [2.0**40, 2.0**40 + 2.0**-12 * int(rng.integers(1, 2**20))]
    return [u for x in t for u in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]


@pytest.mark.parametrize("m", [1, 2, 13])
def test_call_accuracy_at_large_t(m):
    # dyadic t in [1e5, 1e6]: a phase 2 pi (num/den) t rounded in float64 is off
    # by up to 3e-8 rad, which summed over the terms errs by several 1e-9.
    # At t = j D the reduction t mod D is 0, just below D or just above 0
    rng = np.random.default_rng(m)
    t = (rng.integers(10**5 << 10, 10**6 << 10, 12) / 2**10).tolist()
    trunc = build_phi(3, m, 64, 64)
    t += _edge_points(trunc, rng)
    want = np.array([_exact_phase_sum(trunc, x) for x in t])
    got = trunc(np.array(t))
    assert np.max(np.abs(got - want)) <= 1e-11 * (1 + np.max(np.abs(want)))


def test_call_scalar_negative_and_zero():
    trunc = build_phi(3, 1, 8, 64)
    t = np.array([-1234.5, -37.25, -3.1, -1e-3, 0.0, 1e-3, 2.5])
    vals = trunc(t)
    assert np.max(np.abs(vals - _term_sum(trunc, t))) <= 1e-12 + _phase_err(trunc, np.max(np.abs(t)))
    for x, v in zip(t, vals):
        # numpy's cos and sin may round a lone point and a vector lane differently
        one = trunc(x)
        assert np.ndim(one) == 0 and abs(one - v) <= 1e-13


def test_call_memory_does_not_grow_with_points():
    # beyond its output, __call__ holds O(_PHI_BLOCK) working memory whatever len(t)
    trunc = build_phi(3, 2, 16, 16)
    trunc.spectrum()
    working = []
    for n in (2 * _PHI_BLOCK + 7, 16 * _PHI_BLOCK + 7):
        t = np.linspace(0.0, 1e4, n)
        tracemalloc.start()
        out = trunc(t)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        working.append(peak - out.nbytes)
    assert working[0] <= 48 * _PHI_BLOCK  # 40 bytes a point of t mod den, z and accumulator
    assert working[1] <= working[0] + 4096


def test_build_phi_shared_and_read_only():
    trunc = build_phi(3, 2, 8, 16)
    assert build_phi(3, 2, 8, 16) is trunc
    for arr in (trunc.k, trunc.d, trunc.coef, trunc.is_cos, *trunc.spectrum()):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_truncation_period():
    trunc = build_phi(3, 1, 4, 8)
    assert trunc.period == 12  # lcm of the denominators 1, 3 and 4
    t = np.linspace(0, 12, 37)
    assert np.max(np.abs(trunc(t) - trunc(t + 12))) < 1e-10


@pytest.mark.parametrize(
    "q, m, d_max, k_max, period", [(3, 1, 12, 64, 27720), (3, 34, 12, 64, 495), (3, 41, 8, 64, 40)]
)
def test_period_is_own(q, m, d_max, k_max, period):
    # each component's period is the lcm of its own denominators, a divisor
    # of lcm(1..d_max) and for m > 1 far below it
    trunc = build_phi(q, m, d_max, k_max)
    assert trunc.period == period
    assert math.lcm(*range(1, d_max + 1)) % period == 0


def test_grid_values_match_pointwise():
    # (q, m, d_max, k_max, points per period, stride of the checked points):
    # at 8 points per period with k_max = 8 the bins k * period / d pass
    # n / 2 and alias, k/d = 4 onto bin n / 2 and k/d = 8 onto bin 0; 15 and
    # 21 points are odd lengths, with no bin n / 2 and bins past n / 2 folded;
    # the 840 * 256 points of the last grid are checked at every 97th
    for q, m, d_max, k_max, per, stride in [
        (3, 1, 4, 8, 16, 1),
        (4, 2, 4, 8, 16, 1),
        (3, 5, 4, 8, 16, 1),
        (3, 1, 4, 8, 8, 1),
        (3, 1, 3, 8, 5, 1),
        (3, 2, 7, 8, 3, 1),
        (3, 1, 8, 64, 256, 97),
    ]:
        trunc = build_phi(q, m, d_max, k_max)
        n = trunc.period * per
        grid = trunc.grid_values(n)
        j = np.arange(0, n, stride)
        # the pointwise reference rounds each phase 2 pi (k/d) t in float64
        bound = 1e-12 + _phase_err(trunc, trunc.period)
        assert np.max(np.abs(grid[j] - trunc(j * (trunc.period / n)))) <= bound


def test_part_grids_match_pointwise():
    # phi_1 at d_max 16 splits into the lone primes 11 and 13 (period 143) and
    # the coupled rest (period 5040, 645120 points at 128 per unit t); by the
    # Chinese remainder theorem phi(i / n) is the sum of their rows i mod P n
    trunc = build_phi(3, 1, 16, 32)
    n = 128
    lone = np.isin(trunc.spectrum()[1], [11, 13])
    grids = [trunc.grid_values(P * n, part) for P, part in ((5040, ~lone), (143, lone))]
    assert len(grids[0]) >= 2**16
    i = np.arange(0, trunc.period * n, 46337)
    got = grids[0][i % len(grids[0])] + grids[1][i % len(grids[1])]
    bound = 1e-12 + _phase_err(trunc, trunc.period)
    assert np.max(np.abs(got - trunc(i / n))) <= bound


def test_grid_values_memory():
    # the grid build stays below the six block-sized arrays that
    # distribution.BLOCK_BYTES allows _phi_bins per block
    trunc = build_phi(3, 1, 8, 64)
    n = trunc.period * 1024
    assert n >= 2**19
    trunc.spectrum()  # cached, so only the grid build is traced
    tracemalloc.start()
    try:
        trunc.grid_values(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * n


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
