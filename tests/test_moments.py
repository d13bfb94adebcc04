"""Component moments: three independent routes must agree."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from heislat import moments
from heislat.arithmetic import BudgetError, chi4, eps_sign, two_square_reps, zeta_value
from heislat.distribution import tail_variance_estimate
from heislat.moments import (
    _frak_items,
    _frak_table,
    _moment_prefactor,
    _power_mean,
    density_moment,
    q2_closed,
    q_analytic,
    q_ergodic,
    third_moment_sum,
    variance_series,
)
from heislat.phi import PhiTruncation, build_phi


def test_first_moment_vanishes():
    for q, m in [(3, 1), (3, 2), (4, 5)]:
        mv = q_analytic(q, m, 1)
        assert abs(mv.value) < 1e-12


def test_vanishing_component_moments_zero():
    for route in (q2_closed,):
        mv = route(3, 3)
        assert mv.value == 0.0
    assert q_analytic(3, 9, 2).value == 0.0
    assert q_ergodic(4, 21, 2).value == 0.0


def test_second_moment_closed_equals_analytic():
    for q, m in [(3, 1), (3, 2), (4, 1), (4, 5)]:
        c = q2_closed(q, m, d_max=16, k_max=16)
        a = q_analytic(q, m, 2, d_max=16, k_max=16)
        assert a.value == pytest.approx(c.value, rel=1e-10)


def test_second_moment_ergodic_consistent():
    c = q2_closed(3, 2)
    e = q_ergodic(3, 2, 2)
    assert abs(c.value - e.value) <= c.error + e.error


@pytest.mark.parametrize("d_mod, k_max", [(8, 64), (8, 8)])
@pytest.mark.parametrize("q, m", [(3, 1), (3, 2), (4, 5), (5, 5)])
def test_ergodic_matches_grid_quadrature(q, m, d_mod, k_max):
    # on P * 2^s points with 2^s > l * k_max the trapezoid rule averages the
    # trigonometric polynomial phi^l exactly
    trunc = build_phi(q, m, d_mod, k_max)
    pow2 = 1
    while pow2 <= 4 * k_max:
        pow2 *= 2
    vals = trunc.grid_values(trunc.period * pow2)
    for ell in (2, 3, 4):
        want = float(np.mean(vals**ell))
        got = q_ergodic(q, m, ell, d_mod, k_max).value
        assert got == pytest.approx(want, rel=1e-12)


def test_ergodic_and_tail_variance_build_no_grid(monkeypatch):
    def no_grid(self, n_points):
        raise AssertionError("period grid built")

    monkeypatch.setattr(PhiTruncation, "grid_values", no_grid)
    assert q_ergodic(3, 13, 2, 12, 64).value > 0
    assert tail_variance_estimate(3, 60, 12, 64) == pytest.approx(5.567791700001649, rel=1e-13)


def test_ergodic_budget_raises():
    # l = 5 convolves the two-sided spectrum of the default box twice
    with pytest.raises(BudgetError):
        q_ergodic(3, 1, 5)
    with pytest.raises(ValueError):
        q_ergodic(3, 1, 0)


@pytest.mark.parametrize(
    "m, ergodic, analytic",
    [(1, -81.64058876137494, -78.77074000758722), (5, -9.479070718691084, -9.311244783317957)],
)
def test_third_moment_pinned(m, ergodic, analytic):
    # stored Q(m, 3) at box (8, 8).  q_ergodic counts frequencies in units of
    # 1 / period of phi_m: 840 for m = 1, 1 for m = 5.  Negating _frak_branch
    # on d = 0 mod 4 moves the analytic Q(1, 3) to -87.55; the error bars of
    # both routes are too wide for a cross-route check to see that
    got = q_ergodic(3, m, 3, 8, 8).value
    assert got == pytest.approx(ergodic, rel=1e-12)
    assert q_analytic(3, m, 3, 8, 8).value == pytest.approx(analytic, rel=1e-12)


@pytest.mark.parametrize(
    "route, box, coarse",
    [
        (lambda q, m, d, k: q_analytic(q, m, 3, d, k), (8, 8), (4, 4)),
        (lambda q, m, d, k: q2_closed(q, m, d, k), (24, 16), (12, 8)),
        (lambda q, m, d, k: q_ergodic(q, m, 3, d, k), (8, 16), (6, 8)),
    ],
    ids=["analytic", "closed2", "ergodic"],
)
@pytest.mark.parametrize("q, m", [(3, 1), (4, 5)])
def test_one_coarsening_rule(route, box, coarse, q, m):
    # halving for the analytic and closed routes, one modulus step for ergodic
    mv, v_coarse = route(q, m, *box), route(q, m, *coarse).value
    assert mv.error == 1e-12 * (1 + abs(mv.value)) + 2 * abs(mv.value - v_coarse)


@pytest.mark.parametrize(
    "call",
    [
        lambda: q2_closed(3, 1, 3, 40),
        lambda: q_analytic(3, 1, 2, 8, 3),
        lambda: q_ergodic(3, 1, 2, 8, 4),
        lambda: q_ergodic(3, 1, 2, 3, 64),
    ],
    ids=["closed2-d", "analytic-k", "ergodic-k", "ergodic-d"],
)
def test_box_without_coarse_box_raises(call):
    # the error estimate needs a coarser box; a near-zero error would be wrong
    with pytest.raises(ValueError, match="box"):
        call()


def test_exact_zeros_at_any_box():
    exact = [q_analytic(3, 1, 1, 2, 2), q_ergodic(3, 1, 1, 2, 2), q2_closed(3, 3, 2, 2),
             q_analytic(3, 9, 2, 2, 2), q_ergodic(4, 21, 2, 2, 2)]
    assert all((mv.value, mv.error) == (0.0, 0.0) for mv in exact)


def test_second_moments_positive_errors_finite():
    for q in (3, 4):
        for m in (1, 2, 5, 13):
            mv = q2_closed(q, m)
            assert mv.value > 0
            assert 0 <= mv.error < mv.value


def test_third_moment_sum_negative():
    for q in (3, 4):
        mv = third_moment_sum(q, m_max=30)
        assert mv.value + mv.error < 0


def test_variance_series_value():
    mv = variance_series(3)
    assert mv.value == pytest.approx(53.88, abs=0.5)
    assert mv.error < mv.value * 0.1
    with pytest.raises(ValueError):
        variance_series(3, d_max=0)


# variance_series(q) at the default box, as the dense per-n sieve before the pair sieve gave it
VARIANCE_PINS = {
    3: (53.87652287295204, 1.7571108750344173),
    4: (36.705628314700206, 0.17316608754482218),
    5: (18.002979554712805, 0.0780825252786232),
    6: (6.294460813187998, 0.0256139707683989),
}


@pytest.mark.parametrize("q", sorted(VARIANCE_PINS))
def test_variance_series_pinned(q):
    mv = variance_series(q)
    assert (mv.value, mv.error) == pytest.approx(VARIANCE_PINS[q], rel=1e-13)


@pytest.mark.parametrize("q", [2, 0])
def test_variance_series_rejects_small_q_before_sieving(q, monkeypatch):
    def sieve(*args):
        raise AssertionError("sieved")

    monkeypatch.setattr(moments, "_variance_series", sieve)
    with pytest.raises(ValueError, match="need q >= 3"):
        variance_series(q)


def _variance_oracle(q, d_max, n_limit):
    """(value, error) of variance_series by a plain loop over two_square_reps(n)."""
    reps = {n: two_square_reps(n) for n in range(1, n_limit + 1)}
    s = 2 * q - 3
    total = d_partial = 0.0
    for d in range(1, d_max + 1):
        # the branch factor written out: chi4(d) or 1 on odd d, 0 on d = 2 mod 4,
        # (-1)^(q//2) 2^q on d = 0 mod 4, weighted by chi4(a) for odd q
        factor = (chi4(d) if q % 2 else 1) if d % 2 else 0 if d % 4 else (-1) ** (q // 2) * 2**q
        twisted = d % 4 == 0 and q % 2 == 1
        if not factor:
            continue
        d_partial += factor**2 * d**-s
        terms = {}
        for n, pairs in reps.items():
            if math.gcd(n, d) == 1:
                r = sum((2 if a else 1) * (2 if b else 1) * (a * a / n) ** ((q - 1) / 2)
                        * (chi4(a) if twisted else 1) for a, b in pairs if b % d == 0)
                terms[n] = r * r * n**-1.5
        total += factor**2 * sum(terms.values()) / d**s
        if d == 1:
            sub_first = sum(terms.values())
            octave = sum(t for n, t in terms.items() if n >= n_limit // 2)
    half_pref = 0.5 * (math.pi ** (q - 1) / (2 * math.gamma(q))) ** 2
    z = zeta_value(s)
    d_full = (1 - 2.0**-s) * z + 2 ** (2 * q) * 4.0**-s * z
    error = half_pref * max(d_full - d_partial, 0.0) * sub_first + half_pref * octave / (math.sqrt(2) - 1)
    return half_pref * total, error


@pytest.fixture
def small_variance_box(monkeypatch):
    monkeypatch.setattr(moments, "VARIANCE_N_LIMIT", 3000)
    return 3000


@pytest.mark.parametrize("q", [3, 4])
def test_variance_series_matches_plain_loop(q, small_variance_box):
    # q = 3 has twisted d = 0 mod 4 and dead d = 2 mod 4; n_limit // 2 = 1500
    # is not a sum of two squares, so the octave's first n is its own test
    mv = variance_series(q, d_max=12)
    assert mv.meta == {"n_limit": small_variance_box, "d_max": 12}
    assert (mv.value, mv.error) == pytest.approx(_variance_oracle(q, 12, small_variance_box), rel=1e-12)


def test_variance_series_rereads_n_limit(monkeypatch):
    # the summed series is cached with its n_limit, so a changed constant is
    # summed anew and labelled as what it is
    variance_series(3, d_max=12)
    monkeypatch.setattr(moments, "VARIANCE_N_LIMIT", 3000)
    mv = variance_series(3, d_max=12)
    assert mv.meta == {"n_limit": 3000, "d_max": 12}
    assert (mv.value, mv.error) == pytest.approx(_variance_oracle(3, 12, 3000), rel=1e-12)


def test_variance_series_dominates_partial_sums():
    mv = variance_series(3)
    head = sum(
        q2_closed(3, m).value
        for m in range(1, 41)
        if q2_closed(3, m).value > 0
    )
    assert mv.value + mv.error > head


def test_density_moment_even_matches_component_sum():
    dm = density_moment(3, 2, m_max=30)
    direct = sum(q2_closed(3, m).value for m in range(1, 31))
    direct_err = sum(q2_closed(3, m).error for m in range(1, 31))
    assert abs(dm.value - direct) <= dm.error + direct_err


def test_density_moment_parity():
    assert density_moment(3, 1, m_max=20).value == 0.0
    assert density_moment(3, 3, m_max=20, d_max=8, k_max=8).value < 0


def _tuple_oracle(q, m, ell, box):
    """Q(m, l) by enumerating every ordered l-tuple of signed box items.

    A tuple counts when its frequencies e eps(d) k/d add up to zero as exact
    fractions; it contributes prod w * cos(pi/4 * sum e).
    """
    signed = []
    frak = _frak_table(q, m, box, box)[0]
    for d in range(1, box + 1):
        for k in range(1, box + 1):
            v = frak[k - 1, d - 1] if math.gcd(k, d) == 1 else 0.0
            if v:
                for e in (1, -1):
                    signed.append((e * eps_sign(d, q) * Fraction(k, d), e, v / (d ** (q - 1.5) * k**1.5)))
    total = 0.0
    for tup in itertools.product(signed, repeat=ell):
        if sum(f for f, _, _ in tup) == 0:
            total += math.prod(w for _, _, w in tup) * math.cos(math.pi / 4 * sum(e for _, e, _ in tup))
    return _moment_prefactor(q, ell, m) * total


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("ell, box", [(2, 6), (3, 5), (4, 4)])
def test_analytic_matches_tuple_enumeration(q, ell, box):
    want = _tuple_oracle(q, 1, ell, box)
    got = q_analytic(q, 1, ell, d_max=box, k_max=box).value
    assert want != 0.0
    assert got == pytest.approx(want, rel=1e-13)


def test_analytic_budget_raises(monkeypatch):
    # the spectrum holds both signs of every item, and l = 3 convolves it once
    mv = q_analytic(3, 1, 3, d_max=8, k_max=8)
    products = (2 * mv.meta["terms"]) ** 2
    monkeypatch.setattr(moments, "_BUDGET", products)
    assert q_analytic(3, 1, 3, d_max=8, k_max=8).value == mv.value
    monkeypatch.setattr(moments, "_BUDGET", products - 1)
    with pytest.raises(BudgetError):
        q_analytic(3, 1, 3, d_max=8, k_max=8)
    monkeypatch.setattr(moments, "_BUDGET", 1000)
    with pytest.raises(BudgetError):
        q_analytic(3, 1, 4, d_max=8, k_max=8)


def _dict_power_mean(num, den, amp, ell):
    """The zero bin by dict convolution, with Python-int frequencies in units of 1/lcm(den)."""
    f = num * (math.lcm(1, *den.tolist()) // den.astype(object))
    spec = dict(zip(np.stack([f, -f], 1).ravel().tolist(), np.stack([amp, amp.conj()], 1).ravel().tolist()))
    half = spec
    for _ in range(ell // 2 - 1):
        nxt = {}
        for f, a in half.items():
            for g, b in spec.items():
                nxt[f + g] = nxt.get(f + g, 0) + a * b
        half = nxt
    if ell % 2 == 0:
        return sum(a * half.get(-f, 0) for f, a in half.items())
    return sum(a * b * half.get(-f - g, 0) for f, a in half.items() for g, b in spec.items())


@pytest.mark.parametrize("ell", [2, 3, 4])
@pytest.mark.parametrize(
    "route, box",
    [(q_analytic, (8, 8)), (q_analytic, (44, 4)), (q_analytic, (48, 4)), (q_ergodic, (8, 16)), (q_ergodic, (44, 8))],
    ids=["analytic-8-8", "analytic-44-4", "analytic-48-4", "ergodic-8-16", "ergodic-44-8"],
)
@pytest.mark.parametrize("q, m", [(3, 1), (4, 1), (4, 5)])
def test_power_mean_matches_dict_convolution(monkeypatch, route, box, ell, q, m):
    # for m = 1 the lcm of the denominators passes 2^63 at d_max >= 44, where
    # the dict needs Python ints and the keys mod 2^61 - 1 stay int64
    if m == 1 and box[0] >= 44:
        spec = _frak_items(q, m, *box) if route is q_analytic else build_phi(q, m, *box).spectrum()
        assert math.lcm(*spec[1].tolist()) > 2**63
    got = route(q, m, ell, *box)
    monkeypatch.setattr(moments, "_power_mean", _dict_power_mean)
    want = route(q, m, ell, *box)
    assert got.value == pytest.approx(want.value, rel=1e-12)
    assert got.error == pytest.approx(want.error, rel=1e-12, abs=1e-12 * abs(want.value))


def test_power_mean_key_bound_raises():
    # with denominators near 2^20 the key bound l n_max R^l is 2^41 at l = 2
    # and 3 * 2^60 > 2^61 - 1 at l = 3
    spec = np.array([1, 1]), np.array([2**20 - 3, 2**20 - 1]), np.array([1.0, 1.0j])
    assert _power_mean(*spec, 2) == pytest.approx(4.0)
    with pytest.raises(BudgetError, match="keys"):
        _power_mean(*spec, 3)


def test_power_mean_memory_is_blocked():
    # q_analytic(3, 1, 3, 40, 40) sums 2.66M products in blocks of
    # _PRODUCT_BLOCK, about 100 bytes a product of one block (0.73 MB measured)
    for box in (40, 20):
        _frak_items(3, 1, box, box)
    tracemalloc.start()
    q_analytic(3, 1, 3, 40, 40)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (2 * len(_frak_items(3, 1, 40, 40)[0])) ** 2 > 2_600_000
    assert peak <= 2**20


def test_density_moment_two_components_explicit():
    # with components m = 1, 2 only: E(X+Y)^4 and E(X+Y)^5 of independent,
    # centred X and Y
    q, box = 3, 6

    def Q(m, ell):
        if ell == 2:
            return q2_closed(q, m, d_max=24, k_max=24).value
        return q_analytic(q, m, ell, d_max=box, k_max=box).value

    m4 = Q(1, 4) + Q(2, 4) + 6 * Q(1, 2) * Q(2, 2)
    m5 = Q(1, 5) + Q(2, 5) + 10 * (Q(1, 2) * Q(2, 3) + Q(1, 3) * Q(2, 2))
    got4 = density_moment(q, 4, m_max=2, d_max=box, k_max=box)
    got5 = density_moment(q, 5, m_max=2, d_max=box, k_max=box)
    assert got4.method == got5.method == "cumulant"
    assert got4.value == pytest.approx(m4, rel=1e-12)
    assert got5.value == pytest.approx(m5, rel=1e-12)
    assert got4.error > 0 and got5.error > 0
