"""Number-theoretic helpers checked against independent references."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislat import arithmetic
from heislat.arithmetic import (
    INT64_SAFE,
    BudgetError,
    _branch,
    _branch_weights,
    _frak_branch,
    build_r2q_prefix,
    chi4,
    eps_sign,
    l_chi4_value,
    load_tables,
    r2,
    rep_weights,
    rho_chi_q,
    rho_q,
    save_tables,
    two_square_reps,
    zeta_value,
)
from heislat.lattice import count_points


def test_chi4_periodic_and_multiplicative():
    for n in range(1, 200):
        assert chi4(n) == chi4(n + 4)
        assert chi4(n) == (0 if n % 2 == 0 else (1 if n % 4 == 1 else -1))
    for a in range(1, 30):
        for b in range(1, 30):
            assert chi4(a * b) == chi4(a) * chi4(b)


def test_two_square_reps_total_matches_r2():
    for n in range(1, 500):
        total = 0
        for a, b in two_square_reps(n):
            assert a * a + b * b == n and a >= 0 and b >= 0
            total += (2 if a else 1) * (2 if b else 1)
        assert total == r2(n)


def test_r2_known_values():
    assert r2(1) == 4
    assert r2(2) == 4
    assert r2(3) == 0
    assert r2(5) == 8
    assert r2(25) == 12


def test_rep_weights_reference_values():
    # 5 = 1 + 4: weights 4 (1/5) + 4 (4/5) over the eight signed pairs
    w = rep_weights(3, [5], 2)
    assert w[0, 0, 0] == pytest.approx(4.0, abs=1e-15)
    assert w[0, 0, 1] == pytest.approx(0.8, abs=1e-15)
    assert w[1, 0, 0] == pytest.approx(0.8, abs=1e-15)


def test_rep_weights_q1_reduces_to_r2():
    # exponent q - 1 = 0 makes every representation weight 1
    ms = [1, 2, 5, 10, 13, 25, 50]
    assert rep_weights(1, ms, 1)[0, :, 0].tolist() == [r2(m) for m in ms]


def _weight_oracle(q: int, n: int, d: int, twisted: bool) -> float:
    """The weighted count of n at modulus d, pair by pair over two_square_reps."""
    total = 0.0
    for a, b in two_square_reps(n):
        if b % d == 0:
            sign = chi4(a) if twisted else 1
            total += sign * (2 if a else 1) * (2 if b else 1) * (a * a / n) ** ((q - 1) / 2)
    return total


@pytest.mark.parametrize("q", range(1, 7))
def test_rep_weights_match_pair_oracle(q):
    n = range(1, 601)
    table = rep_weights(q, n, 12)
    for twisted in (0, 1):
        want = [[_weight_oracle(q, v, d, twisted) for d in range(1, 13)] for v in n]
        np.testing.assert_allclose(table[twisted], want, rtol=1e-15, atol=0)


def test_rep_weights_blocks_and_rejects(monkeypatch):
    # a block boundary inside a row changes nothing, not even the last bit
    n = [5**6, 2 * 13**4, 1, 65 * 65]
    want = rep_weights(4, n, 9)
    monkeypatch.setattr(arithmetic, "_REP_CELLS", 7)
    assert np.array_equal(rep_weights(4, n, 9), want)
    for bad in ([0], [2**52]):
        with pytest.raises(ValueError):
            rep_weights(3, bad, 4)
    with pytest.raises(ValueError):
        rep_weights(3, [5], 0)


def test_frak_r_vanishes_for_d_2_mod_4():
    for q in (3, 4):
        for m in (1, 2, 5):
            factor, w, _ = _branch_weights(rep_weights(q, m * np.arange(1, 4) ** 2, 10), q, _frak_branch)
            assert not (factor * w)[:, [1, 5, 9]].any()


# (factor, twisted) of _branch and of _frak_branch for d = 1, 2, 3, 0 mod 4;
# the even-q _branch factors are xi(d; q)
BRANCH_TABLE = {
    3: [((1, False), (1, False)), ((0, False), (0, False)), ((-1, False), (-1, False)), ((8, True), (-8, True))],
    4: [((1, False), (1, False)), ((-1, False), (0, False)), ((1, False), (1, False)), ((15, False), (16, False))],
    5: [((1, False), (1, False)), ((0, False), (0, False)), ((-1, False), (-1, False)), ((-32, True), (32, True))],
    6: [((1, False), (1, False)), ((1, False), (0, False)), ((1, False), (1, False)), ((-63, False), (-64, False))],
}


@pytest.mark.parametrize("q", sorted(BRANCH_TABLE))
def test_modulus_branches_match_table(q):
    for d in range(1, 17):
        branch, frak = BRANCH_TABLE[q][(d - 1) % 4]
        assert _branch(d, q) == branch, d
        assert _frak_branch(d, q) == frak, d


def test_xi_and_eps_sign_basic():
    for q in (4, 6):
        assert _branch(1, q) == (1, False)  # xi(1; q) = 1
        assert abs(eps_sign(1, q)) == 1
    for d in (1, 3, 4, 5, 8):
        for q in (3, 4, 5):
            assert eps_sign(d, q) in (-1, 1)
    # elementwise on an int array, as the moment spectrum reads it
    d = np.arange(1, 13)
    for q in (3, 4, 5):
        assert eps_sign(d, q).tolist() == [eps_sign(int(v), q) for v in d]
        assert eps_sign(d, q).tolist() == [-1 if q % 2 and v % 2 == 0 else 1 for v in d]


def test_zeta_against_mpmath():
    for s in (1.5, 3, 4, 6):
        assert zeta_value(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-11)


def test_zeta_4_closed_form():
    assert zeta_value(4) == pytest.approx(math.pi**4 / 90, rel=1e-12)


def _dirichlet_beta(s: float) -> float:
    return float(4**-s * (mpmath.zeta(s, 0.25) - mpmath.zeta(s, 0.75)))


def test_l_chi4_against_mpmath():
    for s in (1.5, 2, 3, 5):
        assert l_chi4_value(s) == pytest.approx(_dirichlet_beta(s), rel=1e-10)


def test_rho_constants_match_definitions():
    for q in (3, 4, 5):
        expect = math.pi**q / ((1 - 2.0**-q) * math.gamma(q) * zeta_value(q))
        assert rho_q(q) == pytest.approx(expect, rel=1e-12)
        expect_chi = math.pi**q / (2 ** (q - 1) * math.gamma(q) * l_chi4_value(q))
        assert rho_chi_q(q) == pytest.approx(expect_chi, rel=1e-12)


def test_prefix_shells_q3_small(tables_q3_small):
    prefix = tables_q3_small.prefix
    assert prefix[0] == 1
    assert prefix[1] - prefix[0] == 12
    assert prefix[2] - prefix[1] == 60
    assert np.all(np.diff(prefix[:1000]) >= 0)


def test_prefix_matches_bruteforce_q3(tables_q3_small):
    # direct six-fold histogram over a small box
    s_max = 25
    r = int(math.isqrt(s_max))
    axis = np.arange(-r, r + 1)
    g = np.zeros(s_max + 1, dtype=np.int64)
    sq = axis * axis
    one = np.bincount(sq, minlength=s_max + 1)[: s_max + 1]
    g[: len(one)] = one
    conv = g.copy()
    for _ in range(5):
        conv = np.convolve(conv, g)[: s_max + 1]
    expect = np.cumsum(conv)
    assert np.array_equal(tables_q3_small.prefix[: s_max + 1], expect)


def test_check_covers(tables_q3_small):
    # the one coverage rule that count_points and count_points_fast read
    tables_q3_small.check_covers(3, tables_q3_small.limit)
    with pytest.raises(ValueError, match="different q"):
        tables_q3_small.check_covers(4, 0)
    with pytest.raises(BudgetError, match="tables"):
        tables_q3_small.check_covers(3, tables_q3_small.limit + 1)
    with pytest.raises(ValueError, match="different q"):
        count_points(4, tables_q3_small, x=1)
    with pytest.raises(BudgetError, match="tables"):
        count_points(3, tables_q3_small, x=45)  # x^2 = 2025 > 2000


def test_table_save_load_roundtrip(tmp_path, tables_q4_small):
    path = tmp_path / "tables.bin"
    save_tables(tables_q4_small, path)
    loaded = load_tables(path)
    assert loaded.q == tables_q4_small.q
    assert loaded.limit == tables_q4_small.limit
    assert np.array_equal(loaded.prefix, tables_q4_small.prefix)


def test_table_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a table file")
    with pytest.raises(Exception):
        load_tables(path)


def test_build_rejects_bad_args():
    with pytest.raises(ValueError):
        build_r2q_prefix(0, 10)
    with pytest.raises(ValueError):
        build_r2q_prefix(3, -1)


def _strided_prefix(q: int, limit: int) -> np.ndarray:
    """Oracle, the former table build: 2q strided passes r_{j+1}(n) = sum_a r_j(n - a^2).

    Each pass is bounded against int64 before it runs, and the total is
    summed in Python integers; either failing raises BudgetError.
    """
    counts = np.zeros(limit + 1, dtype=np.int64)
    counts[0] = 1
    amax = math.isqrt(limit)
    for _ in range(2 * q):
        if int(counts.max()) * (2 * amax + 1) >= INT64_SAFE:
            raise BudgetError("shell counts would overflow int64 at this limit")
        nxt = counts.copy()
        two = 2 * counts
        for a in range(1, amax + 1):
            nxt[a * a :] += two[: limit + 1 - a * a]
        counts = nxt
    if sum(counts.tolist()) >= INT64_SAFE:
        raise BudgetError("cumulative counts exceed the exact int64 budget")
    return np.cumsum(counts)


def _assert_matches_oracle(q: int, limit: int) -> None:
    try:
        want = _strided_prefix(q, limit)
    except BudgetError:
        with pytest.raises(BudgetError):
            build_r2q_prefix(q, limit)
        return
    got = build_r2q_prefix(q, limit)
    assert (got.q, got.limit) == (q, limit)
    assert got.prefix.dtype == np.int64 and np.array_equal(got.prefix, want)


TABLE_GRID = [(q, n) for q in range(1, 7) for n in (0, 1, 2, 3, 4, 24, 25, 99, 1000, 2000, 4096, 12345)]
TABLE_GRID += [(3, 301**2), (4, 40000), (3, 600**2), (3, 900**2)]


@pytest.mark.parametrize("q, limit", TABLE_GRID)
def test_prefix_bit_identical_to_strided_build(q, limit):
    _assert_matches_oracle(q, limit)


@settings(max_examples=30, deadline=None)
@given(q=st.integers(1, 5), limit=st.integers(0, 3000))
def test_prefix_property_against_strided_build(q, limit):
    _assert_matches_oracle(q, limit)


def test_prefix_multi_limb_split_is_bit_identical(monkeypatch):
    # a rounding constant 10^7 times larger splits every multiplicand into limbs of 2 or 3 bits
    want = {q: build_r2q_prefix(q, 12345).prefix for q in (2, 3, 4)}
    widths = []
    limb_width = arithmetic._limb_width

    def spy(counts, bits, *args):
        widths.append((bits, limb_width(counts, bits, *args)))
        return widths[-1][1]

    monkeypatch.setattr(arithmetic, "_FFT_C", arithmetic._FFT_C * 1e7)
    monkeypatch.setattr(arithmetic, "_limb_width", spy)
    for q in (2, 3, 4):
        assert np.array_equal(build_r2q_prefix(q, 12345).prefix, want[q])
    assert any(width < bits for bits, width in widths)


def test_prefix_certificate_failure_raises(monkeypatch):
    # no limb width can meet a bound this strict
    monkeypatch.setattr(arithmetic, "_FFT_C", 1e30)
    build_r2q_prefix(1, 2000)  # no convolution, nothing to certify
    with pytest.raises(BudgetError, match="rounding bound"):
        build_r2q_prefix(2, 2000)


def test_prefix_reach_ends_below_1200_squared():
    with pytest.raises(BudgetError, match="int64 budget"):
        build_r2q_prefix(3, 1200**2)


def test_table_build_does_not_import_scipy():
    # numpy.fft only: importing scipy.fft alone costs tens of MB of resident memory
    code = "import sys, heislat; heislat.build_r2q_prefix(3, 400); print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(arithmetic.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
