"""Number-theoretic helpers checked against independent references."""

import math

import mpmath
import numpy as np
import pytest

from heislat.arithmetic import (
    BudgetError,
    _branch,
    _frak_branch,
    build_r2q_prefix,
    chi4,
    eps_sign,
    frak_r,
    has_prime_factor_3_mod_4,
    is_squarefree,
    l_chi4_value,
    load_tables,
    mobius,
    r2,
    r2_weighted,
    r2_weighted_chi,
    rho_chi_q,
    rho_q,
    save_tables,
    two_square_reps,
    zeta_value,
)


def test_mobius_known_values():
    assert mobius(1) == 1
    assert mobius(2) == -1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert mobius(30) == -1


def test_chi4_periodic_and_multiplicative():
    for n in range(1, 200):
        assert chi4(n) == chi4(n + 4)
        assert chi4(n) == (0 if n % 2 == 0 else (1 if n % 4 == 1 else -1))
    for a in range(1, 30):
        for b in range(1, 30):
            assert chi4(a * b) == chi4(a) * chi4(b)


def test_squarefree_and_bad_prime_filters():
    assert is_squarefree(10) and not is_squarefree(12)
    assert has_prime_factor_3_mod_4(21)
    assert not has_prime_factor_3_mod_4(65)


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


def test_r2_weighted_reference_values():
    assert r2_weighted(5, 1, 3) == pytest.approx(4.0, abs=1e-15)
    assert r2_weighted(5, 2, 3) == pytest.approx(0.8, abs=1e-15)
    assert r2_weighted_chi(5, 1, 3) == pytest.approx(0.8, abs=1e-15)


def test_r2_weighted_q1_reduces_to_r2():
    # exponent q - 1 = 0 makes every representation weight 1
    for m in (1, 2, 5, 10, 13, 25, 50):
        assert r2_weighted(m, 1, 1) == r2(m)


def test_frak_r_vanishes_for_d_2_mod_4():
    for q in (3, 4):
        for m in (1, 2, 5):
            for d in (2, 6, 10):
                assert frak_r(m, d, q) == 0.0


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


def test_count_radius2_bounds(tables_q3_small):
    assert tables_q3_small.count_radius2(-5) == 0
    with pytest.raises(BudgetError):
        tables_q3_small.count_radius2(tables_q3_small.limit + 1)


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
