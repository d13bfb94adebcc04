"""Property-based invariants over randomized inputs."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heislat.arithmetic import chi4, r2, rep_weights, two_square_reps
from heislat.lattice import count_points, count_points_fast
from heislat.moments import _frak_table, q2_closed
from heislat.phi import build_phi, component_vanishes

q_strategy = st.integers(min_value=3, max_value=6)


@given(m=st.integers(1, 400), d=st.integers(1, 12), s=st.integers(1, 8), q=q_strategy)
@settings(max_examples=200, deadline=None)
def test_weight_scaling_law(m, d, s, q):
    assert rep_weights(q, [m * s * s], d * s)[0, 0, -1] == rep_weights(q, [m], d)[0, 0, -1]


@given(m=st.integers(1, 400), d=st.integers(1, 12), s=st.integers(1, 8), q=q_strategy)
@settings(max_examples=200, deadline=None)
def test_twisted_weight_scaling_law(m, d, s, q):
    assert rep_weights(q, [m * s * s], d * s)[1, 0, -1] == chi4(s) * rep_weights(q, [m], d)[1, 0, -1]


@given(m=st.integers(1, 1000), d=st.integers(1, 20), q=q_strategy)
@settings(max_examples=200, deadline=None)
def test_twisted_weight_dominated(m, d, q):
    plain, twisted = rep_weights(q, [m], d)[:, 0, -1]
    assert abs(twisted) <= plain + 1e-12


@given(m=st.integers(1, 1000), d=st.integers(1, 20), q=q_strategy)
@settings(max_examples=200, deadline=None)
def test_weight_dominated_by_r2(m, d, q):
    # each representation weight (a^2/m)^((q-1)/2) is at most 1
    assert 0.0 <= rep_weights(q, [m], d)[0, 0, -1] <= r2(m) + 1e-12


@given(m=st.integers(1, 500), q=q_strategy)
@settings(max_examples=100, deadline=None)
def test_frak_r_zero_at_2_mod_4(m, q):
    frak = _frak_table(q, m, 6, 1)[0][0]
    assert frak[1] == 0.0
    assert frak[5] == 0.0


@given(n=st.integers(1, 3000))
@settings(max_examples=200, deadline=None)
def test_reps_consistent_with_r2(n):
    total = sum((2 if a else 1) * (2 if b else 1) for a, b in two_square_reps(n))
    assert total == r2(n)


@given(n=st.integers(1, 2000))
@settings(max_examples=200, deadline=None)
def test_square_factor_kills_component(n):
    assert component_vanishes(4 * n)
    assert component_vanishes(9 * n)


@given(m=st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_vanishing_support_consistency(m):
    if component_vanishes(m):
        assert q2_closed(3, m).value == 0.0
        trunc = build_phi(3, m, 8, 8)
        assert np.max(np.abs(trunc(np.linspace(0, 3, 10)))) == 0.0


@given(m=st.sampled_from([1, 2, 5, 10, 13]), t=st.floats(-50, 50), q=q_strategy)
@settings(max_examples=100, deadline=None)
def test_phi_periodic(m, t, q):
    trunc = build_phi(q, m, 6, 16)
    a, b = float(trunc(t)), float(trunc(t + trunc.period))
    assert math.isclose(a, b, rel_tol=1e-7, abs_tol=1e-7)


@given(
    q=st.sampled_from([3, 4]),
    x=st.integers(1, 60).flatmap(lambda den: st.tuples(st.integers(0, 44 * den), st.just(den))),
)
@settings(max_examples=200, deadline=None)
def test_count_fast_matches_count_points(tables_q3_small, tables_q4_small, q, x):
    # x = num/den <= 44, inside the tables' radius^2 2000
    tables = {3: tables_q3_small, 4: tables_q4_small}[q]
    num, den = x
    assert count_points_fast(q, tables, num, den) == count_points(q, tables, x=Fraction(num, den))
