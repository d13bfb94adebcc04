"""Acceptance checks: every release criterion as a callable returning
(passed, detail), its checks stated as rows of one ledger (_verdict).  The CLI
`verify` subcommand prints one line per criterion; the test suite wraps the same functions."""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arithmetic import chi4, rep_weights, shell_tables
from .distribution import cdf_and_moments, char_function, density
from .empirical import ks_distance, ks_distance_gaussian, sample_errors, component_sum_l2_gap
from .lattice import count_points, count_points_bruteforce, volume_unit_ball
from .moments import q2_closed, q_analytic, q_ergodic, third_moment_sum, variance_series
from .voronoi import mean_square_gap

_TABLE_CACHE: dict = {}
_CACHE_DIR: str | None = None


def _tables(q: int, limit: int):
    """Shell tables for q reaching at least limit; counts are exact in any covering table."""
    for (held_q, held_limit), tables in _TABLE_CACHE.items():
        if held_q == q and held_limit >= limit:
            return tables
    tables = _TABLE_CACHE[q, limit] = shell_tables(q, limit, _CACHE_DIR)
    return tables


def _verdict(*rows):
    """(passed, detail) of check rows (name, value, holds, bound): passed is the AND of every
    row, and detail lists each as "name value vs bound" to 4 digits, led by FAIL where it fails."""
    lines = (f"{'' if holds else 'FAIL '}{name} {value:.4g} vs {bound:.4g}" for name, value, holds, bound in rows)
    return all(holds for _, _, holds, _ in rows), "; ".join(lines)


def _at_most(name, value, bound):
    return name, value, value <= bound, bound


def _below(name, value, bound):
    return name, value, value < bound, bound


def _family(name, rows):
    """One row for a loop's check rows, which share a bound: the largest value, naming every failing row."""
    bad = [label for label, _, holds, _ in rows if not holds]
    worst = max(rows, key=lambda row: row[1])
    return f"{name} ({'failing ' + ', '.join(bad) if bad else 'worst ' + worst[0]})", worst[1], not bad, worst[3]


def criterion_1_counting_oracle():
    """count_points equals brute-force enumeration for small dilations."""
    x4s = [Fraction(1, 16), Fraction(1), Fraction(81, 16), Fraction(4), Fraction(16), Fraction(625, 16), Fraction(81)]
    gaps = {f"q={q} x^4={x4}": count_points(q, x4=x4) - count_points_bruteforce(q, x4=x4) for q in (3, 4) for x4 in x4s}
    return _verdict(_family("|count - brute force|", [(k, abs(g), g == 0, 0) for k, g in gaps.items()]))


def criterion_2_volume():
    """Closed-form ball volume vs adaptive quadrature, 10 significant digits."""
    from scipy.integrate import quad

    rows = []
    for q in range(3, 9):
        integral, _ = quad(lambda w: (1 - w * w) ** (q / 2), -1, 1, epsabs=1e-13, epsrel=1e-13)
        ref = math.pi**q / math.gamma(q + 1) * integral
        rel = abs(volume_unit_ball(q) - ref) / ref
        rows.append(_at_most(f"q={q}", rel, 1e-10))
    exact3 = math.pi**4 / 16
    return _verdict(
        _family("relative deviation from quadrature", rows),
        _at_most("|V(3) - pi^4/16|", abs(volume_unit_ball(3) - exact3), 4 * np.finfo(float).eps * exact3),
    )


def criterion_3_scaling_laws():
    """Exhaustive exact scaling identities of the weighted counts."""
    m, s, d = np.arange(1, 201), np.arange(1, 6), np.arange(1, 11)
    rows = []
    for q in (3, 4):
        # rows m s^2, indexed [m - 1, s - 1]
        table = rep_weights(q, np.outer(m, s * s).ravel(), 50).reshape(2, len(m), len(s), 50)
        base = table[:, :, 0, : len(d)]
        for si in s.tolist():
            scaled = table[:, :, si - 1, d * si - 1]
            for twisted, want in enumerate((base[0], chi4(si) * base[1])):
                bad = int(np.count_nonzero(scaled[twisted] != want))
                rows.append((f"{'twisted ' * twisted}q={q} s={si}", bad, bad == 0, 0))
    return _verdict(_family(f"{len(rows) * m.size * d.size} identities: failures per law", rows))


def criterion_4_moment_cross_validation():
    """Three routes to Q(m, 2) agree; Q(m, 1) vanishes."""
    rows = {"ergodic gap/error": [], "analytic gap/error": [], "|Q(m,1)| ergodic": [], "|Q(m,1)| analytic": []}
    for q in (3, 4):
        for m in (1, 2, 5, 13, 17):
            label, closed = f"q={q} m={m}", q2_closed(q, m)
            for route, mv in (("ergodic", q_ergodic(q, m, 2)), ("analytic", q_analytic(q, m, 2, d_max=40, k_max=40))):
                gap, error = abs(mv.value - closed.value), mv.error + closed.error
                rows[f"{route} gap/error"].append((label, gap / error, gap <= error, 1.0))
            first, first_analytic = abs(q_ergodic(q, m, 1).value), abs(q_analytic(q, m, 1).value)
            rows["|Q(m,1)| ergodic"].append(_at_most(label, first, 1e-9))
            rows["|Q(m,1)| analytic"].append((label, first_analytic, first_analytic == 0.0, 0.0))
    return _verdict(*(_family(name, family) for name, family in rows.items()))


def criterion_5_third_moment():
    """Sum of third moments is negative, beyond its truncation error."""
    sums = {q: third_moment_sum(q, m_max=50) for q in (3, 4, 5)}
    return _verdict(*((f"q={q} sum {v.value:.4g}, with error", v.value + v.error, v.value < 0 and v.value + v.error < 0, 0)
                      for q, v in sums.items()))


@lru_cache(maxsize=None)
def _density_grid(m_max: int = 60, d_mod: int = 6, k_max: int = 64, A: float | None = None, step: float | None = None):
    return density(3, m_max=m_max, A=A, step=step, d_mod=d_mod, k_max=k_max)


def criterion_6_density_integrity():
    """Mass, mean, variance, skew sign, positivity, symmetry of P and Phi."""
    grid = _density_grid()
    mass, mean, second, third = cdf_and_moments(grid)["moments"][:4]
    target = variance_series(3).value
    box = (grid.m_max, grid.d_mod, grid.k_max, grid.tail_variance)
    sig = np.array([0.05, 0.11, 0.23]) * grid.cutoff
    asymmetry = float(np.max(np.abs(char_function(3, sig, *box) - np.conj(char_function(3, -sig, *box)))))
    return _verdict(
        _at_most("|mass - 1|", abs(mass - 1), 1e-3),
        _at_most("|mean|", abs(mean), 1e-3),
        _at_most(f"m2 {second:.6g} vs series {target:.6g}: relative gap", abs(second - target) / target, 0.02),
        _below("m3", third, 0),
        _at_most("-min P", -grid.p.min(), 1e-8),
        _at_most("|Phi(0) - 1|", abs(complex(char_function(3, 0.0, *box)) - 1), 1e-12),
        _at_most("|Phi(s) - conj Phi(-s)|", asymmetry, 1e-10),
    )


def criterion_7_empirical_convergence():
    """Finite-X samples approach the limiting density as X grows."""
    tables = _tables(3, (2 * 300) ** 2)
    series300, series75 = sample_errors(3, tables, 300, 4000), sample_errors(3, tables, 75, 4000)
    stats, target, grid = series300.stats(), variance_series(3).value, _density_grid()
    second, ks300 = stats["second"], ks_distance(series300, grid)
    return _verdict(
        _below("|mean|", abs(stats["mean"]), 0.05),
        _at_most(f"m2 {second:.4g} vs series {target:.4g}: relative gap", abs(second - target) / target, 0.10),
        _below("m3", stats["third"], 0),
        _below("KS300 vs KS75", ks300, ks_distance(series75, grid)),
        _below("KS300 vs Gaussian KS", ks300, ks_distance_gaussian(series300, cdf_and_moments(grid)["moments"][2])),
    )


def criterion_8_component_gap():
    """L2 gap to the component partial sums shrinks with more components."""
    gaps = component_sum_l2_gap(sample_errors(3, _tables(3, (2 * 200) ** 2), 200, 1500), [1, 5, 10, 20, 40])
    return _verdict(
        *(_below(f"gap(M={b}) vs gap(M={a})", gaps[b], gaps[a]) for a, b in ((1, 5), (5, 10), (10, 20), (20, 40))),
        _below("gap(M=40) vs gap(M=0)/2", gaps[40], 0.5 * gaps[0]),
    )


def criterion_9_voronoi_trend():
    """Mean-square gap to S_{q,H} decreases as X doubles (H = X^2/2)."""
    gap = {X: mean_square_gap(3, _tables(3, (2 * X) ** 2), X, n_samples=96) for X in (20, 40, 80)}
    return _verdict(*(_below(f"gap(X={b}) vs gap(X={a})", gap[b], gap[a]) for a, b in ((20, 40), (40, 80))))


def criterion_10_stability():
    """Doubling each truncation knob moves the density by less than its budget."""
    base = _density_grid()
    base_moments = cdf_and_moments(base)["moments"]
    span = float(base.x[-1] - base.x[0])
    knobs = {"M": {"m_max": 120}, "D": {"d_mod": 12}, "K": {"k_max": 128},
             "A": {"A": 2 * base.cutoff}, "step": {"step": base.step / 2}}
    density_rows, moment_rows = [], []
    for name, knob in knobs.items():
        grid = _density_grid(**knob)
        # each grid carries its own error budget; the triangle inequality
        # bounds the pointwise discrepancy by the sum of the two budgets
        budget = base.total_error + grid.total_error
        p_base = np.interp(grid.x, base.x, base.p, left=0.0, right=0.0)
        inside = (grid.x >= base.x[0]) & (grid.x <= base.x[-1])
        dp = float(np.max(np.abs(grid.p[inside] - p_base[inside])))
        density_rows.append((name, dp / budget, dp <= budget, 1.0))
        for j, (a, b) in enumerate(zip(cdf_and_moments(grid)["moments"][:3], base_moments)):
            bound = budget * max(span ** (j + 1) / (j + 1), 1.0)
            moment_rows.append((f"{name} m{j}", abs(a - b) / bound, abs(a - b) <= bound, 1.0))
    return _verdict(_family("knob dP/budget", density_rows), _family("knob moment shift/bound", moment_rows))


CRITERIA = [
    ("1 counting oracle", criterion_1_counting_oracle),
    ("2 ball volume", criterion_2_volume),
    ("3 scaling laws", criterion_3_scaling_laws),
    ("4 moment cross-validation", criterion_4_moment_cross_validation),
    ("5 third moment negativity", criterion_5_third_moment),
    ("6 density integrity", criterion_6_density_integrity),
    ("7 empirical convergence", criterion_7_empirical_convergence),
    ("8 component L2 gap", criterion_8_component_gap),
    ("9 trig-sum mean-square trend", criterion_9_voronoi_trend),
    ("10 truncation stability", criterion_10_stability),
]


def run_criteria(numbers=None, cache: str | None = None):
    """(name, passed, detail, seconds) for each selected criterion, in order; ValueError on an unknown number."""
    global _CACHE_DIR
    unknown = sorted(set(numbers or ()) - set(range(1, len(CRITERIA) + 1)))
    if unknown:
        raise ValueError(f"no criterion {unknown[0]}: criteria are numbered 1 to {len(CRITERIA)}")
    _CACHE_DIR = cache
    results = []
    for name, fn in [criterion for num, criterion in enumerate(CRITERIA, 1) if not numbers or num in numbers]:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail, time.perf_counter() - start))
    return results
