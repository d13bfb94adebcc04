"""Acceptance checks: every release criterion as a callable returning
(passed, detail).  The CLI `verify` subcommand prints one line per check;
the test suite wraps the same functions."""

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


def criterion_1_counting_oracle():
    """count_points equals brute-force enumeration for small dilations."""
    x4_values = [Fraction(1, 16), Fraction(1), Fraction(81, 16), Fraction(4), Fraction(16), Fraction(625, 16), Fraction(81)]
    labels = ["0.5", "1", "1.5", "sqrt2", "2", "2.5", "3"]
    checked = 0
    for q in (3, 4):
        for x4, lab in zip(x4_values, labels):
            a = count_points(q, x4=x4)
            b = count_points_bruteforce(q, x4=x4)
            if a != b:
                return False, f"q={q} x={lab}: table count {a} != brute force {b}"
            checked += 1
    return True, f"{checked} exact count comparisons"


def criterion_2_volume():
    """Closed-form ball volume vs adaptive quadrature, 10 significant digits."""
    from scipy.integrate import quad

    worst = 0.0
    for q in range(3, 9):
        closed = volume_unit_ball(q)
        integral, _ = quad(lambda w: (1 - w * w) ** (q / 2), -1, 1, epsabs=1e-13, epsrel=1e-13)
        ref = math.pi**q / math.gamma(q + 1) * integral
        rel = abs(closed - ref) / ref
        worst = max(worst, rel)
        if rel > 1e-10:
            return False, f"q={q}: closed {closed!r} vs quadrature {ref!r}"
    exact3 = math.pi**4 / 16
    if abs(volume_unit_ball(3) - exact3) > 4 * np.finfo(float).eps * exact3:
        return False, f"q=3 volume differs from pi^4/16 beyond machine precision"
    return True, f"max relative deviation {worst:.2e}; q=3 equals pi^4/16"


def criterion_3_scaling_laws():
    """Exhaustive exact scaling identities of the weighted counts."""
    m, s, d = np.arange(1, 201), np.arange(1, 6), np.arange(1, 11)
    for q in (3, 4):
        # rows m s^2, indexed [m - 1, s - 1]
        table = rep_weights(q, np.outer(m, s * s).ravel(), 50).reshape(2, len(m), len(s), 50)
        base = table[:, :, 0, : len(d)]
        for si in s.tolist():
            scaled = table[:, :, si - 1, d * si - 1]
            for twisted, want in enumerate((base[0], chi4(si) * base[1])):
                bad = np.argwhere(scaled[twisted] != want)
                if len(bad):
                    kind = "twisted scaling" if twisted else "scaling law"
                    return False, f"{kind} fails at q={q} m={bad[0][0] + 1} d={bad[0][1] + 1} s={si}"
    return True, f"{2 * 2 * len(m) * len(d) * len(s)} identities hold exactly"


def criterion_4_moment_cross_validation():
    """Three routes to Q(m, 2) agree; Q(m, 1) vanishes."""
    details = []
    for q in (3, 4):
        for m in (1, 2, 5, 13, 17):
            closed = q2_closed(q, m)
            ergodic = q_ergodic(q, m, 2)
            analytic = q_analytic(q, m, 2, d_max=40, k_max=40)
            gap_e = abs(ergodic.value - closed.value)
            gap_a = abs(analytic.value - closed.value)
            if gap_e > ergodic.error + closed.error:
                return False, f"q={q} m={m}: ergodic {ergodic.value} vs closed {closed.value} beyond {ergodic.error + closed.error:.2e}"
            if gap_a > analytic.error + closed.error:
                return False, f"q={q} m={m}: analytic {analytic.value} vs closed {closed.value} beyond {analytic.error + closed.error:.2e}"
            first = q_ergodic(q, m, 1)
            if abs(first.value) > 1e-9 or q_analytic(q, m, 1).value != 0.0:
                return False, f"q={q} m={m}: first moment {first.value} not zero"
            details.append(gap_e)
    return True, f"max ergodic-closed gap {max(details):.2e} within combined errors"


def criterion_5_third_moment():
    """Sum of third moments is negative, beyond its truncation error."""
    report = []
    for q in (3, 4, 5):
        mv = third_moment_sum(q, m_max=50)
        if not (mv.value < 0 and mv.value + mv.error < 0):
            return False, f"q={q}: sum {mv.value:.3e} with error {mv.error:.3e} does not stay negative"
        report.append(f"q={q}: {mv.value:.3e}")
    return True, "; ".join(report)


@lru_cache(maxsize=None)
def _density_grid(m_max: int = 60, d_mod: int = 6, k_max: int = 64, A: float | None = None, step: float | None = None):
    return density(3, m_max=m_max, A=A, step=step, d_mod=d_mod, k_max=k_max)


def criterion_6_density_integrity():
    """Mass, mean, variance, skew sign, positivity, symmetry of P and Phi."""
    grid = _density_grid()
    rep = cdf_and_moments(grid)
    mass, mean, second, third = rep["moments"][:4]
    target = variance_series(3).value
    checks = []
    if abs(mass - 1) > 1e-3:
        return False, f"mass {mass} off 1 by more than 1e-3"
    if abs(mean) > 1e-3:
        return False, f"mean {mean} beyond 1e-3"
    if abs(second - target) / target > 0.02:
        return False, f"second moment {second} vs series {target} beyond 2%"
    if third >= 0:
        return False, f"third moment {third} not negative"
    if grid.p.min() < -1e-8:
        return False, f"density dips to {grid.p.min()}"
    phi0 = complex(char_function(3, 0.0, grid.m_max, grid.d_mod, grid.k_max, grid.tail_variance))
    if abs(phi0 - 1) > 1e-12:
        return False, f"Phi(0) = {phi0}"
    sig = np.array([0.05, 0.11, 0.23]) * grid.cutoff
    plus = char_function(3, sig, grid.m_max, grid.d_mod, grid.k_max, grid.tail_variance)
    minus = char_function(3, -sig, grid.m_max, grid.d_mod, grid.k_max, grid.tail_variance)
    sym = float(np.max(np.abs(plus - np.conj(minus))))
    if sym > 1e-10:
        return False, f"conjugate symmetry violated at {sym:.2e}"
    return True, (
        f"mass {mass:.6f}, mean {mean:.2e}, m2 {second:.4f} vs {target:.4f}, "
        f"m3 {third:.4f}, min P {grid.p.min():.1e}, symmetry {sym:.1e}"
    )


def criterion_7_empirical_convergence():
    """Finite-X samples approach the limiting density as X grows."""
    q = 3
    tables = _tables(q, (2 * 300) ** 2)
    series300 = sample_errors(q, tables, 300, 4000)
    series75 = sample_errors(q, tables, 75, 4000)
    stats = series300.stats()
    target = variance_series(q).value
    if abs(stats["mean"]) >= 0.05:
        return False, f"mean {stats['mean']} too large"
    if abs(stats["second"] - target) / target > 0.10:
        return False, f"second moment {stats['second']} vs {target} beyond 10%"
    if stats["third"] >= 0:
        return False, f"third moment {stats['third']} not negative"
    grid = _density_grid()
    ks300 = ks_distance(series300, grid)
    ks75 = ks_distance(series75, grid)
    ksg = ks_distance_gaussian(series300, cdf_and_moments(grid)["moments"][2])
    if not ks300 < ks75:
        return False, f"KS(300) = {ks300:.4f} not below KS(75) = {ks75:.4f}"
    if not ks300 < ksg:
        return False, f"KS(300) = {ks300:.4f} not below Gaussian KS = {ksg:.4f}"
    return True, (
        f"mean {stats['mean']:.4f}, m2 {stats['second']:.3f} vs {target:.3f}, "
        f"m3 {stats['third']:.3f}, KS300 {ks300:.4f} < KS75 {ks75:.4f}, gaussian {ksg:.4f}"
    )


def criterion_8_component_gap():
    """L2 gap to the component partial sums shrinks with more components."""
    q = 3
    tables = _tables(q, (2 * 200) ** 2)
    gaps = component_sum_l2_gap(sample_errors(q, tables, 200, 1500), [1, 5, 10, 20, 40])
    seq = [gaps[M] for M in (1, 5, 10, 20, 40)]
    if not all(a > b for a, b in zip(seq, seq[1:])):
        return False, f"gaps not strictly decreasing: {gaps}"
    if not gaps[40] < 0.5 * gaps[0]:
        return False, f"gap(40) = {gaps[40]:.4f} not below half of gap(0) = {gaps[0]:.4f}"
    return True, ", ".join(f"M={M}: {gaps[M]:.4f}" for M in (0, 1, 5, 10, 20, 40))


def criterion_9_voronoi_trend():
    """Mean-square gap to S_{q,H} decreases as X doubles (H = X^2/2)."""
    q = 3
    vals = {}
    for X in (20, 40, 80):
        tables = _tables(q, (2 * X) ** 2)
        vals[X] = mean_square_gap(q, tables, X, n_samples=96)
    if not (vals[20] > vals[40] > vals[80]):
        return False, f"gaps not decreasing: {vals}"
    return True, ", ".join(f"X={X}: {vals[X]:.5f}" for X in (20, 40, 80))


def criterion_10_stability():
    """Doubling each truncation knob moves the density by less than its budget."""
    base = _density_grid()
    base_rep = cdf_and_moments(base)
    span = float(base.x[-1] - base.x[0])
    deltas = {}
    variants = {
        "M": _density_grid(m_max=120),
        "D": _density_grid(d_mod=12),
        "K": _density_grid(k_max=128),
        "A": _density_grid(A=2 * base.cutoff),
        "step": _density_grid(step=base.step / 2),
    }
    for name, grid in variants.items():
        # each grid carries its own error budget; the triangle inequality
        # bounds the pointwise discrepancy by the sum of the two budgets
        budget = base.total_error + grid.total_error
        p_base = np.interp(grid.x, base.x, base.p, left=0.0, right=0.0)
        inside = (grid.x >= base.x[0]) & (grid.x <= base.x[-1])
        dp = float(np.max(np.abs(grid.p[inside] - p_base[inside])))
        rep = cdf_and_moments(grid)
        dm = [abs(a - b) for a, b in zip(rep["moments"], base_rep["moments"])]
        deltas[name] = (dp, dm)
        if dp > budget:
            return False, f"knob {name}: density moved {dp:.2e} beyond budget {budget:.2e}"
        for j, diff in enumerate(dm[:3]):
            scale = max(span ** (j + 1) / (j + 1), 1.0)
            if diff > budget * scale:
                return False, f"knob {name}: moment {j} moved {diff:.2e} beyond {budget * scale:.2e}"
    detail = ", ".join(f"{k}: dP {v[0]:.1e}" for k, v in deltas.items())
    return True, f"base budget {base.total_error:.2e}; {detail}"


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
    """(name, passed, detail, seconds) for each selected criterion, in order."""
    global _CACHE_DIR
    _CACHE_DIR = cache
    results = []
    for name, fn in CRITERIA:
        num = int(name.split()[0])
        if numbers and num not in numbers:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail, time.perf_counter() - start))
    return results
