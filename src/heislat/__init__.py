"""Lattice point statistics for anisotropic norm balls on R^(2q) x R.

Exact counting of lattice points in dilated Cygan-Koranyi-type norm balls,
the almost periodic structure of the normalized counting error, its moments,
and its limiting value distribution.
"""

from .arithmetic import (
    ArithTables,
    BudgetError,
    build_r2q_prefix,
    chi4,
    l_chi4_value,
    load_tables,
    r2,
    rep_weights,
    rho_chi_q,
    rho_q,
    save_tables,
    zeta_value,
)
from .distribution import DensityGrid, cdf_and_moments, char_factor, char_function, density
from .empirical import ErrorSample, component_sum_l2_gap, empirical_lambda_moment, ks_distance, sample_errors
from .lattice import (
    count_points,
    count_points_bruteforce,
    normalized_error,
    volume_unit_ball,
)
from .moments import MomentValue, density_moment, q2_closed, q_analytic, q_ergodic, third_moment_sum, variance_series
from .phi import PhiTruncation, build_phi, partial_sum_phi
from .voronoi import GapReport, gap_report, mean_square_gap, tau

__version__ = "0.1.0"
