"""Names the benchmark workers call: a rename fails here, not in a benchmark run."""

import importlib

import pytest

from heislat.phi import PhiTruncation
from heislat.voronoi import VoronoiCoefficients

CALLED = {
    "heislat": ["build_r2q_prefix"],
    "heislat.phi": ["build_phi", "component_vanishes", "partial_sum_phi"],
    "heislat.distribution": ["density", "char_function", "cdf_and_moments"],
    "heislat.moments": ["variance_series", "q_ergodic", "q2_closed", "q_analytic", "third_moment_sum"],
    "heislat.voronoi": ["mean_square_gap", "eval_S_streaming", "build_S_terms"],
    "heislat.lattice": ["count_points", "count_points_fast", "volume_unit_ball"],
    "heislat.empirical": ["sample_errors", "ks_distance_gaussian"],
}


@pytest.mark.parametrize("path", [f"{mod}.{name}" for mod, names in CALLED.items() for name in names])
def test_called_function_exists(path):
    mod, _, name = path.rpartition(".")
    assert callable(getattr(importlib.import_module(mod), name, None))


def test_traced_methods_defined_in_class_body():
    # the tracer rebinds these through the class __dict__, so an inherited
    # or generated method would not be seen
    assert {"grid_values", "__call__"} <= set(vars(PhiTruncation))
    assert "evaluate" in vars(VoronoiCoefficients)
