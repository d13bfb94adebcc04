"""Names the benchmark workers call: a rename fails here, not in a benchmark run."""

import importlib

import numpy as np
import pytest

from heislat.arithmetic import build_r2q_prefix
from heislat.empirical import sample_errors
from heislat.phi import PhiTruncation, build_phi
from heislat.voronoi import VoronoiCoefficients, mean_square_gap

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
    assert {"evaluate", "__len__"} <= set(vars(VoronoiCoefficients))


def test_traced_counter_inputs():
    # the tracer's counters read the term array k of a component, and the
    # worker calls mean_square_gap with (q, tables, X, n_samples) positionally
    assert isinstance(build_phi(3, 1, 4, 4).k, np.ndarray)
    assert 0 <= mean_square_gap(3, build_r2q_prefix(3, 400), 10, 8) < 10.0


def test_window_sample_fields():
    # the worker calls sample_errors(q, tables, X, n) positionally and reads
    # x and err of every sample, and X and n of the window
    series = sample_errors(3, build_r2q_prefix(3, 400), 10, 8)
    assert (series.X, series.n) == (10, 8)
    assert series.x.shape == series.err.shape == (8,)
    assert np.all((series.x >= 10) & (series.x <= 20))
