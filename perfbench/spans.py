"""Span tracing of the heislat layers from outside the package.

`install()` wraps the public functions of each layer module and rebinds
every reference to them that the heislat modules hold (a function imported
by name into another module is rebound there too), plus the evaluator
methods of `PhiTruncation` and `VoronoiCoefficients`.  Nothing under `src/`
changes.  Spans (name, start, end, parent, counters) are kept in memory and
reduced to per-layer self times and counters by `layer_metrics`.

Per-term scalar helpers (LEAF) are not wrapped: they run up to a million
times per workload, so a span each would cost more than the work.  Their
time is self time of the function that calls them.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("arithmetic", "lattice", "empirical", "phi", "distribution", "moments", "voronoi")

LEAF = {
    "arithmetic": {
        "mobius", "chi4", "is_squarefree", "has_prime_factor_3_mod_4", "two_square_reps",
        "r2", "r2_weighted", "r2_weighted_chi", "xi", "eps_sign", "frak_r",
    },
    "lattice": {"as_fraction"},
    "phi": {"component_vanishes"},
    "voronoi": {"tau", "tau_star", "lam"},
}

METHODS = {"phi": {"PhiTruncation": ("grid_values", "__call__")}, "voronoi": {"VoronoiCoefficients": ("evaluate",)}}


def _wmax(num: int, den: int) -> int:
    """floor(x^2) for x = num/den: the w-range of the counting kernel."""
    return math.isqrt(num**4 // den**4)


# counters taken from the arguments (a, kw) and the result of a call
COUNTERS = {
    "arithmetic.build_r2q_prefix": lambda a, kw, out: {"entries": out.limit + 1},
    "lattice.count_points_fast": lambda a, kw, out: {"w": 2 * _wmax(a[2], a[3]) + 1},
    "phi.build_phi": lambda a, kw, out: {"terms": len(out.k)},
    "phi.PhiTruncation.grid_values": lambda a, kw, out: {"points": int(a[1])},
    "phi.PhiTruncation.__call__": lambda a, kw, out: {"term_points": len(a[0].k) * np.size(a[1])},
    "phi.partial_sum_phi": lambda a, kw, out: {"n_x": np.size(a[2])},
    "distribution.char_function": lambda a, kw, out: {"sigma": np.size(a[1])},
    "voronoi.eval_S_streaming": lambda a, kw, out: {"n_x": np.size(a[2])},
    "voronoi.VoronoiCoefficients.evaluate": lambda a, kw, out: {"term_evals": len(a[0]) * np.size(a[1])},
}


class Tracer:
    """In-memory span recorder.  Each span is [name, start, end, parent, outer, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.enabled = True
        self.freqs: list[np.ndarray] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.active[name] == 0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.active[name] += 1
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()
        self.active[rec[0]] -= 1

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name)
        tracer = self

        def traced(*a, **kw):
            if not tracer.enabled:
                return fn(*a, **kw)
            rec = tracer._open(name)
            try:
                out = fn(*a, **kw)
            except BaseException as exc:
                tracer._close(rec)
                rec[5] = {"raised": type(exc).__name__}
                raise
            tracer._close(rec)
            if counters:
                rec[5] = counters(a, kw, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_rows(self, name: str, fn):
        """Generator wrapper: one span per yielded row batch, counting its terms."""
        tracer = self

        def traced(*a, **kw):
            it = fn(*a, **kw)
            while True:
                if not tracer.enabled:
                    yield from it
                    return
                rec = tracer._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    tracer._close(rec)
                    return
                except BaseException:
                    tracer._close(rec)
                    raise
                tracer._close(rec)
                rec[5] = {"terms": len(item[0])}
                tracer.freqs.append(item[0])
                yield item

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and evaluator methods."""
    import heislat.cli  # noqa: F401  (loads every layer module and both drivers)

    mods = {n: m for n, m in sys.modules.items() if n == "heislat" or n.startswith("heislat.")}
    for layer in LAYERS:
        mod = mods[f"heislat.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or attr in LEAF.get(layer, ()) or isinstance(obj, type):
                continue
            if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(obj):
                new = tracer.wrap_rows(name, obj)
            else:
                new = tracer.wrap(name, obj)
            for other in mods.values():
                for key, val in list(vars(other).items()):
                    if val is obj:
                        setattr(other, key, new)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))


def _distinct_frac(freqs: list[np.ndarray]) -> float:
    """Distinct frequencies / terms.  Distinct values sqrt(m)/d of one S_{q,H}
    differ relatively by far more than 1e-13, and float rounding by far less."""
    f = np.sort(np.concatenate(freqs)) if freqs else np.zeros(0)
    if len(f) == 0:
        return 0.0
    new = np.diff(f) > 1e-13 * f[1:]
    return float(1 + np.count_nonzero(new)) / len(f)


def layer_metrics(tracer: Tracer, t0: float, t1: float) -> tuple[dict, dict]:
    """Reduce the spans to per-layer metrics, and self seconds per span name.

    Spans that start before t0 belong to set-up; only the table build is
    taken from them.  Self time is a span's duration minus its children's.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    calls = Counter()
    incl = defaultdict(float)  # outermost spans only, so recursion counts once
    self_t = defaultdict(float)
    count = defaultdict(float)
    layer_self = defaultdict(float)
    count_ms = []
    build_s = entries = 0.0
    budget_errors = 0
    for i, rec in enumerate(spans):
        name, start, end, parent, outer, ctr = rec
        dur = end - start
        ctr = ctr or {}
        if start < t0:
            if name == "arithmetic.build_r2q_prefix":
                build_s += dur
                entries += ctr.get("entries", 0)
            continue
        calls[name] += 1
        if outer:
            incl[name] += dur
        self_t[name] += dur - child[i]
        layer_self[name.split(".")[0]] += dur - child[i]
        if name == "lattice.count_points_fast":
            count_ms.append(dur * 1e3)
        for key, val in ctr.items():
            if key != "raised":
                count[f"{name}:{key}"] += val
        if ctr.get("raised") == "BudgetError" and name.startswith("lattice.count_points"):
            budget_errors += 1
        if name == "phi.build_phi" and parent >= 0 and spans[parent][0] == "phi.partial_sum_phi":
            count["offgrid_term_points"] += ctr.get("terms", 0) * (spans[parent][5] or {}).get("n_x", 0)
        if name == "voronoi.iter_S_rows" and parent >= 0 and spans[parent][0] == "voronoi.eval_S_streaming":
            count["stream_term_evals"] += ctr.get("terms", 0) * (spans[parent][5] or {}).get("n_x", 0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    count_s = incl["lattice.count_points_fast"] + incl["lattice.count_points"]
    w_values = count["lattice.count_points_fast:w"]
    grid_s = incl["phi.PhiTruncation.grid_values"]
    grid_points = count["phi.PhiTruncation.grid_values:points"]
    eval_self = self_t["voronoi.eval_S_streaming"] + self_t["voronoi.VoronoiCoefficients.evaluate"]
    term_evals = count["stream_term_evals"] + count["voronoi.VoronoiCoefficients.evaluate:term_evals"]
    wall = t1 - t0
    m = {
        "arithmetic.table_build_s": build_s,
        "arithmetic.table_entries": entries,
        "arithmetic.rho_calls": calls["arithmetic.rho_q"] + calls["arithmetic.rho_chi_q"],
        "arithmetic.rho_s": incl["arithmetic.rho_q"] + incl["arithmetic.rho_chi_q"],
        "lattice.count_calls": calls["lattice.count_points_fast"] + calls["lattice.count_points"],
        "lattice.count_s": count_s,
        "lattice.w_values": w_values,
        "lattice.w_values_per_s": rate(w_values, incl["lattice.count_points_fast"]),
        "lattice.count_p50_ms": float(np.percentile(count_ms, 50)) if len(count_ms) else 0.0,
        "lattice.count_p99_ms": float(np.percentile(count_ms, 99)) if len(count_ms) else 0.0,
        "lattice.budget_errors": budget_errors,
        "empirical.sample_self_s": self_t["lattice.sample_normalized_errors"] + self_t["empirical.sample_errors"],
        "empirical.ks_s": incl["empirical.ks_distance"] + incl["empirical.ks_distance_gaussian"],
        "phi.build_calls": calls["phi.build_phi"],
        "phi.build_s": incl["phi.build_phi"],
        "phi.terms": count["phi.build_phi:terms"],
        "phi.grid_calls": calls["phi.PhiTruncation.grid_values"],
        "phi.grid_s": grid_s,
        "phi.grid_points": grid_points,
        "phi.grid_points_per_s": rate(grid_points, grid_s),
        "phi.offgrid_s": self_t["phi.partial_sum_phi"] + incl["phi.PhiTruncation.__call__"],
        "phi.offgrid_term_points": count["offgrid_term_points"] + count["phi.PhiTruncation.__call__:term_points"],
        "distribution.char_function_calls": calls["distribution.char_function"],
        "distribution.sigma_evals": count["distribution.char_function:sigma"],
        "distribution.char_factor_calls": calls["distribution.char_factor"],
        "distribution.char_factor_self_s": self_t["distribution.char_factor"],
        "distribution.inversion_s": self_t["distribution.density"],
        "voronoi.rows_s": incl["voronoi.iter_S_rows"],
        "voronoi.terms": count["voronoi.iter_S_rows:terms"],
        "voronoi.eval_self_s": eval_self,
        "voronoi.term_evals": term_evals,
        "voronoi.term_evals_per_s": rate(term_evals, eval_self),
        "voronoi.tails_s": incl["voronoi.eval_T_sums"],
        "voronoi.distinct_freq_frac": _distinct_frac(tracer.freqs),
    }
    for fn in ("q_ergodic", "q2_closed", "q_analytic", "variance_series"):
        m[f"moments.{fn}_s"] = incl[f"moments.{fn}"]
        m[f"moments.{fn}_calls"] = calls[f"moments.{fn}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.attributed_frac"] = rate(sum(layer_self.values()), wall)
    m["trace.spans"] = sum(calls.values())
    return m, dict(self_t)


def dump(tracer: Tracer, path) -> None:
    """Write the spans as JSON lines: name, start, end, parent, counters."""
    with open(path, "w") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps([rec[0], rec[1], rec[2], rec[3], rec[5]]) + "\n")
