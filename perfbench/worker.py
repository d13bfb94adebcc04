"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--spans FILE]

Prints `ready` once heislat is imported and the workload's shell table is
built, then one JSON line: wall seconds of the workload, peak RSS, the
oracle checks and (traced) the per-layer metrics.  `run.py` starts one of
these per repetition, so every lru_cache in heislat starts cold, as it does
for a CLI user.  Oracle checks run after the timed region, untraced.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import time
from fractions import Fraction

import numpy as np

Q = 3

# Workload sizes.  Each workload is a shorter stand-in for the acceptance
# criteria named in BENCHMARK.json; the seed only picks inputs inside these.
SIZES = {
    "limit-law": {"m_max": 60, "d_mod": 8, "k_max": 64},
    "window": {"X": (300, 75), "n": 150, "n_jitter": 3, "table_limit": 600**2, "oracle_per_X": 2},
    "voronoi-gap": {"X": (24, 32), "n": 96, "n_jitter": 3, "oracle_H": 40, "oracle_points": 6},
    "moment-routes": {
        "ergodic_d_mod": 10,
        "routes_q": (3, 4),
        "routes_m": (1, 2, 5, 13, 17),
        "analytic_box": 40,
        "l4_box": 8,
        "third_q": (3, 4, 5),
        "offgrid_M": 40,
        "offgrid_box": 64,
        "offgrid_n": 4000,
        "offgrid_x": (200.0, 400.0),
        "offgrid_oracle_points": 8,
    },
}

# Accuracy figures at the commit that introduced this benchmark.  They are
# deterministic, so a later change that buys speed with accuracy fails the
# gate.  m2_rel_gap has no gate: it is 1.2e-14 there, because the Gaussian
# tail closure matches the variance by construction; its oracle is the 2%
# bound of criterion 6.
BASELINE = {
    "density_err_budget": 7.277101999979435e-04,
    "ergodic_gap": 2.6910668676872973e-02,
}
GATE = 1.10


def inputs(workload: str, seed: int) -> dict:
    """Everything a seed varies: sample counts (hence the dilation grids),
    oracle subsets and off-grid points."""
    rng = np.random.default_rng([seed, sorted(SIZES).index(workload)])
    s = SIZES[workload]
    if workload == "window":
        ns = [s["n"] + int(rng.integers(s["n_jitter"])) for _ in s["X"]]
        picks = [sorted(rng.choice(n, s["oracle_per_X"], replace=False).tolist()) for n in ns]
        return {"n": ns, "oracle_idx": picks}
    if workload == "voronoi-gap":
        n = s["n"] + int(rng.integers(s["n_jitter"]))
        pts = np.sort(rng.uniform(5.0, 10.0, s["oracle_points"]))
        return {"n": n, "oracle_x": pts}
    if workload == "moment-routes":
        lo, hi = s["offgrid_x"]
        x = rng.uniform(lo, hi, s["offgrid_n"])
        idx = rng.choice(s["offgrid_n"], s["offgrid_oracle_points"], replace=False)
        return {"x": x, "oracle_idx": np.sort(idx)}
    return {}


class Checks:
    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))


def setup(workload: str):
    """Per-process set-up counted in setup_s: the shell table, if any."""
    import heislat

    s = SIZES[workload]
    if workload == "window":
        return heislat.build_r2q_prefix(Q, s["table_limit"])
    if workload == "voronoi-gap":
        return heislat.build_r2q_prefix(Q, (2 * max(s["X"])) ** 2)
    return None


def run_limit_law(tables, inp):
    from heislat import distribution

    s = SIZES["limit-law"]
    grid = distribution.density(Q, m_max=s["m_max"], d_mod=s["d_mod"], k_max=s["k_max"])
    report = distribution.cdf_and_moments(grid)
    return {"grid": grid, "report": report}


def check_limit_law(out, inp, checks: Checks, tables) -> dict:
    from heislat import distribution, moments

    s = SIZES["limit-law"]
    grid, mom = out["grid"], out["report"]["moments"]
    target = moments.variance_series(Q).value
    m2_gap = abs(mom[2] - target) / target
    budget = grid.total_error
    checks.add("mass within 1e-3 of 1", abs(mom[0] - 1) <= 1e-3, f"mass {mom[0]!r}")
    checks.add("m2_rel_gap <= 2%", m2_gap <= 0.02, f"m2 {mom[2]!r} vs {target!r}")
    phi0 = complex(distribution.char_function(Q, 0.0, grid.m_max, s["d_mod"], s["k_max"], grid.tail_variance))
    checks.add("Phi(0) = 1", abs(phi0 - 1) <= 1e-12, f"Phi(0) = {phi0!r}")
    _gate(checks, "density_err_budget", budget)
    return {"density_err_budget": budget, "m2_rel_gap": m2_gap, "third": mom[3]}


def _gate(checks: Checks, name: str, value: float) -> None:
    base = BASELINE[name]
    checks.add(f"{name} within {GATE} x baseline", value <= GATE * base, f"{value!r} vs {base!r}")


def run_window(tables, inp):
    from heislat import empirical, moments

    s = SIZES["window"]
    series = [empirical.sample_errors(Q, tables, X, n) for X, n in zip(s["X"], inp["n"])]
    variance = moments.variance_series(Q).value
    ks = [empirical.ks_distance_gaussian(sr, variance) for sr in series]
    return {"series": series, "ks": ks}


def check_window(out, inp, checks: Checks, tables) -> dict:
    """Recount a seeded subset of samples exactly with Python integers."""
    from heislat import lattice

    vol = lattice.volume_unit_ball(Q)
    for sr, picks in zip(out["series"], inp["oracle_idx"]):
        for i in picks:
            xf = float(sr.x[i])
            fr = Fraction(xf).limit_denominator(10**6)
            exact_x = float(fr) == xf
            exact = lattice.count_points(Q, tables, x=fr)
            fast = lattice.count_points_fast(Q, tables, fr.numerator, fr.denominator)
            err = (exact - vol * float(fr) ** (2 * Q + 2)) / float(fr) ** (2 * Q - 1)
            same_err = abs(err - sr.err[i]) <= 1e-9 * (1 + abs(err))
            checks.add(
                f"X={sr.X} sample {i} recount",
                exact_x and exact == fast and same_err,
                f"x={fr} exact {exact} fast {fast} err {sr.err[i]!r} vs {err!r}",
            )
    return {"ks": out["ks"], "n": [sr.n for sr in out["series"]]}


def run_voronoi_gap(tables, inp):
    from heislat import voronoi

    s = SIZES["voronoi-gap"]
    return {"gap": [voronoi.mean_square_gap(Q, tables, X, inp["n"]) for X in s["X"]]}


def check_voronoi_gap(out, inp, checks: Checks, tables) -> dict:
    from heislat import voronoi

    s = SIZES["voronoi-gap"]
    g = out["gap"]
    checks.add(f"gap(X={s['X'][0]}) > gap(X={s['X'][1]})", g[0] > g[1], f"{g}")
    x = inp["oracle_x"]
    stream = voronoi.eval_S_streaming(Q, s["oracle_H"], x)
    stored = voronoi.build_S_terms(Q, s["oracle_H"]).evaluate(x)
    diff = float(np.max(np.abs(stream - stored)))
    checks.add("streaming == materialized S_{q,H}", diff <= 1e-9 * (1 + float(np.max(np.abs(stored)))), f"max diff {diff:.2e}")
    return {"gap": g, "n": inp["n"]}


def run_moment_routes(tables, inp):
    from heislat import moments, phi

    s = SIZES["moment-routes"]
    out = {"ergodic": moments.q_ergodic(Q, 1, 2, d_mod=s["ergodic_d_mod"])}
    box = s["analytic_box"]
    out["routes"] = {
        (q, m): (moments.q2_closed(q, m), moments.q_analytic(q, m, 2, d_max=box, k_max=box))
        for q in s["routes_q"]
        for m in s["routes_m"]
    }
    out["l4"] = moments.q_analytic(Q, 1, 4, d_max=s["l4_box"], k_max=s["l4_box"])
    out["third"] = {q: moments.third_moment_sum(q) for q in s["third_q"]}
    box = s["offgrid_box"]
    out["offgrid"] = phi.partial_sum_phi(Q, s["offgrid_M"], inp["x"], box, box)
    return out


def check_moment_routes(out, inp, checks: Checks, tables) -> dict:
    from heislat import phi

    s = SIZES["moment-routes"]
    for (q, m), (closed, analytic) in out["routes"].items():
        gap = abs(closed.value - analytic.value)
        checks.add(f"q={q} m={m} closed vs analytic", gap <= closed.error + analytic.error, f"gap {gap:.3e}")
    erg, closed = out["ergodic"], out["routes"][(Q, 1)][0]
    ergodic_gap = abs(erg.value - closed.value)
    checks.add("q=3 m=1 ergodic vs closed", ergodic_gap <= erg.error + closed.error, f"gap {ergodic_gap:.3e}")
    _gate(checks, "ergodic_gap", ergodic_gap)
    for q, mv in out["third"].items():
        checks.add(f"q={q} third moment sum < 0", mv.value + mv.error < 0, f"{mv.value:.3e} + {mv.error:.3e}")
    # off-grid partial sums against the component evaluator at a seeded subset
    idx = inp["oracle_idx"]
    x = inp["x"][idx]
    box = s["offgrid_box"]
    ref = np.zeros(len(x))
    for m in range(1, s["offgrid_M"] + 1):
        if not phi.component_vanishes(m):
            ref += phi.build_phi(Q, m, box, box)(math.sqrt(m) * x * x)
    diff = float(np.max(np.abs(out["offgrid"][idx] - ref)))
    checks.add("partial_sum_phi == sum of phi_m", diff <= 1e-9 * (1 + float(np.max(np.abs(ref)))), f"max diff {diff:.2e}")
    return {"ergodic_gap": ergodic_gap, "Q4": out["l4"].value}


WORKLOADS = {
    "limit-law": (run_limit_law, check_limit_law),
    "window": (run_window, check_window),
    "voronoi-gap": (run_voronoi_gap, check_voronoi_gap),
    "moment-routes": (run_moment_routes, check_moment_routes),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the spans here (traced runs)")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    tables = setup(args.workload)
    inp = inputs(args.workload, args.seed)
    print("ready", flush=True)

    run, check = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    out = run(tables, inp)
    t1 = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer = top_self = None
    if tracer is not None:
        tracer.enabled = False
        layer, self_s = spans.layer_metrics(tracer, t0, t1)
        top_self = sorted(self_s.items(), key=lambda kv: -kv[1])[:5]
        if args.spans:
            spans.dump(tracer, args.spans)

    checks = Checks()
    info = check(out, inp, checks, tables)

    print(
        json.dumps(
            {
                "wall_s": t1 - t0,
                "peak_rss_mb": peak_mb,
                "checks": checks.items,
                "info": info,
                "layer": layer,
                "top_self": top_self,
            },
            default=float,
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
