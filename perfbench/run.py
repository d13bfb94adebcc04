"""heislat benchmark runner.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs repetitions of one workload, each in a fresh interpreter
(perfbench/worker.py), until --seconds have passed, and reports the median
of each metric over the repetitions.  Every repetition pays interpreter
start, `import heislat` and its own shell-table build (setup_s), then runs
the workload (wall_s) and its output oracles.  With --trace 1 repetitions
alternate between untraced and traced, and the per-layer metrics come from
the traced ones.  The last stdout line is the JSON result; the exit code is
non-zero when an oracle fails.  Run records and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import worker
from provenance import ROOT, fixed_layout, pinned_env, provenance

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = 1
MIN_REPS = 3
REP_TIMEOUT_S = 150


def run_rep(workload: str, seed: int, traced: bool, spans_path: Path | None) -> dict:
    """Start one worker; setup_s is the time from its start to its `ready`."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=pinned_env(), cwd=ROOT, preexec_fn=fixed_layout
    )
    watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = None
        last = ""
        for line in proc.stdout:
            if line.strip() == "ready" and ready is None:
                ready = time.perf_counter()
            elif line.strip():
                last = line
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
    if code != 0 or ready is None:
        raise RuntimeError(f"{workload} worker exited with code {code}")
    rep = json.loads(last)
    rep["setup_s"] = ready - t0
    rep["traced"] = traced
    return rep


def median_of(reps: list[dict], key) -> float:
    return statistics.median(key(r) for r in reps)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "heislat" / "__init__.py").is_file():
        print(f"no heislat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    reps: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    min_reps = MIN_REPS + 1 if args.trace else MIN_REPS
    while len(reps) < min_reps or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(reps) % 2 == 1
        spans_path = OUT / f"{tag}-rep{len(reps)}.spans.jsonl" if traced else None
        reps.append(run_rep(args.workload, args.seed, traced, spans_path))

    plain = [r for r in reps if not r["traced"]]
    checks = [c for r in reps for c in r["checks"]]
    failed = [c for c in checks if not c[1]]

    if args.trace:
        traced_reps = [r for r in reps if r["traced"]]
        names = traced_reps[0]["layer"].keys()
        values = {n: median_of(traced_reps, lambda r, n=n: r["layer"][n]) for n in names}
        values["trace.overhead_frac"] = (
            median_of(traced_reps, lambda r: r["wall_s"]) / median_of(plain, lambda r: r["wall_s"]) - 1
        )
        wanted = SPEC["per_layer"]
    else:
        values = {
            "wall_s": median_of(plain, lambda r: r["wall_s"]),
            "setup_s": median_of(plain, lambda r: r["setup_s"]),
            "peak_rss_mb": median_of(plain, lambda r: r["peak_rss_mb"]),
        }
        wanted = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": worker.SIZES[args.workload],
        "provenance": provenance(),
        "reps": [
            {k: r[k] for k in ("traced", "setup_s", "wall_s", "peak_rss_mb", "info", "top_self")} for r in reps
        ],
        "failed_checks": failed,
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")

    for c in failed:
        print(f"ORACLE FAIL  {c[0]}: {c[2]}")
    for n, m in metrics.items():
        print(f"{args.workload:14s} {n:36s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        top = ", ".join(f"{name} {secs:.3f} s" for name, secs in traced_reps[0]["top_self"])
        print(f"{args.workload:14s} largest self times (first traced rep): {top}")
    print(f"{args.workload:14s} reps {len(reps)} ({len(plain)} untraced), oracle checks {len(checks)}, failed {len(failed)}")
    print(
        json.dumps(
            {"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
