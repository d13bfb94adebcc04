"""Time every `heislat verify` criterion once and store the seconds.

Context for the benchmark workloads, not a benchmark metric: each workload
is a shorter stand-in for one of these criteria.  Criteria run in suite
order in one process, so later ones reuse the tables and density grids
that earlier ones cached, exactly as `heislat verify` does.

    python3 perfbench/verify_baseline.py [--out perfbench/verify_baseline.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    from provenance import ROOT, THREAD_VARS, THREADS, provenance

    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, str(ROOT / "src"))

    from heislat import acceptance

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(HERE / "verify_baseline.json"))
    args = parser.parse_args()

    stands_in = {
        "6 density integrity": "limit-law",
        "10 truncation stability": "limit-law",
        "7 empirical convergence": "window",
        "9 trig-sum mean-square trend": "voronoi-gap",
        "4 moment cross-validation": "moment-routes",
        "5 third moment negativity": "moment-routes",
        "8 component L2 gap": "moment-routes",
    }
    rows = []
    t_all = time.perf_counter()
    for name, check in acceptance.CRITERIA:
        t0 = time.perf_counter()
        try:
            passed, detail = check()
        except Exception as exc:  # a crash is recorded as a failed criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        secs = time.perf_counter() - t0
        rows.append(
            {
                "criterion": name,
                "seconds": round(secs, 3),
                "passed": passed,
                "workload": stands_in.get(name),
                "detail": detail,
            }
        )
        print(f"{secs:8.2f} s  {'PASS' if passed else 'FAIL'}  {name}", flush=True)
    record = {
        "what": "seconds per heislat verify criterion, one in-process run in suite order",
        "total_s": round(time.perf_counter() - t_all, 3),
        "provenance": provenance(),
        "criteria": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
