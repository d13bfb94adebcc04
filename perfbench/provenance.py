"""Run provenance shared by the benchmark runner and the verify baseline."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# BLAS/OpenMP pools are pinned to one thread: each workload is one process
# on a small machine, and a fixed setting keeps both sides of a comparison
# alike.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout() -> None:
    """Run in the child before exec: turn off address-space randomization
    for this process only.  Python code here varies by up to 20% between
    processes with random layouts; with a fixed layout repetitions agree
    to about 1%."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(ADDR_NO_RANDOMIZE)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: THREADS for var in THREAD_VARS},
    }
