"""Time the batch rollback kernel: ms per spot at N=500 for batch widths
m in {1, 128, 500}, each at CBLAB_THREADS=1 and 2.

    PYTHONPATH=src python scripts/bench_kernel.py [--repeats 5] [--label after]

Each cell is the best of `--repeats` timed calls after one warm-up call; the
spots are spread over 60-160 at the reference instrument's 2004-01-02 date.
Prints one JSON object with the machine record (nproc, numpy version, git sha)
and the cells, so two checkouts measured back to back on the same machine can
be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time
from datetime import date

import numpy as np

import cblab

WIDTHS = (1, 128, 500)
THREADS = (1, 2)
STEPS = 500


def _git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def measure(repeats: int) -> list[dict]:
    terms, mkt, t0 = cblab.reference_terms(), cblab.reference_market(), date(2004, 1, 2)
    cells = []
    for threads in THREADS:
        os.environ["CBLAB_THREADS"] = str(threads)
        for m in WIDTHS:
            spots = np.linspace(60.0, 160.0, m)
            cblab.rollback_batch(terms, mkt, t0, spots, STEPS)
            best = float("inf")
            for _ in range(repeats):
                t = time.perf_counter()
                cblab.rollback_batch(terms, mkt, t0, spots, STEPS)
                best = min(best, time.perf_counter() - t)
            cells.append({"m": m, "N": STEPS, "threads": threads,
                          "ms_per_spot": round(1e3 * best / m, 4)})
    return cells


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    record = {
        "label": args.label,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cells": measure(args.repeats),
    }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
