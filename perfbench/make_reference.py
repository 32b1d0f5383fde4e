#!/usr/bin/env python3
"""Regenerate the committed reference hashes of the benchmark's grids.

Run from the root of a checkout, only when a change is *meant* to alter
stored records (the references pin the current results byte for byte)::

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/<grid>-seed<n>.json`` for every grid and
every seed in ``workloads.REFERENCE_SEEDS``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run as bench
from check import write_reference
from workloads import REFERENCE_SEEDS, WORKLOADS


def main() -> int:
    if not bench.use_program():
        return 2
    bench.CACHE_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=bench.CACHE_DIR))
    try:
        grids = {workload.grid: workload for workload in WORKLOADS.values()}
        for grid, workload in grids.items():
            for seed in REFERENCE_SEEDS:
                families = bench.resolve_families(workload, seed)
                store_dir = tmp / f"{grid}-{seed}"
                result, _wall = bench.timed_pass(families, workload, store_dir, workload.workers)
                if result.failures or len(result.records) != len(result.tasks):
                    print(f"{grid} seed {seed}: cells failed", file=sys.stderr)
                    return 1
                print(write_reference(grid, seed, result))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
