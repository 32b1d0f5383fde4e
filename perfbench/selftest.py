#!/usr/bin/env python3
"""Toy-scale self-test of the benchmark harness (a few seconds).

Run from the root of a checkout::

    python3 perfbench/selftest.py

On the ``smoke`` family with 2 repetitions it shows that

1. a run prints every end-to-end and every per-layer metric by name with
   its unit, and passes its own checks;
2. flipping one byte of a stored record raises ``failed_frac`` above 0,
   both for a store a pass wrote and for the warm store a resume reads;
3. a traced pass stores the same record bytes as an untraced one, and
   tracing leaves every wrapped attribute as it found it.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run as bench
from check import Checker
from layers import SPANS, LayerTracer, owner_of
from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS, Workload

TOY = Workload(name="selftest-smoke", families=("smoke",), runs_per_scheme=2, workers=1)


def run_toy(trace: int) -> dict:
    """A whole benchmark run of the toy workload; its printed result line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main([
            "--workload", TOY.name, "--seed", "3", "--seconds", "0.2",
            "--trace", str(trace),
        ])
    assert code == 0, f"run exited {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def flip_digit(path: Path) -> None:
    """Change one digit of a stored metric value (the JSON stays valid)."""
    text = path.read_text()
    match = re.search(r'"metrics": \{\s*"[^"]+": -?(\d)', text)
    position = match.start(1)
    digit = "1" if text[position] != "1" else "2"
    path.write_text(text[:position] + digit + text[position + 1:])


def check_metrics_print(_tmp: Path) -> None:
    for trace, units in ((0, END_TO_END_UNITS), (1, PER_LAYER_UNITS)):
        line = run_toy(trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0, line
        printed = {name: entry["unit"] for name, entry in line["metrics"].items()}
        assert printed == units, f"trace {trace}: {printed}"
        for name, entry in line["metrics"].items():
            assert isinstance(entry["value"], (int, float)), (name, entry)


def check_flipped_byte(tmp: Path) -> None:
    from repro.sweep import ResultStore

    store_dir = tmp / "written"
    result, _wall = bench.timed_pass(bench.resolve_families(TOY, 0), TOY, store_dir, 1)
    clean = Checker(None)
    clean.check_sweep(result, ResultStore(store_dir))
    assert clean.failed_frac == 0.0, clean.problems
    flip_digit(ResultStore(store_dir).path_for(result.tasks[0].digest))
    flipped = Checker(None)
    flipped.check_sweep(result, ResultStore(store_dir))
    assert flipped.failed_frac > 0.0, "a flipped stored byte went unnoticed"

    resume = bench.Run(replace(TOY, warm_store=True), 0, 0.0, tmp / "resume")
    resume.one_pass(1, populate=True)
    assert resume.checker.failed == 0, resume.checker.problems
    flip_digit(next((resume.warm_dir / "runs").glob("*.json")))
    resume.one_pass(1)
    assert resume.checker.failed_frac > 0.0, "a flipped byte in the warm store went unnoticed"


def _raw(module_name: str, path: str):
    owner, attr = owner_of(module_name, path)
    return vars(owner)[attr]


def check_traced_bytes(tmp: Path) -> None:
    families = bench.resolve_families(TOY, 0)
    originals = [_raw(module, path) for module, path, _name in SPANS]
    bench.timed_pass(families, TOY, tmp / "untraced", 1)
    tracer = LayerTracer()
    with tracer:
        bench.timed_pass(families, TOY, tmp / "traced", 1)
    assert tracer.count("simulation") == 10, tracer.calls
    assert [_raw(module, path) for module, path, _name in SPANS] == originals
    untraced = sorted((tmp / "untraced" / "runs").glob("*.json"))
    traced = sorted((tmp / "traced" / "runs").glob("*.json"))
    assert [p.name for p in untraced] == [p.name for p in traced] and untraced
    for left, right in zip(untraced, traced):
        assert left.read_bytes() == right.read_bytes(), left.name


def main() -> int:
    if not bench.use_program():
        return 2
    WORKLOADS[TOY.name] = TOY
    # Set-up probes start fresh interpreters that know only the real
    # workloads; the toy run times nothing against a bound.
    bench.probe_setup = lambda workload, seed: 0.0
    bench.CACHE_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.CACHE_DIR))
    try:
        for check in (check_metrics_print, check_flipped_byte, check_traced_bytes):
            try:
                check(tmp / check.__name__)
            except AssertionError as exc:
                print(f"FAIL {check.__name__}: {exc}")
                return 1
            print(f"ok   {check.__name__}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
