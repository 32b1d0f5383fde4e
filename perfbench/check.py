"""Correctness checks of the benchmark's sweeps.

A grid cell counts as failed when it has no record, when its record's
bytes hash differently from the committed reference (for the default and
held-out seeds), from the first time the same digest was seen in this
run (traced vs untraced pass, pass vs pass, resume vs the run that
populated the store), or when the bytes in the store differ from the
record the sweep returned.  An independent anchor runs the run-0 cells of
the ``fleet-reps`` families at their catalog seeds and compares them with
the committed regress baselines, and with the swept records of the same
digests when the run saw them (``fleet-reps`` and ``resume`` at seed 0).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Families whose run-0 cells the anchor compares with ``baselines/``.
ANCHOR_FAMILIES = ("smoke-watt", "correlated-outage")


def record_hash(record) -> str:
    """Short content hash of one stored record's bytes."""
    return _text_hash(record.to_json())


def _text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_path(grid: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{grid}-seed{seed}.json"


def load_reference(grid: str, seed: int) -> Optional[Dict[str, str]]:
    """Digest prefix -> record hash, or None when no reference was cut."""
    path = reference_path(grid, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["cells"]


def write_reference(grid: str, seed: int, result) -> Path:
    """Record every cell's hash of ``result`` as the reference of ``seed``."""
    cells = {digest[:16]: record_hash(record) for digest, record in result.records.items()}
    if len(cells) != len(result.records):
        raise ValueError("digest prefixes collide; lengthen the prefix")
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = reference_path(grid, seed)
    payload = {"grid": grid, "seed": seed, "cells": cells}
    path.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    return path


class Checker:
    """Accumulates attempted and failed cells over a whole benchmark run."""

    def __init__(self, reference: Optional[Dict[str, str]]) -> None:
        self.reference = reference
        self.seen: Dict[str, str] = {}
        self.metrics_seen: Dict[str, Dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def check_sweep(self, result, store=None) -> None:
        """Check every grid cell of one sweep (and its store, if given)."""
        failed_digests = {failure.digest for failure in result.failures}
        digests = list(dict.fromkeys(task.digest for task in result.tasks))
        for digest in digests:
            self.attempted += 1
            record = result.records.get(digest)
            if record is None or digest in failed_digests:
                self._fail(f"{digest[:12]}: cell failed")
                continue
            self.metrics_seen.setdefault(digest, record.metrics)
            text = record.to_json()
            digest_hash = _text_hash(text)
            if digest_hash != self.seen.setdefault(digest, digest_hash):
                self._fail(f"{digest[:12]}: record differs from an earlier pass")
                continue
            if self.reference is not None and self.reference.get(digest[:16]) != digest_hash:
                self._fail(f"{digest[:12]}: record differs from the reference")
                continue
            if store is not None:
                try:
                    stored = store.path_for(digest).read_bytes()
                except OSError:
                    stored = b""
                if stored != text.encode():
                    self._fail(f"{digest[:12]}: stored bytes differ from the record")

    def check_anchor(self, baselines_dir: Path) -> None:
        """Compare the anchor cells with the committed regress baselines."""
        from repro.regress.runner import check_families
        from repro.sweep import SweepConfig, run_sweep

        config = SweepConfig(runs_per_scheme=1)
        result = run_sweep(family_names=list(ANCHOR_FAMILIES), config=config, workers=1)
        diffs = check_families(result, ANCHOR_FAMILIES, str(baselines_dir), config)
        bad_cells = {diff.cell for diff in diffs if diff.status != "identical"}
        # At seed 0 the fleet-reps grid holds these very cells (under other
        # labels), which ties its records to the baselines.
        for task in result.tasks:
            seen = self.metrics_seen.get(task.digest)
            if seen is not None and seen != result.record_for(task).metrics:
                bad_cells.add(f"{task.spec.label}|{task.scheme.name}")
        self.attempted += len(result.tasks)
        for cell in sorted(bad_cells):
            self._fail(f"anchor {cell}: differs from baselines/ or from the swept record")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def percentile(values: Iterable[float], share: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]
