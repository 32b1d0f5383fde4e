"""The comparison engine: classify fresh metrics against baselines.

Every (cell, metric) pair diffs to one status:

* ``identical`` — exactly the committed value;
* ``improved`` — a different value, but in the metric's good direction
  (passes; ``regress update`` adopts it into the committed baseline);
* ``regressed`` — a different value in the bad (or an unknown)
  direction: the gate fails and names the offending cell;
* ``new`` — present in the run, absent from the baseline (passes);
* ``missing`` — committed in the baseline but absent from the run: a
  scheme or metric silently disappearing is itself a regression.

``config-mismatch`` diffs flag a baseline recorded under a different
sweep configuration than the one being checked — comparing those numbers
would be meaningless, so the gate fails loudly instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.regress.baseline import Baseline, MetricEntry

#: Statuses that make ``check`` exit non-zero.
GATING_STATUSES = frozenset({"regressed", "missing", "config-mismatch"})

#: Every status a diff can carry, in report order.
ALL_STATUSES = (
    "identical",
    "improved",
    "regressed",
    "new",
    "missing",
    "config-mismatch",
)


@dataclass(frozen=True)
class Diff:
    """One classified (cell, metric) comparison."""

    baseline: str
    cell: str
    metric: str
    status: str
    expected: Optional[float] = None
    observed: Optional[float] = None
    detail: str = ""

    @property
    def gating(self) -> bool:
        return self.status in GATING_STATUSES

    @property
    def delta(self) -> Optional[float]:
        if self.expected is None or self.observed is None:
            return None
        return self.observed - self.expected

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "baseline": self.baseline,
            "cell": self.cell,
            "metric": self.metric,
            "status": self.status,
        }
        if self.expected is not None:
            payload["expected"] = self.expected
        if self.observed is not None:
            payload["observed"] = self.observed
        if self.delta is not None:
            payload["delta"] = self.delta
        if self.detail:
            payload["detail"] = self.detail
        return payload


def classify(entry: MetricEntry, observed: float) -> str:
    """The status of one observed value against its baseline entry."""
    if observed == entry.value:
        return "identical"
    if entry.direction == "higher":
        return "improved" if observed > entry.value else "regressed"
    if entry.direction == "lower":
        return "improved" if observed < entry.value else "regressed"
    # No known good direction: any escape from the claim is a regression.
    return "regressed"


def compare_cells(
    baseline: Baseline,
    observed: Mapping[str, Mapping[str, float]],
) -> List[Diff]:
    """Diff observed ``cell -> metric -> value`` maps against a baseline.

    Diff order is deterministic: baseline cells in sorted order (their
    metrics sorted), then observed-only cells.
    """
    diffs: List[Diff] = []
    for cell in sorted(baseline.cells):
        entries = baseline.cells[cell]
        observed_metrics = observed.get(cell)
        if observed_metrics is None:
            diffs.append(Diff(
                baseline=baseline.name, cell=cell, metric="*", status="missing",
                detail="cell committed in the baseline but absent from the run",
            ))
            continue
        for metric in sorted(entries):
            entry = entries[metric]
            if metric not in observed_metrics:
                diffs.append(Diff(
                    baseline=baseline.name, cell=cell, metric=metric,
                    status="missing", expected=entry.value,
                    detail="metric committed in the baseline but absent from the run",
                ))
                continue
            value = float(observed_metrics[metric])
            status = classify(entry, value)
            detail = ""
            if status == "regressed":
                detail = _regression_detail(entry, value)
            diffs.append(Diff(
                baseline=baseline.name, cell=cell, metric=metric, status=status,
                expected=entry.value, observed=value, detail=detail,
            ))
        for metric in sorted(set(observed_metrics) - set(entries)):
            diffs.append(Diff(
                baseline=baseline.name, cell=cell, metric=metric, status="new",
                observed=float(observed_metrics[metric]),
            ))
    for cell in sorted(set(observed) - set(baseline.cells)):
        diffs.append(Diff(
            baseline=baseline.name, cell=cell, metric="*", status="new",
            detail="cell absent from the baseline; 'regress update' records it",
        ))
    return diffs


def _regression_detail(entry: MetricEntry, observed: float) -> str:
    direction = {
        "higher": "higher is better",
        "lower": "lower is better",
        "none": "any change regresses",
    }[entry.direction]
    return f"moved {observed - entry.value:+g} outside the exact baseline ({direction})"


def compare_config(baseline: Baseline, config: Mapping[str, object]) -> List[Diff]:
    """Flag a baseline whose recorded sweep config differs from the run's.

    Only keys present in both are compared — extra provenance in the
    baseline (or new knobs in the run) never gates by itself.
    """
    diffs: List[Diff] = []
    for key in sorted(set(baseline.config) & set(config)):
        if baseline.config[key] != config[key]:
            diffs.append(Diff(
                baseline=baseline.name, cell="config", metric=str(key),
                status="config-mismatch",
                detail=(
                    f"baseline recorded {key}={baseline.config[key]!r} but the "
                    f"run used {key}={config[key]!r}; re-run 'regress update' "
                    "or match the flags"
                ),
            ))
    return diffs


@dataclass
class RegressReport:
    """Everything one ``regress check`` concluded, machine-readably."""

    diffs: List[Diff] = field(default_factory=list)
    #: Names of the baselines that were checked, in check order.
    baselines: List[str] = field(default_factory=list)
    strict: bool = False

    def extend(self, diffs: List[Diff]) -> None:
        self.diffs.extend(diffs)

    def counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in ALL_STATUSES}
        for diff in self.diffs:
            counts[diff.status] = counts.get(diff.status, 0) + 1
        return counts

    @property
    def gating_diffs(self) -> List[Diff]:
        gating = [diff for diff in self.diffs if diff.gating]
        if self.strict:
            gating += [diff for diff in self.diffs if diff.status == "improved"]
        return gating

    @property
    def ok(self) -> bool:
        return not self.gating_diffs

    def to_payload(self) -> Dict[str, object]:
        return {
            "schema_version": 1,
            "baselines": list(self.baselines),
            "strict": self.strict,
            "ok": self.ok,
            "summary": self.counts(),
            "diffs": [diff.to_payload() for diff in self.diffs],
        }
