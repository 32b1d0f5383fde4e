"""Trace persistence: CSV export of flow-level traces.

The on-disk format is a plain CSV with a header, one row per flow::

    flow_id,client_id,start_time,size_bytes,kind

plus a small JSON side-car describing the deployment (duration, number of
gateways, client→home-gateway mapping).  This keeps the traces readable and
diffable while staying dependency-free.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from repro.traces.models import WirelessTrace

PathLike = Union[str, Path]


def write_trace(trace: WirelessTrace, flows_path: PathLike, meta_path: PathLike | None = None) -> None:
    """Write a trace to ``flows_path`` (CSV) and ``meta_path`` (JSON).

    If ``meta_path`` is omitted it defaults to ``flows_path`` with a
    ``.meta.json`` suffix.
    """
    flows_path = Path(flows_path)
    meta_path = Path(meta_path) if meta_path is not None else flows_path.with_suffix(".meta.json")

    with flows_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["flow_id", "client_id", "start_time", "size_bytes", "kind"])
        for flow in trace.all_flows():
            writer.writerow([flow.flow_id, flow.client_id, f"{flow.start_time:.6f}", flow.size_bytes, flow.kind])

    meta = {
        "duration": trace.duration,
        "num_gateways": trace.num_gateways,
        "home_gateway": {str(c): g for c, g in trace.home_gateway.items()},
    }
    meta_path.write_text(json.dumps(meta, indent=2))
