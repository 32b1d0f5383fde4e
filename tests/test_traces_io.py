"""Tests for trace persistence: the CSV and JSON side-car that write_trace emits."""

import csv
import json

import pytest

from repro.traces.io import write_trace
from repro.traces.synthetic import generate_crawdad_like_trace


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_write_read_roundtrip(tmp_path):
    trace = generate_crawdad_like_trace(seed=4, num_clients=12, num_gateways=4, duration=3600.0)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    rows = _read_rows(path)
    meta = json.loads(path.with_suffix(".meta.json").read_text())
    assert len(meta["home_gateway"]) == trace.num_clients
    assert meta["num_gateways"] == trace.num_gateways
    assert meta["duration"] == trace.duration
    assert len(rows) == trace.num_flows
    assert sum(int(row["size_bytes"]) for row in rows) == trace.total_bytes
    assert {int(c): g for c, g in meta["home_gateway"].items()} == trace.home_gateway


def test_roundtrip_preserves_flow_fields(tmp_path):
    trace = generate_crawdad_like_trace(seed=4, num_clients=5, num_gateways=2, duration=1800.0)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    original = {f.flow_id: f for f in trace.all_flows()}
    for row in _read_rows(path):
        reference = original[int(row["flow_id"])]
        assert int(row["client_id"]) == reference.client_id
        assert int(row["size_bytes"]) == reference.size_bytes
        assert float(row["start_time"]) == pytest.approx(reference.start_time, abs=1e-5)
        assert row["kind"] == reference.kind


def test_explicit_meta_path(tmp_path):
    trace = generate_crawdad_like_trace(seed=1, num_clients=3, num_gateways=2, duration=600.0)
    flows_path = tmp_path / "flows.csv"
    meta_path = tmp_path / "deployment.json"
    write_trace(trace, flows_path, meta_path)
    assert len(json.loads(meta_path.read_text())["home_gateway"]) == 3
    assert not flows_path.with_suffix(".meta.json").exists()
