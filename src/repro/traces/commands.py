"""``repro-access trace``: generate a synthetic trace and print its statistics."""

from __future__ import annotations

from repro.analysis import report
from repro.cli import check_positive
from repro.traces.io import write_trace
from repro.traces.models import TraceStats
from repro.traces.synthetic import generate_crawdad_like_trace


def register(subparsers) -> None:
    """Add the ``trace`` command."""
    parser = subparsers.add_parser("trace", help="generate a synthetic wireless trace")
    parser.add_argument("--clients", type=int, default=272)
    parser.add_argument("--gateways", type=int, default=40)
    parser.add_argument("--hours", type=float, default=24.0)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--output", type=str, default=None, help="write the trace as CSV")
    parser.set_defaults(handler=_cmd_trace)


def _cmd_trace(args) -> int:
    code = check_positive([
        ("--clients", args.clients), ("--gateways", args.gateways), ("--hours", args.hours),
    ])
    if code is not None:
        return code
    trace = generate_crawdad_like_trace(
        seed=args.seed,
        num_clients=args.clients,
        num_gateways=args.gateways,
        duration=args.hours * 3600.0,
    )
    stats = TraceStats.from_trace(trace)
    print(report.render_key_values({
        "clients": stats.num_clients,
        "gateways": stats.num_gateways,
        "flows": stats.num_flows,
        "total_gigabytes": stats.total_bytes / 1e9,
        "mean_utilization_percent": 100.0 * stats.mean_utilization,
        "peak_hour": stats.peak_hour,
        "peak_hour_utilization_percent": 100.0 * stats.peak_hour_utilization,
    }, title="Synthetic trace statistics"))
    if args.output:
        write_trace(trace, args.output)
        print(f"trace written to {args.output}")
    return 0
