"""``repro-access fleet``: gateway generations, fleet mixes and churn patterns."""

from __future__ import annotations

import sys

from repro.analysis import report
from repro.cli import check_positive
from repro.fleet import CHURN_PATTERNS, FLEETS, GENERATIONS, build_churn, churn_pattern_names


def register(subparsers) -> None:
    """Add the ``fleet`` command."""
    parser = subparsers.add_parser(
        "fleet",
        help="inspect gateway generations, fleet mixes and churn patterns",
        description="List the registered gateway hardware generations, the "
        "named fleet mixes selectable via the mixed-fleet scenario family, "
        "and the named churn patterns; --churn previews the concrete event "
        "timeline a pattern produces for a given deployment.",
    )
    parser.add_argument(
        "--churn",
        type=str,
        default=None,
        metavar="PATTERN",
        help="preview the materialised timeline of a churn pattern",
    )
    parser.add_argument("--gateways", type=int, default=20)
    parser.add_argument("--clients", type=int, default=136)
    parser.add_argument("--hours", type=float, default=24.0)
    parser.add_argument("--seed", type=int, default=2081)
    parser.set_defaults(handler=_cmd_fleet)


def _cmd_fleet(args) -> int:
    if args.churn is not None:
        return _preview_churn(args)
    print(report.format_table(
        ["generation", "active W", "sleep W", "wake W", "wake time"],
        [
            [
                generation.name,
                generation.power.active_w,
                generation.power.sleep_w,
                generation.power.waking_w,
                f"{generation.wake_up_time_s:.0f}s" if generation.wake_up_time_s is not None
                else "scheme default",
            ]
            for generation in GENERATIONS.values()
        ],
    ))
    print()
    print(report.format_table(
        ["fleet mix", "composition"],
        [
            [
                profile.name,
                ", ".join(f"{weight:g}x {name}" for name, weight in profile.mix),
            ]
            for profile in FLEETS.values()
        ],
    ))
    print()
    print(report.format_table(
        ["churn pattern", ""],
        [[name, "(--churn NAME previews the timeline)"] for name in churn_pattern_names()],
    ))
    return 0


def _preview_churn(args) -> int:
    if args.churn not in CHURN_PATTERNS:
        print(
            f"unknown churn pattern '{args.churn}'; known patterns: "
            f"{', '.join(churn_pattern_names())}",
            file=sys.stderr,
        )
        return 2
    code = check_positive([
        ("--gateways", args.gateways), ("--clients", args.clients), ("--hours", args.hours),
    ])
    if code is not None:
        return code
    timeline = build_churn(
        args.churn,
        num_gateways=args.gateways,
        num_clients=args.clients,
        duration_s=args.hours * 3600.0,
        seed=args.seed,
    )
    rows = [
        [
            f"{event.at_s / 3600.0:.2f}h",
            event.kind.value,
            event.gateway_id if event.gateway_id is not None else event.client_id,
            f"{event.duration_s / 60.0:.0f}min" if event.duration_s else "-",
        ]
        for event in timeline.events
    ]
    print(report.format_table(["at", "event", "entity", "outage"], rows))
    return 0
