"""``repro-access schemes``: list every registered scheme and its axes."""

from __future__ import annotations

import json

from repro.analysis import report
from repro.core.schemes import all_schemes


def register(subparsers) -> None:
    """Add the ``schemes`` command."""
    parser = subparsers.add_parser(
        "schemes",
        help="list every registered scheme and its behavioural axes",
        description="List the registered schemes with their sleep, "
        "aggregation, switching and watt-awareness axes — the names "
        "accepted by simulate/sweep --schemes, so a typo is "
        "self-diagnosable.",
    )
    parser.add_argument("--json", action="store_true",
                        help="print the scheme table as JSON")
    parser.set_defaults(handler=_cmd_schemes)


def _cmd_schemes(args) -> int:
    rows = [
        {
            "name": scheme.name,
            "sleep": scheme.sleep_enabled,
            "aggregation": scheme.aggregation.value,
            "switching": scheme.switching.value,
            "watt_aware": scheme.watt_aware,
            "idealized": scheme.idealized_transitions,
            "backup": scheme.bh2.backup,
        }
        for scheme in all_schemes().values()
    ]
    if args.json:
        print(json.dumps(rows, indent=1))
        return 0
    print(report.format_table(
        ["scheme", "sleep", "aggregation", "switching", "watt-aware", "idealized", "backup"],
        [
            [
                row["name"],
                "yes" if row["sleep"] else "no",
                row["aggregation"],
                row["switching"],
                "yes" if row["watt_aware"] else "no",
                "yes" if row["idealized"] else "no",
                row["backup"],
            ]
            for row in rows
        ],
    ))
    print("\nuse these names with simulate/sweep --schemes NAME[,NAME...]")
    return 0
