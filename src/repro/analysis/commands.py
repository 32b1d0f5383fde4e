"""``repro-access simulate|figure|crosstalk|testbed``: the paper's evaluation."""

from __future__ import annotations

import json

from repro.analysis import figures, report
from repro.cli import check_dslam_ports, check_positive, resolve_schemes
from repro.core.schemes import all_schemes, standard_schemes
from repro.simulation.metrics import summarize_savings


def register(subparsers) -> None:
    """Add the ``simulate``, ``figure``, ``crosstalk`` and ``testbed`` commands."""
    simulate = subparsers.add_parser("simulate", help="run the scheme comparison")
    simulate.add_argument("--clients", type=int, default=68)
    simulate.add_argument("--gateways", type=int, default=10)
    simulate.add_argument("--hours", type=float, default=4.0)
    simulate.add_argument("--runs", type=int, default=1)
    simulate.add_argument("--step", type=float, default=2.0)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run the comparison on this many supervised worker processes "
        "(results are identical to a serial run; default: serial)",
    )
    simulate.add_argument(
        "--schemes",
        type=str,
        default=None,
        help="comma-separated scheme names (default: the Fig. 6 set); "
        f"known: {', '.join(all_schemes())}",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    figure = subparsers.add_parser("figure", help="regenerate the data behind a figure")
    figure.add_argument(
        "id",
        choices=["2", "3", "4", "5", "14", "15"],
        help="figure number (simulation figures 6-12 are produced by 'simulate')",
    )
    figure.add_argument("--json", action="store_true", help="print raw JSON instead of a table")
    figure.set_defaults(handler=_cmd_figure)

    crosstalk = subparsers.add_parser("crosstalk", help="run the Fig. 14 experiment")
    crosstalk.add_argument("--sequences", type=int, default=3)
    crosstalk.add_argument("--seed", type=int, default=0)
    crosstalk.set_defaults(handler=_cmd_crosstalk)

    testbed = subparsers.add_parser("testbed", help="run the Fig. 12 testbed replay")
    testbed.add_argument("--seed", type=int, default=0)
    testbed.set_defaults(handler=_cmd_testbed)


def _cmd_simulate(args) -> int:
    code = check_positive([
        ("--clients", args.clients), ("--gateways", args.gateways),
        ("--hours", args.hours), ("--runs", args.runs), ("--step", args.step),
        ("--workers", args.workers),
    ]) or check_dslam_ports(args.gateways)
    if code is not None:
        return code
    scale = figures.EvaluationScale(
        num_clients=args.clients,
        num_gateways=args.gateways,
        duration_s=args.hours * 3600.0,
        runs_per_scheme=args.runs,
        step_s=args.step,
        seed=args.seed,
    )
    if args.schemes:
        schemes = resolve_schemes(args.schemes)
        if schemes is None:
            return 2
    else:
        schemes = standard_schemes()
    comparison = figures.run_evaluation(scale=scale, schemes=schemes, workers=args.workers)
    summary = summarize_savings({name: comparison.first(name) for name in comparison.scheme_names})
    print(report.render_summary(summary))
    headline = figures.summary_savings(comparison)
    if headline:
        print()
        print(report.render_key_values(headline, title="Headline numbers (Sec. 5.4)"))
    return 0


def _cmd_figure(args) -> int:
    if args.id == "2":
        data = figures.figure2()
    elif args.id == "3":
        data = figures.figure3()
    elif args.id == "4":
        data = figures.figure4()
    elif args.id == "5":
        data = figures.figure5()
    elif args.id == "14":
        data = figures.figure14(num_sequences=2)
    else:
        data = figures.figure15()
    if args.json:
        print(json.dumps(data, indent=2, default=str))
    else:
        print(report.render_key_values({"figure": args.id}))
        print(json.dumps(data, indent=2, default=str))
    return 0


def _cmd_crosstalk(args) -> int:
    code = check_positive([("--sequences", args.sequences)])
    if code is not None:
        return code
    data = figures.figure14(num_sequences=args.sequences, seed=args.seed)
    rows = []
    for label, curve in data.items():
        rows.append([
            label,
            curve["baseline_mbps"],
            curve["mean_speedup_percent"][curve["inactive_lines"].index(12)],
            curve["mean_speedup_percent"][-1],
        ])
    print(report.format_table(
        ["configuration", "baseline Mbps", "speedup @12 off (%)", "speedup @20 off (%)"], rows
    ))
    return 0


def _cmd_testbed(args) -> int:
    data = figures.figure12(seed=args.seed)
    rows = [[name, series["mean_online"], 9 - series["mean_online"]] for name, series in data.items()]
    print(report.format_table(["scheme", "mean online APs", "mean sleeping APs"], rows))
    return 0
