"""``repro-access regress check|update|pareto|history``: the regression gate."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.cli import check_families, check_positive
from repro.regress import runner as regress_runner
from repro.regress.baseline import DEFAULT_REGRESS_FAMILIES


def _add_shared(parser, default_families_help: str) -> None:
    """Flags shared by every ``regress`` subcommand that runs the sweep."""
    parser.add_argument(
        "--family",
        action="append",
        default=None,
        metavar="NAME",
        help=f"scenario family to cover (repeatable; default: {default_families_help})",
    )
    parser.add_argument("--runs", type=int, default=1, help="repetitions per scheme")
    parser.add_argument("--step", type=float, default=2.0, help="simulation step (s)")
    parser.add_argument("--sample", type=float, default=60.0,
                        help="metric sampling interval (s)")
    parser.add_argument("--workers", type=int, default=None,
                        help="shard the sweep over this many processes")
    parser.add_argument(
        "--out",
        type=str,
        default="sweep-results",
        metavar="DIR",
        help="result-store directory shared with 'sweep' (default: ./sweep-results)",
    )
    parser.add_argument(
        "--baselines",
        type=str,
        default="baselines",
        metavar="DIR",
        help="committed baseline directory (default: ./baselines)",
    )


def register(subparsers) -> None:
    """Add the ``regress`` command and its subcommands."""
    default_families = ", ".join(DEFAULT_REGRESS_FAMILIES)
    parser = subparsers.add_parser(
        "regress",
        help="check/update committed metric baselines and Pareto fronts",
        description="The regression gate: run (or resume from the result "
        "store) the smoke-scale scenario families, diff every metric cell "
        "and the cross-family Pareto-front membership against the "
        "committed baselines/ files, and exit non-zero on regression. "
        "'update' re-exports the committed files after an intentional "
        "metric change; 'pareto' prints/exports the fronts.",
    )
    regress_sub = parser.add_subparsers(
        dest="regress_command", required=True,
        metavar="check|update|pareto|history",
    )

    check = regress_sub.add_parser(
        "check",
        help="diff a fresh run against the committed baselines (gate)",
        description="Exit 0 when every cell is identical / improved / "
        "new; exit 1 naming the offending cells when any metric regressed, "
        "a committed cell went missing, or a committed Pareto-front member "
        "fell off the front.",
    )
    _add_shared(check, default_families)
    check.add_argument("--strict", action="store_true",
                       help="treat 'improved' cells as gate failures too "
                       "(forces baselines to be updated in the same PR)")
    check.add_argument("--report", type=str, default=None, metavar="PATH",
                       help="write the machine-readable JSON report here")
    check.add_argument("--summary", type=str, default=None, metavar="PATH",
                       help="append a markdown summary here (GITHUB_STEP_SUMMARY)")
    check.add_argument("--verbose", action="store_true",
                       help="tabulate identical cells too")
    check.add_argument("--json", action="store_true",
                       help="print the machine-readable report as JSON")
    check.add_argument("--no-history", action="store_true",
                       help="do not append this run to baselines/history.jsonl")
    check.set_defaults(handler=_cmd_check)

    update = regress_sub.add_parser(
        "update",
        help="re-export the committed baselines from a fresh run",
        description="Run (or resume) the selected families and rewrite "
        "baselines/<family>.json plus baselines/pareto.json.  The "
        "diff of baselines/ is the reviewable record of the metric change.",
    )
    _add_shared(update, default_families)
    update.set_defaults(handler=_cmd_update)

    pareto = regress_sub.add_parser(
        "pareto",
        help="compute and print/export the cross-family Pareto fronts",
        description="Compute the savings-vs-peak-online and "
        "watt-energy-vs-served fronts over the selected families and "
        "print every point with its front membership.",
    )
    _add_shared(pareto, default_families)
    pareto.add_argument("--export", type=str, default=None, metavar="PATH",
                        help="write the fronts payload as JSON here")
    pareto.add_argument("--json", action="store_true",
                        help="print the fronts payload as JSON")
    pareto.set_defaults(handler=_cmd_pareto)

    history = regress_sub.add_parser(
        "history",
        help="print the gate's historical trajectory",
        description="Print the baselines/history.jsonl ledger that "
        "'regress check' appends to — one record per gate run with its "
        "timestamp, commit sha, verdict and per-family metric-cell "
        "counts, so coverage shrinkage is visible over time.",
    )
    history.add_argument(
        "--baselines",
        type=str,
        default="baselines",
        metavar="DIR",
        help="committed baseline directory (default: ./baselines)",
    )
    history.add_argument("--last", type=int, default=None, metavar="N",
                         help="show only the most recent N records")
    history.add_argument("--json", action="store_true",
                         help="print the records as JSON")
    history.set_defaults(handler=_cmd_history)


def _families(args):
    return args.family or regress_runner.default_family_names()


def _config(args):
    from repro.sweep import SweepConfig

    return SweepConfig(
        runs_per_scheme=args.runs, step_s=args.step, sample_interval_s=args.sample
    )


def _validate(args):
    """Exit code 2 on an unknown family or a non-positive sweep flag."""
    return check_families(_families(args)) or check_positive([
        ("--runs", args.runs), ("--step", args.step), ("--sample", args.sample),
        ("--workers", args.workers),
    ])


def _sweep(args, families, config):
    from repro.sweep import ResultStore

    return regress_runner.run_regress_sweep(
        families, config, ResultStore(args.out), workers=args.workers
    )


def _cmd_history(args) -> int:
    code = check_positive([("--last", args.last)])
    if code is not None:
        return code
    records = regress_runner.load_history(args.baselines)
    if args.last is not None:
        records = records[-args.last:]
    if args.json:
        print(json.dumps(records, indent=1, sort_keys=True))
    else:
        print(regress_runner.render_history(records))
    return 0


def _cmd_update(args) -> int:
    code = _validate(args)
    if code is not None:
        return code
    families, config = _families(args), _config(args)
    result = _sweep(args, families, config)
    written = regress_runner.update_baselines(result, families, args.baselines, config)
    for path in written:
        print(f"wrote {path}")
    print(f"\ncommit the baselines/ diff to adopt the new values "
          f"(cache hits: {result.cache_hits}/{result.total_runs})")
    return 0


def _cmd_pareto(args) -> int:
    from repro.regress.pareto import fronts_payload

    code = _validate(args)
    if code is not None:
        return code
    families = _families(args)
    payload = fronts_payload(_sweep(args, families, _config(args)).aggregates(), families)
    if args.export:
        Path(args.export).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.export}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(regress_runner.render_fronts(payload))
    return 0


def _cmd_check(args) -> int:
    from repro.regress.compare import RegressReport

    code = _validate(args)
    if code is not None:
        return code
    families, config = _families(args), _config(args)
    report = RegressReport(strict=args.strict)
    result = _sweep(args, families, config)
    report.baselines.extend(families)
    report.extend(regress_runner.check_families(result, families, args.baselines, config))
    report.baselines.append(regress_runner.PARETO_BASELINE_NAME)
    report.extend(regress_runner.check_pareto(result, families, args.baselines))
    if not args.no_history:
        regress_runner.append_history(
            regress_runner.history_record(report, result, families),
            args.baselines,
        )
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_payload(), indent=1, sort_keys=True) + "\n"
        )
    if args.summary:
        with open(args.summary, "a") as handle:
            handle.write(regress_runner.render_markdown_summary(report))
    if args.json:
        print(json.dumps(report.to_payload(), indent=1, sort_keys=True))
    else:
        print(regress_runner.render_report(report, verbose=args.verbose))
    return 0 if report.ok else 1
