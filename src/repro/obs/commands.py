"""``repro-access obs ...``: traces, timing ledgers, the warehouse, kWh waterfalls."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.analysis import report
from repro.cli import (
    check_dslam_ports,
    check_non_negative,
    check_positive,
    check_store_dir,
    lookup_family,
    lookup_scheme,
    write_event_trace,
)
from repro.core.schemes import all_schemes


def register(subparsers) -> None:
    """Add the ``obs`` command and its subcommands."""
    parser = subparsers.add_parser(
        "obs",
        help="trace runs, summarise timings, warehouse sweeps, explain kWh",
        description="The observability toolbox: 'trace' runs one traced "
        "simulation and exports its structured event trace; 'summary' "
        "tabulates the per-run timings.jsonl ledger a sweep store keeps "
        "beside its manifest; 'export' converts a JSONL event trace to "
        "Chrome trace-event JSON loadable in Perfetto or chrome://tracing; "
        "'ingest'/'query'/'drift' maintain the cross-sweep SQLite insight "
        "warehouse; 'explain' decomposes a run's energy savings into a "
        "waterfall vs its no-sleep twin; 'top' renders a store's progress.",
    )
    obs_sub = parser.add_subparsers(
        dest="obs_command",
        required=True,
        metavar="trace|summary|export|ingest|query|drift|explain|top",
    )

    trace = obs_sub.add_parser(
        "trace",
        help="run one traced simulation and export the trace",
        description="Run a single scheme over the evaluation scenario with "
        "a SimTracer attached (traced runs are bit-identical to untraced "
        "ones), write the trace, and print its event counts.",
    )
    trace.add_argument("--scheme", type=str, default="BH2+k-switch",
                       help=f"scheme to trace; known: {', '.join(all_schemes())}")
    trace.add_argument("--clients", type=int, default=68)
    trace.add_argument("--gateways", type=int, default=10)
    trace.add_argument("--hours", type=float, default=4.0)
    trace.add_argument("--step", type=float, default=2.0)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--max-events", type=int, default=None, metavar="N",
                       help="trace buffer bound (excess events are counted, "
                       "not stored; default: 200000)")
    trace.add_argument(
        "--output",
        type=str,
        default="trace.json",
        metavar="PATH",
        help="where to write the trace: a .jsonl path gets JSONL events, "
        "anything else Chrome trace-event JSON (default: ./trace.json)",
    )
    trace.set_defaults(handler=_cmd_trace)

    summary = obs_sub.add_parser(
        "summary",
        help="tabulate a sweep store's timings.jsonl ledger",
        description="Aggregate the per-run build/run wall-clock ledger of "
        "a sweep result store per family x scheme: runs, collapsed "
        "replicas, attempts, and where the wall-clock went.",
    )
    summary.add_argument(
        "--out",
        type=str,
        default="sweep-results",
        metavar="DIR",
        help="result-store directory shared with 'sweep' (default: ./sweep-results)",
    )
    summary.add_argument(
        "--by",
        type=str,
        choices=("scheme", "family"),
        default="scheme",
        help="grouping: 'scheme' = one row per family x scheme (default); "
        "'family' = one row per family",
    )
    summary.add_argument("--json", action="store_true",
                         help="print the aggregate rows as JSON")
    summary.set_defaults(handler=_cmd_summary)

    export = obs_sub.add_parser(
        "export",
        help="convert a JSONL trace to Chrome trace-event JSON",
        description="Convert a JSONL event trace (from 'obs trace' or "
        "'sweep --trace') into Chrome trace-event JSON loadable in "
        "Perfetto; torn or malformed lines are skipped, not fatal.",
    )
    export.add_argument("input", help="JSONL trace to read")
    export.add_argument("output", help="Chrome trace-event JSON to write")
    export.set_defaults(handler=_cmd_export)

    ingest = obs_sub.add_parser(
        "ingest",
        help="index sweep stores, traces and history into the warehouse",
        description="Ingest any number of sweep stores (manifest + metrics "
        "+ timings ledger), JSONL traces and regress history ledgers into "
        "one SQLite insight warehouse. Re-ingesting a source replaces its rows (idempotent); the "
        "warehouse only ever reads the sources.",
    )
    ingest.add_argument("--db", type=str, default="insight.db", metavar="PATH",
                        help="warehouse database file (default: ./insight.db)")
    ingest.add_argument("--store", action="append", default=None, metavar="DIR",
                        help="sweep result store to ingest (repeatable)")
    ingest.add_argument("--trace", action="append", default=None, metavar="PATH",
                        help="JSONL event trace to ingest (repeatable)")
    ingest.add_argument("--history", action="append", default=None, metavar="DIR",
                        help="baselines directory whose history.jsonl to "
                        "ingest (repeatable)")
    ingest.add_argument("--git-sha", type=str, default=None, metavar="SHA",
                        help="git sha to tag the ingested stores with "
                        "(default: the current checkout's short sha)")
    ingest.add_argument("--json", action="store_true",
                        help="print the ingest accounting as JSON")
    ingest.set_defaults(handler=_cmd_ingest)

    query = obs_sub.add_parser(
        "query",
        help="query the warehouse's run table",
        description="Filter the warehouse's run rows by family, scheme, "
        "scenario label or digest prefix; --metric pulls one stored "
        "metric column out of each run's metrics payload.",
    )
    query.add_argument("--db", type=str, default="insight.db", metavar="PATH")
    query.add_argument("--family", type=str, default=None)
    query.add_argument("--scheme", type=str, default=None)
    query.add_argument("--label", type=str, default=None)
    query.add_argument("--digest", type=str, default=None, metavar="PREFIX")
    query.add_argument("--metric", type=str, default=None, metavar="NAME",
                       help="also show this metric from each run's payload")
    query.add_argument("--limit", type=int, default=None, metavar="N",
                       help="show at most N rows (the count is still total)")
    query.add_argument("--json", action="store_true",
                       help="print the rows as JSON")
    query.set_defaults(handler=_cmd_query)

    drift = obs_sub.add_parser(
        "drift",
        help="flag per-cell metric/wall-time drift across ingested shas",
        description="Compare every digest that appears in more than one "
        "ingested source: metrics must be bit-identical (a difference "
        "means the kernel silently changed its answers between shas), "
        "and mean executed wall time must stay within --wall-ratio. "
        "Findings are appended to the regress history ledger as an "
        "advisory row unless --no-history.",
    )
    drift.add_argument("--db", type=str, default="insight.db", metavar="PATH")
    drift.add_argument("--wall-ratio", type=float, default=1.5, metavar="R",
                       help="flag a cell whose mean run_s moved by more "
                       "than this factor between sources (default: 1.5)")
    drift.add_argument("--baselines", type=str, default="baselines",
                       metavar="DIR",
                       help="baselines directory whose history.jsonl "
                       "receives the advisory row (default: ./baselines)")
    drift.add_argument("--no-history", action="store_true",
                       help="do not append the advisory row")
    drift.add_argument("--json", action="store_true",
                       help="print the findings as JSON")
    drift.set_defaults(handler=_cmd_drift)

    explain = obs_sub.add_parser(
        "explain",
        help="decompose a run's kWh savings vs its no-sleep twin",
        description="Run one grid cell and its no-sleep twin at the same "
        "seed, then decompose the kWh delta into a savings waterfall: "
        "gross sleep savings, standby draw, wake/boot penalties and "
        "churn-forced wakes per device generation, plus direct ISP-side "
        "deltas. The waterfall sums exactly to the total delta.",
    )
    explain.add_argument("--family", type=str, default="smoke",
                         help="scenario family providing the grid cell "
                         "(default: smoke)")
    explain.add_argument("--label", type=str, default=None,
                         help="scenario label within the family "
                         "(default: the family's first scenario)")
    explain.add_argument("--scheme", type=str, default="BH2+k-switch",
                         help=f"scheme to explain; known: {', '.join(all_schemes())}")
    explain.add_argument("--run-index", type=int, default=0, metavar="N",
                         help="repetition index (seeds match 'sweep' cells)")
    explain.add_argument("--step", type=float, default=2.0,
                         help="simulation step (s); match the sweep's --step")
    explain.add_argument("--json", action="store_true",
                         help="print the waterfall payload as JSON")
    explain.set_defaults(handler=_cmd_explain)

    top = obs_sub.add_parser(
        "top",
        help="render a sweep store's live progress from its ledgers",
        description="Summarise a store's manifest and timings ledger as a "
        "progress frame — safe to point at a store another process is "
        "sweeping into. Repaints every --interval seconds; --once prints "
        "a single frame and exits (for CI and scripts).",
    )
    top.add_argument("--out", type=str, default="sweep-results", metavar="DIR",
                     help="result-store directory shared with 'sweep' "
                     "(default: ./sweep-results)")
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="refresh interval in seconds (default: 2)")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit")
    top.set_defaults(handler=_cmd_top)


def _check_warehouse(path: str):
    """Exit code 2 unless the warehouse database exists."""
    if not Path(path).exists():
        print(f"no warehouse at {path!r} — run 'obs ingest' first", file=sys.stderr)
        return 2
    return None


def _cmd_trace(args) -> int:
    from repro.analysis import figures
    from repro.obs import SimTracer
    from repro.simulation.runner import run_scheme

    scheme = lookup_scheme(args.scheme)
    if scheme is None:
        return 2
    code = check_positive([
        ("--clients", args.clients), ("--gateways", args.gateways),
        ("--hours", args.hours), ("--step", args.step),
        ("--max-events", args.max_events),
    ]) or check_dslam_ports(args.gateways)
    if code is not None:
        return code
    scale = figures.EvaluationScale(
        num_clients=args.clients,
        num_gateways=args.gateways,
        duration_s=args.hours * 3600.0,
        step_s=args.step,
        seed=args.seed,
    )
    scenario = figures.build_scenario(scale)
    tracer = SimTracer(**({} if args.max_events is None
                          else {"max_events": args.max_events}))
    with tracer.wall_span("kernel.run", cat="cli", scheme=scheme.name):
        result = run_scheme(
            scenario, scheme, seed=args.seed, step_s=args.step, tracer=tracer
        )
    write_event_trace(tracer, args.output)
    print(report.render_key_values({
        "scheme": scheme.name,
        "steps_taken": result.steps_taken,
        "mean_savings_percent": 100.0 * result.mean_savings(),
        "solver_invocations": result.solver_invocations,
        "bh2_rounds": result.bh2_rounds,
        "events_recorded": len(tracer.events),
        "events_dropped": tracer.dropped,
    }, title="Traced run"))
    counts = tracer.counts()
    if counts:
        print()
        print(report.format_table(
            ["event", "count"], [[name, count] for name, count in counts.items()]
        ))
    return 0


def _cmd_summary(args) -> int:
    from repro.obs.insight import percentile
    from repro.sweep import ResultStore

    code = check_store_dir("--out", args.out)
    if code is not None:
        return code
    store = ResultStore(args.out)
    entries = store.read_timings()
    by_family = args.by == "family"
    groups: dict = {}
    order: list = []
    for entry in entries:
        family = str(entry.get("family", "-"))
        key = (family,) if by_family else (family, str(entry.get("scheme", "-")))
        if key not in groups:
            groups[key] = {
                "runs": 0, "replicas": 0, "attempts": 0, "build_s": 0.0,
                "run_s": 0.0, "walls": [],
            }
            order.append(key)
        group = groups[key]
        if "replica_of" in entry:
            # A collapsed repetition: persisted, never run, so no timings.
            group["replicas"] += 1
            continue
        group["runs"] += 1
        group["attempts"] += int(entry.get("attempt", 0)) + 1
        group["build_s"] += float(entry.get("build_s", 0.0))
        wall = float(entry.get("run_s", 0.0))
        group["run_s"] += wall
        group["walls"].append(wall)
    rows = []
    for key in order:
        group = groups[key]
        row = {"family": key[0]}
        if not by_family:
            row["scheme"] = key[1]
        row.update({
            "runs": group["runs"],
            "replicas": group["replicas"],
            "attempts": group["attempts"],
            "build_s": round(group["build_s"], 6),
            "run_s": round(group["run_s"], 6),
            "p50_run_s": round(percentile(group["walls"], 50), 6),
            "p95_run_s": round(percentile(group["walls"], 95), 6),
            "p99_run_s": round(percentile(group["walls"], 99), 6),
        })
        rows.append(row)
    if args.json:
        print(json.dumps({
            "ledger": str(store.timings_path),
            "entries": len(entries),
            "by": "family" if by_family else "scheme",
            "groups": rows,
        }, indent=1, sort_keys=True))
        return 0
    if not rows:
        print(f"no timing ledger at {store.timings_path} — run a sweep "
              "against this store first")
        return 0
    headers = ["family"] + ([] if by_family else ["scheme"]) + [
        "runs", "replicas", "attempts", "build s", "run s", "p50", "p95", "p99",
    ]
    print(report.format_table(
        headers,
        [
            [row["family"]] + ([] if by_family else [row["scheme"]]) + [
                row["runs"], row["replicas"], row["attempts"],
                row["build_s"], row["run_s"],
                row["p50_run_s"], row["p95_run_s"], row["p99_run_s"],
            ]
            for row in rows
        ],
        precision=3,
    ))
    print(report.render_key_values({
        "ledger": str(store.timings_path),
        "entries": len(entries),
        "total_build_s": round(sum(row["build_s"] for row in rows), 3),
        "total_run_s": round(sum(row["run_s"] for row in rows), 3),
    }, title="Sweep timing ledger"))
    return 0


def _cmd_export(args) -> int:
    from repro.obs import chrome_trace_from_events, read_jsonl_events

    try:
        events = read_jsonl_events(args.input)
    except OSError as error:
        print(f"cannot read {args.input!r}: {error}", file=sys.stderr)
        return 2
    payload = chrome_trace_from_events(events)
    Path(args.output).write_text(json.dumps(payload, sort_keys=True) + "\n")
    print(f"wrote {args.output} ({len(events)} events)")
    if not events:
        print(f"warning: no parseable events in {args.input}", file=sys.stderr)
    return 0


def _cmd_ingest(args) -> int:
    from repro.obs.insight import InsightWarehouse
    from repro.regress.runner import git_sha

    stores = args.store or []
    traces = args.trace or []
    histories = args.history or []
    if not (stores or traces or histories):
        print("nothing to ingest: pass at least one --store/--trace/"
              "--history", file=sys.stderr)
        return 2
    for store_dir in stores:
        code = check_store_dir("--store", store_dir)
        if code is not None:
            return code
    sha = args.git_sha if args.git_sha else git_sha()
    accounting: dict = {"db": args.db, "stores": {}, "traces": {},
                        "history": {}}
    with InsightWarehouse(args.db) as warehouse:
        for store_dir in stores:
            try:
                accounting["stores"][store_dir] = warehouse.ingest_store(
                    store_dir, git_sha=sha
                )
            except OSError as error:
                print(f"cannot ingest store {store_dir!r}: {error}",
                      file=sys.stderr)
                return 2
        for path in traces:
            try:
                accounting["traces"][path] = warehouse.ingest_trace(path)
            except OSError as error:
                print(f"cannot ingest trace {path!r}: {error}", file=sys.stderr)
                return 2
        for baselines_dir in histories:
            accounting["history"][baselines_dir] = warehouse.ingest_history(
                baselines_dir
            )
        counts = warehouse.counts()
    if args.json:
        print(json.dumps({"ingested": accounting, "warehouse": counts},
                         indent=1, sort_keys=True))
        return 0
    for store_dir, result in accounting["stores"].items():
        print(f"ingested store {store_dir}: {result['runs']} run(s), "
              f"{result['timings']} timing line(s)")
    for path, events in accounting["traces"].items():
        print(f"ingested trace {path}: {events} event(s)")
    for baselines_dir, rows in accounting["history"].items():
        print(f"ingested history {baselines_dir}: {rows} record(s)")
    print()
    print(report.render_key_values(
        dict(counts), title=f"warehouse: {args.db}"
    ))
    return 0


def _cmd_query(args) -> int:
    from repro.obs.insight import InsightWarehouse

    code = check_non_negative([("--limit", args.limit)]) or _check_warehouse(args.db)
    if code is not None:
        return code
    with InsightWarehouse(args.db) as warehouse:
        rows = warehouse.query_runs(
            family=args.family, scheme=args.scheme, label=args.label,
            digest=args.digest, metric=args.metric,
        )
    total = len(rows)
    shown = rows if args.limit is None else rows[: args.limit]
    if args.json:
        print(json.dumps({"count": total, "rows": shown},
                         indent=1, sort_keys=True))
        return 0
    if not rows:
        print("0 run row(s) matched")
        return 0
    headers = ["family", "label", "scheme", "run", "digest", "sha"]
    if args.metric is not None:
        headers.append(args.metric)
    table_rows = []
    for row in shown:
        cells = [row["family"], row["label"], row["scheme"],
                 row["run_index"], str(row["digest"])[:12],
                 row["git_sha"] or "-"]
        if args.metric is not None:
            value = row.get(args.metric)
            cells.append("-" if value is None else value)
        table_rows.append(cells)
    print(report.format_table(headers, table_rows, precision=4))
    suffix = "" if len(shown) == total else f" (showing {len(shown)})"
    print(f"\n{total} run row(s) matched{suffix}")
    return 0


def _cmd_drift(args) -> int:
    from repro.obs.insight import InsightWarehouse, drift_advisory
    from repro.regress.runner import append_history

    code = _check_warehouse(args.db)
    if code is not None:
        return code
    try:
        with InsightWarehouse(args.db) as warehouse:
            findings = warehouse.drift(wall_ratio=args.wall_ratio)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    ledger = None
    if not args.no_history:
        ledger = append_history(drift_advisory(findings), args.baselines)
    if args.json:
        print(json.dumps({
            "count": len(findings),
            "findings": findings,
            "history": str(ledger) if ledger is not None else None,
        }, indent=1, sort_keys=True))
        return 0
    if findings:
        rows = []
        for finding in findings:
            cell = (f"{finding['family']}/{finding['label']}/"
                    f"{finding['scheme']}")
            if finding["kind"] == "metric":
                detail = "metrics changed: " + ", ".join(finding["metrics"][:4])
            else:
                detail = (f"run_s {finding['base_run_s']:.3f} -> "
                          f"{finding['run_s']:.3f} (x{finding['ratio']:.2f})")
            rows.append([
                finding["kind"], cell, str(finding["digest"])[:12],
                f"{finding['from_sha'] or '-'} -> {finding['to_sha'] or '-'}",
                detail,
            ])
        print(report.format_table(
            ["kind", "cell", "digest", "shas", "detail"], rows
        ))
        print(f"\n{len(findings)} drift finding(s)")
    else:
        print("no drift: every multiply-ingested cell is metric-identical "
              "and within the wall-time band")
    if ledger is not None:
        print(f"advisory row appended to {ledger}")
    return 0


def _cmd_explain(args) -> int:
    from repro.obs.explain import explain_run, render_waterfall
    from repro.simulation.runner import scheme_run_seed

    scheme = lookup_scheme(args.scheme)
    if scheme is None:
        return 2
    family = lookup_family(args.family)
    if family is None:
        return 2
    code = check_positive([("--step", args.step)]) or check_non_negative([
        ("--run-index", args.run_index),
    ])
    if code is not None:
        return code
    specs = family.expand()
    if args.label is None:
        spec = specs[0]
    else:
        spec = next((s for s in specs if s.label == args.label), None)
        if spec is None:
            print(f"no scenario labelled '{args.label}' in family "
                  f"'{args.family}'; labels: "
                  f"{', '.join(s.label for s in specs)}", file=sys.stderr)
            return 2
    seed = scheme_run_seed(spec.seed, args.run_index, scheme.name)
    payload = explain_run(spec.build(), scheme, seed, step_s=args.step)
    payload["family"] = args.family
    payload["label"] = spec.label
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    print(f"{args.family}/{spec.label}/{scheme.name}#{args.run_index} "
          f"(seed {seed})\n")
    print(render_waterfall(payload))
    return 0


def _cmd_top(args) -> int:
    from repro.obs.progress import render_store_top
    from repro.sweep import ResultStore

    code = check_positive([("--interval", args.interval)]) or check_store_dir(
        "--out", args.out
    )
    if code is not None:
        return code
    store = ResultStore(args.out)
    if args.once:
        print(render_store_top(store))
        return 0
    try:
        while True:
            frame = render_store_top(store)
            # Clear + home first so a shrinking frame leaves no stale tail.
            sys.stdout.write(f"\x1b[2J\x1b[H{frame}\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0
