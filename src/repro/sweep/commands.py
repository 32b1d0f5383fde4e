"""``repro-access sweep`` and ``sweep gc``: the cached scenario-catalog sweep."""

from __future__ import annotations

import argparse
import sys

from repro.analysis import report
from repro.cli import (
    check_families,
    check_non_negative,
    check_positive,
    check_store_dir,
    resolve_schemes,
    write_event_trace,
)
from repro.core.schemes import all_schemes


def register(subparsers) -> None:
    """Add the ``sweep`` command and its ``gc`` subcommand."""
    from repro.sweep import family_names

    parser = subparsers.add_parser(
        "sweep",
        help="run the scenario-catalog sweep with result-store caching",
        description="Expand the selected scenario families into their "
        "parameter grids, run every scenario x scheme x repetition cell "
        "(serving cached cells from the result store), and print "
        "cross-scenario savings tables.",
    )
    parser.add_argument(
        "--family",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario family to include (repeatable; default: all); "
        f"known: {', '.join(family_names())}",
    )
    parser.add_argument("--list-families", action="store_true",
                        help="list the registered scenario families and exit")
    parser.add_argument("--runs", type=int, default=1, help="repetitions per scheme")
    parser.add_argument("--step", type=float, default=2.0, help="simulation step (s)")
    parser.add_argument("--sample", type=float, default=60.0, help="metric sampling interval (s)")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard the grid over this many processes "
        "(aggregates are identical to a serial run; default: serial)",
    )
    parser.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve runs already in the result store from cache "
        "(--no-resume forces recomputation; the store is still updated)",
    )
    parser.add_argument(
        "--out",
        type=str,
        default="sweep-results",
        metavar="DIR",
        help="result-store directory (default: ./sweep-results)",
    )
    parser.add_argument(
        "--schemes",
        type=str,
        default=None,
        help="comma-separated scheme names (default: the Fig. 6 set); "
        f"known: {', '.join(all_schemes())}",
    )
    parser.add_argument("--json", action="store_true",
                        help="print the sweep result as JSON instead of tables")
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="record a structured trace of the sweep and write it here: "
        "a .jsonl path gets JSONL events, anything else Chrome "
        "trace-event JSON loadable in Perfetto (sim-time kernel events "
        "are captured on serial sweeps; wall-clock spans always)",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="render a live progress dashboard on stderr while the sweep "
        "runs (in-place on a TTY; plain '[watch]' lines on pipes/CI); "
        "purely observational — results and stored bytes are unchanged",
    )
    resilience = parser.add_argument_group(
        "resilience",
        "supervised execution: timeouts, retries, and deterministic chaos "
        "(retried cells reuse their seeds, so a rescued sweep's store is "
        "bit-identical to a clean run's)",
    )
    resilience.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="kill and retry any task running longer than S seconds "
        "(enforced on worker processes; unenforceable when serial)",
    )
    resilience.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retry budget per grid cell (default: 2)",
    )
    resilience.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="S",
        help="base of the deterministic exponential backoff before each "
        "retry (default: 0, retry immediately)",
    )
    resilience.add_argument(
        "--keep-going",
        action="store_true",
        help="when a cell exhausts its retries, finish the rest of the "
        "grid, print partial aggregates, and exit non-zero naming the "
        "failed cells (default: abort on the first exhausted cell)",
    )
    resilience.add_argument(
        "--chaos",
        type=str,
        default=None,
        metavar="SPEC",
        help="inject deterministic faults into the run, e.g. "
        "'crash=1,hang=1,raise=1,torn=1' — a drill for the harness, "
        "not the physics; pair with --task-timeout for hangs",
    )
    resilience.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="victim-selection seed of the chaos plan (default: 0)",
    )
    parser.set_defaults(handler=_cmd_sweep)
    sweep_sub = parser.add_subparsers(dest="sweep_command", metavar="[gc]")
    gc_parser = sweep_sub.add_parser(
        "gc",
        help="trim the result store (dry run unless --apply)",
        description="Garbage-collect the sweep result store, driven by its "
        "manifest.jsonl: --keep-families removes records of every other "
        "family, --max-age-days removes records older than N days, and "
        "invalid tombstone entries (corrupt files, stale store versions) "
        "are always removal candidates.  Dry run by default; pass --apply "
        "to actually delete.",
    )
    gc_parser.add_argument(
        "--out",
        type=str,
        default="sweep-results",
        metavar="DIR",
        help="result-store directory (default: ./sweep-results)",
    )
    gc_parser.add_argument(
        "--keep-families",
        nargs="+",
        default=None,
        metavar="NAME",
        help="families to keep; records of any other family are removed",
    )
    gc_parser.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="remove records older than this many days (by file mtime)",
    )
    gc_parser.add_argument(
        "--tmp-grace",
        type=float,
        default=None,
        metavar="S",
        help="treat orphaned runs/*.tmp files older than S seconds as "
        "removal candidates (default: 3600; younger ones may be a "
        "concurrent sweep's in-flight write)",
    )
    gc_parser.add_argument(
        "--apply",
        action="store_true",
        help="actually delete (default: dry run, print what would go)",
    )
    gc_parser.set_defaults(handler=_cmd_sweep_gc)


def _cmd_sweep_gc(args) -> int:
    from repro.sweep import ResultStore

    code = check_non_negative([
        ("--max-age-days", args.max_age_days), ("--tmp-grace", args.tmp_grace),
    ]) or check_store_dir("--out", args.out)
    if code is not None:
        return code
    store = ResultStore(args.out)
    gc_kwargs = {}
    if args.tmp_grace is not None:
        gc_kwargs["tmp_grace_s"] = args.tmp_grace
    result = store.gc(
        keep_families=args.keep_families,
        max_age_days=args.max_age_days,
        apply=args.apply,
        **gc_kwargs,
    )
    if result.candidates:
        rows = [
            [
                candidate.digest[:12] or candidate.filename,
                candidate.family or "-",
                candidate.label or "-",
                candidate.scheme or "-",
                f"{candidate.age_days:.1f}d" if candidate.age_days is not None else "-",
                candidate.reason,
            ]
            for candidate in result.candidates
        ]
        print(report.format_table(
            ["digest", "family", "scenario", "scheme", "age", "reason"], rows
        ))
        print()
    mode = "applied" if result.applied else "dry run (pass --apply to delete)"
    print(report.render_key_values({
        "examined": result.examined,
        "kept": result.kept,
        "removable": len(result.candidates),
        "removed": result.removed,
        "mode": mode,
    }, title="Sweep store GC"))
    return 0


def _cmd_sweep(args) -> int:
    from repro import sweep as sweep_pkg
    from repro.sweep import (
        ChaosConfig,
        ResultStore,
        RetryPolicy,
        SweepConfig,
        SweepExecutionError,
        SweepInterrupted,
        family_names,
        render_sweep,
        run_sweep,
        sweep_to_json,
    )

    if args.list_families:
        rows = [
            [name, len(sweep_pkg.family(name).expand()), sweep_pkg.family(name).description]
            for name in sorted(family_names())
        ]
        print(report.format_table(["family", "scenarios", "description"], rows))
        return 0
    code = check_families(args.family or []) or check_positive([
        ("--runs", args.runs), ("--step", args.step), ("--sample", args.sample),
        ("--workers", args.workers),
    ])
    if code is not None:
        return code
    if args.schemes:
        schemes = resolve_schemes(args.schemes)
        if schemes is None:
            return 2
    else:
        schemes = None
    try:
        chaos = (
            ChaosConfig.parse(args.chaos, seed=args.chaos_seed) if args.chaos else None
        )
        retry = RetryPolicy(
            task_timeout_s=args.task_timeout,
            max_retries=args.retries,
            backoff_base_s=args.retry_backoff,
            keep_going=args.keep_going,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from repro.obs import SimTracer

        tracer = SimTracer()
    progress = None
    if args.watch:
        from repro.obs import SweepDashboard

        progress = SweepDashboard()
    try:
        result = run_sweep(
            family_names=args.family,
            schemes=schemes,
            config=SweepConfig(
                runs_per_scheme=args.runs, step_s=args.step, sample_interval_s=args.sample
            ),
            store=ResultStore(args.out),
            workers=args.workers,
            use_cache=args.resume,
            retry=retry,
            chaos=chaos,
            tracer=tracer,
            progress=progress,
        )
    except SweepInterrupted as exc:
        print(f"\ninterrupted: {exc.completed} fresh run(s) were persisted to "
              f"{args.out} before the interrupt, {exc.outstanding} still outstanding",
              file=sys.stderr)
        print("the result store is resume-safe: re-run the same sweep to pick up "
              "where it stopped", file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        print(f"\ninterrupted; completed runs are already persisted to {args.out} "
              "— the result store is resume-safe: re-run the same sweep to pick up "
              "where it stopped", file=sys.stderr)
        return 130
    except SweepExecutionError as exc:
        print(str(exc), file=sys.stderr)
        print("completed runs are persisted; pass --keep-going for partial "
              "aggregates, or re-run to resume from the store", file=sys.stderr)
        return 1
    if tracer is not None:
        write_event_trace(tracer, args.trace)
    if args.json:
        print(sweep_to_json(result))
    else:
        print(render_sweep(result))
        print(f"\nresult store: {args.out}")
    if result.failures:
        cells = ", ".join(failure.cell for failure in result.failures)
        print(f"\n{len(result.failures)} grid cell(s) failed after retries: {cells}",
              file=sys.stderr)
        return 1
    return 0
