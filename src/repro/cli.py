"""Command-line interface: ``repro-access <command>``.

Commands
--------

``trace``      generate a synthetic trace and print its aggregate statistics
``simulate``   run the scheme comparison and print the savings summary
``schemes``    list every registered scheme and its behavioural axes
``sweep``      run the scenario-catalog sweep (cached, resumable)
``sweep gc``   trim the sweep result store (dry run by default)
``regress``    check/update committed metric baselines and Pareto fronts
``obs``        trace a run, summarise sweep timings, export Perfetto traces
``fleet``      inspect gateway generations, fleet mixes and churn patterns
``figure``     regenerate the data behind one of the paper's figures
``crosstalk``  run the Fig. 14 crosstalk speedup experiment
``testbed``    run the Fig. 12 testbed replay

Each package registers its own commands through a ``register(subparsers)``
function in its ``commands`` module; every command parser names its
handler with ``set_defaults(handler=...)``.  This module holds the
validators those handlers share: each prints one line to stderr and
returns exit code 2 on bad input, or ``None`` when the input is fine.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import List, Optional

from repro.core.schemes import all_schemes

#: The packages that register commands, in registration order.
COMMAND_PACKAGES = ("traces", "analysis", "core", "sweep", "regress", "obs", "fleet")

#: The order ``--help`` and usage lines list the commands in.
COMMANDS = (
    "trace", "simulate", "schemes", "sweep", "regress", "obs", "fleet",
    "figure", "crosstalk", "testbed",
)


def _check_range(flags, is_bad, requirement: str) -> Optional[int]:
    for flag, value in flags:
        if value is not None and is_bad(value):
            print(f"{flag} must be {requirement} (got {value})", file=sys.stderr)
            return 2
    return None


def check_positive(flags) -> Optional[int]:
    """Reject the first non-positive ``(flag, value)`` pair; ``None`` values pass."""
    return _check_range(flags, lambda value: value <= 0, "positive")


def check_non_negative(flags) -> Optional[int]:
    """Reject the first negative ``(flag, value)`` pair; ``None`` values pass."""
    return _check_range(flags, lambda value: value < 0, "non-negative")


def check_dslam_ports(gateways: int) -> Optional[int]:
    """Reject more gateways than the default DSLAM has ports."""
    from repro.sweep.catalog import ScenarioSpec

    spec = ScenarioSpec()
    ports = spec.num_line_cards * spec.ports_per_card
    if gateways > ports:
        print(f"--gateways must be at most {ports}, the DSLAM port count (got {gateways})",
              file=sys.stderr)
        return 2
    return None


def check_store_dir(flag: str, path: str) -> Optional[int]:
    """Reject a ``path`` that is not a directory: read-only commands must not create a store."""
    if not os.path.isdir(path):
        print(f"{flag} must be an existing result store directory (got {path!r})",
              file=sys.stderr)
        return 2
    return None


def lookup_scheme(name: str):
    """The registered scheme called ``name``; ``None`` after printing an error."""
    known = all_schemes()
    if name not in known:
        print(f"unknown scheme {name!r}; known schemes: {', '.join(known)}", file=sys.stderr)
        return None
    return known[name]


def resolve_schemes(spec: str):
    """Comma-separated scheme names -> configs; ``None`` after printing an error."""
    schemes = []
    for name in spec.split(","):
        scheme = lookup_scheme(name.strip())
        if scheme is None:
            return None
        schemes.append(scheme)
    return schemes


def lookup_family(name: str):
    """The registered scenario family called ``name``; ``None`` after printing an error."""
    from repro.sweep import family

    try:
        return family(name)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return None


def check_families(names) -> Optional[int]:
    """Reject the first unknown scenario family name."""
    if any(lookup_family(name) is None for name in names):
        return 2
    return None


def write_event_trace(tracer, path: str) -> None:
    """Write a recorded trace: ``.jsonl`` paths get JSONL, else Chrome JSON."""
    if path.endswith(".jsonl"):
        tracer.write_jsonl(path)
    else:
        tracer.write_chrome(path)
    dropped = f", {tracer.dropped} dropped" if tracer.dropped else ""
    print(f"trace written to {path} ({len(tracer.events)} events{dropped})",
          file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-access",
        description="Reproduction of 'Insomnia in the Access' (SIGCOMM 2011)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for package in COMMAND_PACKAGES:
        importlib.import_module(f"repro.{package}.commands").register(subparsers)
    # argparse lists commands in registration order, in --help and in the
    # usage line of every parse error; keep those in the COMMANDS order.
    rank = {name: index for index, name in enumerate(COMMANDS)}
    subparsers._choices_actions.sort(key=lambda action: rank[action.dest])
    ordered = sorted(subparsers.choices.items(), key=lambda item: rank[item[0]])
    subparsers.choices.clear()
    subparsers.choices.update(ordered)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
