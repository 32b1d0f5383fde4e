"""Guard against code that nothing but the tests reaches.

Every top-level function and class in ``src/repro`` must be named by code
somewhere else in ``src/``: outside its own definition, and outside the
``__init__`` re-exports, which name everything.  A name that appears in
``examples/``, ``benchmarks/`` or ``perfbench/`` also counts, because a
figure benchmark, an example or a benchmark span can be the only caller.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Test oracles: reference implementations that only the tests call.
ORACLES = {
    "ExactWattAggregationSolver",  # exact watt optimum the greedy is held to
    "run_digest",  # the slow digest the precomputed digest series must match
    "run_scheme_reference",  # the seed kernel
    "verify_solution",  # feasibility check of aggregation solutions
}


def _names_in(node) -> set:
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def unreached_definitions(root: Path = ROOT):
    """``(module, name)`` of every top-level definition that nothing names."""
    definitions = []
    uses = []  # (module, statement index, names used by that statement)
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        module = path.relative_to(root).as_posix()
        for index, statement in enumerate(ast.parse(path.read_text()).body):
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, index, statement.name))
            uses.append((module, index, _names_in(statement)))
    outside = set()
    for directory in ("examples", "benchmarks", "perfbench"):
        for path in (root / directory).rglob("*.py"):
            outside.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return [
        (module, name)
        for module, index, name in definitions
        if name not in outside
        and not any(
            name in names
            for use_module, use_index, names in uses
            if (use_module, use_index) != (module, index)
        )
    ]


def test_every_top_level_definition_is_reached():
    unreached = [
        f"{module}: {name}" for module, name in unreached_definitions() if name not in ORACLES
    ]
    assert unreached == [], "defined but named only by tests:\n" + "\n".join(unreached)


def test_allowlist_holds_only_unreached_oracles():
    unreached = {name for _module, name in unreached_definitions()}
    assert ORACLES <= unreached, f"stale allowlist entries: {sorted(ORACLES - unreached)}"
