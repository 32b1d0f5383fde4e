"""Pin the CLI's flag surface: every command path, option and default.

Walks ``build_parser()`` recursively and compares each command path's
options (flags or positional name, type, default, choices, required)
with a literal. A refactor of how the commands are registered must leave
this table unchanged; a deliberate flag change updates it here.
"""

import argparse

from repro.cli import build_parser


def cli_surface(parser, path=()):
    """``{command path: [(flags, type, default, choices, required), ...]}``."""
    surface = {}
    options = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            options.append((action.dest, "subcommands", None, sorted(action.choices),
                            action.required))
            for name, subparser in action.choices.items():
                surface.update(cli_surface(subparser, path + (name,)))
            continue
        options.append((
            tuple(action.option_strings) or action.dest,
            getattr(action.type, "__name__", None),
            action.default,
            None if action.choices is None else list(action.choices),
            action.required,
        ))
    surface[" ".join(path)] = options
    return surface


def test_cli_surface_is_pinned():
    assert cli_surface(build_parser()) == PINNED_SURFACE


PINNED_SURFACE = {
    '': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        ('command', 'subcommands', None,
         ['crosstalk', 'figure', 'fleet', 'obs', 'regress', 'schemes', 'simulate', 'sweep',
          'testbed', 'trace'], True),
    ],
    'crosstalk': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--sequences',), 'int', 3, None, False),
        (('--seed',), 'int', 0, None, False),
    ],
    'figure': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        ('id', None, None, ['2', '3', '4', '5', '14', '15'], True),
        (('--json',), None, False, None, False),
    ],
    'fleet': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--churn',), 'str', None, None, False),
        (('--gateways',), 'int', 20, None, False),
        (('--clients',), 'int', 136, None, False),
        (('--hours',), 'float', 24.0, None, False),
        (('--seed',), 'int', 2081, None, False),
    ],
    'obs': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        ('obs_command', 'subcommands', None,
         ['drift', 'explain', 'export', 'ingest', 'query', 'summary', 'top', 'trace'], True),
    ],
    'obs drift': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--db',), 'str', 'insight.db', None, False),
        (('--wall-ratio',), 'float', 1.5, None, False),
        (('--baselines',), 'str', 'baselines', None, False),
        (('--no-history',), None, False, None, False),
        (('--json',), None, False, None, False),
    ],
    'obs explain': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--family',), 'str', 'smoke', None, False),
        (('--label',), 'str', None, None, False),
        (('--scheme',), 'str', 'BH2+k-switch', None, False),
        (('--run-index',), 'int', 0, None, False),
        (('--step',), 'float', 2.0, None, False),
        (('--json',), None, False, None, False),
    ],
    'obs export': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        ('input', None, None, None, True),
        ('output', None, None, None, True),
    ],
    'obs ingest': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--db',), 'str', 'insight.db', None, False),
        (('--store',), None, None, None, False),
        (('--trace',), None, None, None, False),
        (('--history',), None, None, None, False),
        (('--git-sha',), 'str', None, None, False),
        (('--json',), None, False, None, False),
    ],
    'obs query': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--db',), 'str', 'insight.db', None, False),
        (('--family',), 'str', None, None, False),
        (('--scheme',), 'str', None, None, False),
        (('--label',), 'str', None, None, False),
        (('--digest',), 'str', None, None, False),
        (('--metric',), 'str', None, None, False),
        (('--limit',), 'int', None, None, False),
        (('--json',), None, False, None, False),
    ],
    'obs summary': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--out',), 'str', 'sweep-results', None, False),
        (('--by',), 'str', 'scheme', ['scheme', 'family'], False),
        (('--json',), None, False, None, False),
    ],
    'obs top': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--out',), 'str', 'sweep-results', None, False),
        (('--interval',), 'float', 2.0, None, False),
        (('--once',), None, False, None, False),
    ],
    'obs trace': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--scheme',), 'str', 'BH2+k-switch', None, False),
        (('--clients',), 'int', 68, None, False),
        (('--gateways',), 'int', 10, None, False),
        (('--hours',), 'float', 4.0, None, False),
        (('--step',), 'float', 2.0, None, False),
        (('--seed',), 'int', 7, None, False),
        (('--max-events',), 'int', None, None, False),
        (('--output',), 'str', 'trace.json', None, False),
    ],
    'regress': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        ('regress_command', 'subcommands', None, ['check', 'history', 'pareto', 'update'], True),
    ],
    'regress check': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--family',), None, None, None, False),
        (('--runs',), 'int', 1, None, False),
        (('--step',), 'float', 2.0, None, False),
        (('--sample',), 'float', 60.0, None, False),
        (('--workers',), 'int', None, None, False),
        (('--out',), 'str', 'sweep-results', None, False),
        (('--baselines',), 'str', 'baselines', None, False),
        (('--strict',), None, False, None, False),
        (('--report',), 'str', None, None, False),
        (('--summary',), 'str', None, None, False),
        (('--verbose',), None, False, None, False),
        (('--json',), None, False, None, False),
        (('--no-history',), None, False, None, False),
    ],
    'regress history': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--baselines',), 'str', 'baselines', None, False),
        (('--last',), 'int', None, None, False),
        (('--json',), None, False, None, False),
    ],
    'regress pareto': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--family',), None, None, None, False),
        (('--runs',), 'int', 1, None, False),
        (('--step',), 'float', 2.0, None, False),
        (('--sample',), 'float', 60.0, None, False),
        (('--workers',), 'int', None, None, False),
        (('--out',), 'str', 'sweep-results', None, False),
        (('--baselines',), 'str', 'baselines', None, False),
        (('--export',), 'str', None, None, False),
        (('--json',), None, False, None, False),
    ],
    'regress update': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--family',), None, None, None, False),
        (('--runs',), 'int', 1, None, False),
        (('--step',), 'float', 2.0, None, False),
        (('--sample',), 'float', 60.0, None, False),
        (('--workers',), 'int', None, None, False),
        (('--out',), 'str', 'sweep-results', None, False),
        (('--baselines',), 'str', 'baselines', None, False),
    ],
    'schemes': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--json',), None, False, None, False),
    ],
    'simulate': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--clients',), 'int', 68, None, False),
        (('--gateways',), 'int', 10, None, False),
        (('--hours',), 'float', 4.0, None, False),
        (('--runs',), 'int', 1, None, False),
        (('--step',), 'float', 2.0, None, False),
        (('--seed',), 'int', 7, None, False),
        (('--workers',), 'int', None, None, False),
        (('--schemes',), 'str', None, None, False),
    ],
    'sweep': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--family',), None, None, None, False),
        (('--list-families',), None, False, None, False),
        (('--runs',), 'int', 1, None, False),
        (('--step',), 'float', 2.0, None, False),
        (('--sample',), 'float', 60.0, None, False),
        (('--workers',), 'int', None, None, False),
        (('--resume', '--no-resume'), None, True, None, False),
        (('--out',), 'str', 'sweep-results', None, False),
        (('--schemes',), 'str', None, None, False),
        (('--json',), None, False, None, False),
        (('--trace',), 'str', None, None, False),
        (('--watch',), None, False, None, False),
        (('--task-timeout',), 'float', None, None, False),
        (('--retries',), 'int', 2, None, False),
        (('--retry-backoff',), 'float', 0.0, None, False),
        (('--keep-going',), None, False, None, False),
        (('--chaos',), 'str', None, None, False),
        (('--chaos-seed',), 'int', 0, None, False),
        ('sweep_command', 'subcommands', None, ['gc'], False),
    ],
    'sweep gc': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--out',), 'str', 'sweep-results', None, False),
        (('--keep-families',), None, None, None, False),
        (('--max-age-days',), 'float', None, None, False),
        (('--tmp-grace',), 'float', None, None, False),
        (('--apply',), None, False, None, False),
    ],
    'testbed': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--seed',), 'int', 0, None, False),
    ],
    'trace': [
        (('-h', '--help'), None, '==SUPPRESS==', None, False),
        (('--clients',), 'int', 272, None, False),
        (('--gateways',), 'int', 40, None, False),
        (('--hours',), 'float', 24.0, None, False),
        (('--seed',), 'int', 2011, None, False),
        (('--output',), 'str', None, None, False),
    ],
}
