"""The ``repro`` command line, pinned flag by flag.

For every subcommand and nested subcommand the pin records each
action's option strings, ``dest``, ``default``, type name, ``choices``,
``nargs``, ``const``, ``required``, ``metavar`` and ``help``, plus the
subcommand's own help line.  A refactor of ``repro.cli`` must leave all
of it equal.  Re-record (only for a deliberate change of the surface)
with::

    PYTHONPATH=src python -m tests.test_cli_surface
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

PINS = Path(__file__).parent / "data" / "cli_surface.json"


def _action(action: argparse.Action) -> dict:
    choices = action.choices
    if isinstance(action, argparse._SubParsersAction):
        choices = list(choices)
    return {
        "option_strings": action.option_strings,
        "dest": action.dest,
        "default": action.default,
        "type": getattr(action.type, "__name__", action.type),
        "choices": None if choices is None else list(choices),
        "nargs": action.nargs,
        "const": action.const,
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
    }


def _surface(parser: argparse.ArgumentParser, path: str, out: dict,
             help_line=None) -> dict:
    out[path] = {
        "help": help_line,
        "description": parser.description,
        "actions": [_action(a) for a in parser._actions],
    }
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {a.dest: a.help for a in action._choices_actions}
            for name, child in action.choices.items():
                _surface(child, f"{path} {name}", out, helps.get(name))
    return out


def record() -> dict:
    """The parser's surface as JSON values (tuples become lists)."""
    return json.loads(json.dumps(_surface(build_parser(), "repro", {})))


def test_cli_surface_matches_the_pin():
    pinned, here = json.loads(PINS.read_text()), record()
    assert sorted(here) == sorted(pinned)
    for path in pinned:
        assert here[path] == pinned[path], path


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    surface = record()
    PINS.write_text(json.dumps(surface, indent=1) + "\n")
    print(f"recorded {len(surface)} commands into {PINS}")
