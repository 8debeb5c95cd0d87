"""The ``repro`` command line, flag by flag, against a committed table.

``cli_surface.json`` holds, per verb (``""`` is the top-level parser),
every flag's dest, default, choices, required and nargs.  A refactor of
the CLI must leave it unchanged; a deliberate change to the surface
re-prints it with::

    PYTHONPATH=src python tests/test_cli_surface.py > tests/cli_surface.json

and the diff is the review.  Defaults and choices are compared by
``repr``, so a tuple that turns into a list, or a float into an int,
shows.
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

TABLE_PATH = Path(__file__).with_name("cli_surface.json")


def _flags(parser: argparse.ArgumentParser) -> dict:
    flags = {}
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        key = "/".join(action.option_strings) or action.dest
        flags[key] = {
            "dest": action.dest,
            "default": repr(parser.get_default(action.dest)),
            "choices": None if action.choices is None else [repr(c) for c in action.choices],
            "required": action.required,
            "nargs": action.nargs,
        }
    return flags


def cli_surface() -> dict:
    """``{verb: {flag: {dest, default, choices, required, nargs}}}``."""
    parser = build_parser()
    surface = {"": _flags(parser)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for verb, subparser in action.choices.items():
                surface[verb] = _flags(subparser)
    return surface


def test_every_verb_declares_the_committed_flags():
    committed = json.loads(TABLE_PATH.read_text(encoding="utf-8"))
    surface = cli_surface()
    assert sorted(surface) == sorted(committed)
    for verb, flags in committed.items():
        assert surface[verb] == flags, verb


if __name__ == "__main__":  # prints the committed table, one flag a line
    verbs = []
    for verb, flags in sorted(cli_surface().items()):
        rows = ",\n".join(
            f"  {json.dumps(flag)}: {json.dumps(spec, sort_keys=True)}"
            for flag, spec in sorted(flags.items())
        )
        verbs.append(f" {json.dumps(verb)}: {{\n{rows}\n }}")
    print("{\n" + ",\n".join(verbs) + "\n}")
