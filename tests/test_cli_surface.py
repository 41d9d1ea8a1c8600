"""Pin the ``repro`` CLI's option surface.

Every action of every subcommand (recursively: ``results show/merge`` and
``lint`` included) is reduced to the properties that decide how a command
line parses: option strings (or the positional dest), dest, default, type,
choices, required, nargs, const and action class.  Help text is left out, so
rewording a help string never trips this test; adding, removing or changing
an option does.  The literal digest was computed before the option
declarations were factored into shared helpers.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from repro.cli import build_parser

#: sha256 of ``_canonical_json(build_parser())``.
SURFACE_SHA256 = (
    "85d118d2022a7ee03c1df0e779af7fa06573c12b2261c121eb77ce832a81dd81"
)

#: The options of each subcommand, for a failure message that names them.
OPTION_NAMES = {
    "": ["--help", "-h", "command"],
    "bench": [
        "--assert-speedup", "--full", "--help", "--mode", "--out", "--quick",
        "--scale", "--seed", "-h",
    ],
    "cgap": ["--epsilon", "--help", "--k", "-h"],
    "chaos": ["--full", "--help", "--out", "--quick", "--scale", "--seed", "-h"],
    "communication": ["--d", "--help", "-h"],
    "fuzz": [
        "--budget", "--corpus", "--d", "--epsilon", "--help", "--k", "--kernel",
        "--n", "--population", "--protocol", "--replay", "--seed", "--survivors",
        "--trials", "--workers", "-h",
    ],
    "lint": [
        "--baseline", "--format", "--help", "--ignore", "--list-rules",
        "--no-baseline", "--out", "--select", "--update-baseline", "-h", "paths",
    ],
    "list": ["--help", "-h"],
    "protocols": ["--help", "--json", "--offline", "--online", "--privacy-model", "-h"],
    "results": ["--help", "-h", "results_command"],
    "results merge": ["--help", "-h", "inputs", "output"],
    "results show": ["--help", "-h", "path"],
    "run": [
        "--help", "--json", "--out", "--scale", "--seed", "--workers", "-h",
        "experiment",
    ],
    "run-protocol": [
        "--chunk-size", "--d", "--domain-size", "--epsilon", "--help", "--k",
        "--kernel", "--n", "--seed", "--streaming", "-h", "name",
    ],
    "serve-sim": [
        "--d", "--drop-rate", "--duplicate-rate", "--epsilon", "--faults",
        "--help", "--journal", "--k", "--late-rate", "--n", "--no-dedup",
        "--progress", "--resume", "--scenario", "--seed", "--traffic",
        "--workers", "-h",
    ],
    "simulate": [
        "--chunk-size", "--consistency", "--d", "--epsilon", "--help", "--k",
        "--kernel", "--n", "--protocol", "--seed", "-h",
    ],
    "sweep": [
        "--chunk-size", "--d", "--epsilon", "--help", "--k", "--kernel", "--n",
        "--no-resume", "--out", "--parameter", "--protocols", "--resume", "--seed",
        "--shard-size", "--trials", "--values", "--workers", "-h",
    ],
    "verify": ["--epsilon", "--help", "--k", "-h"],
}


def _subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield action


def _describe(action: argparse.Action) -> dict:
    choices = action.choices
    if isinstance(action, argparse._SubParsersAction):
        choices = sorted(choices)
    elif choices is not None:
        choices = list(choices)
    return {
        "options": list(action.option_strings) or [action.dest],
        "dest": action.dest,
        "default": repr(action.default),
        "type": getattr(action.type, "__name__", repr(action.type)),
        "choices": choices,
        "required": action.required,
        "nargs": action.nargs,
        "const": repr(action.const),
        "action": type(action).__name__,
    }


def _surface(parser: argparse.ArgumentParser, prefix: str = "") -> dict:
    """``{command path: [action descriptions]}`` over the whole parser tree.

    Optionals are sorted by option string (their declaration order only
    affects help layout); positionals keep their order, which is semantic.
    """
    positionals = [a for a in parser._actions if not a.option_strings]
    optionals = sorted(
        (a for a in parser._actions if a.option_strings),
        key=lambda action: action.option_strings,
    )
    surface = {prefix: [_describe(action) for action in positionals + optionals]}
    for group in _subparsers(parser):
        for name, subparser in group.choices.items():
            surface.update(_surface(subparser, f"{prefix} {name}".strip()))
    return surface


def _canonical_json(parser: argparse.ArgumentParser) -> str:
    return json.dumps(_surface(parser), sort_keys=True, separators=(",", ":"))


def test_option_names_per_command():
    names = {
        command: sorted(
            option for action in actions for option in action["options"]
        )
        for command, actions in _surface(build_parser()).items()
    }
    assert names == OPTION_NAMES


def test_option_surface_digest():
    digest = hashlib.sha256(_canonical_json(build_parser()).encode()).hexdigest()
    assert digest == SURFACE_SHA256
