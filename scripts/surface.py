"""Print the size of the tree this script sits in.

    python3 scripts/surface.py

Three numbers, one ``name value`` line each: ``src_lines``, the lines of
every ``.py`` file under ``src/strokegen``; ``cli_arguments``, the
arguments of ``strokegen.cli.build_parser()`` over all its subcommands, help
options left out; and ``config_fields``, the fields of ``TrainConfig``,
``ModelConfig``, ``AugmentConfig`` and ``SamplerConfig``. Run it in two
checkouts to compare their settable options and code size.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def src_lines() -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((SRC / "strokegen").glob("*.py")))


def argument_count(parser: argparse.ArgumentParser) -> int:
    """Arguments of a parser and of its subparsers, without help options."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(argument_count(p) for p in action.choices.values())
        elif not isinstance(action, argparse._HelpAction):
            count += 1
    return count


def surface() -> dict[str, int]:
    sys.path.insert(0, str(SRC))
    from strokegen.augment import AugmentConfig
    from strokegen.cli import build_parser
    from strokegen.model import ModelConfig
    from strokegen.sampling import SamplerConfig
    from strokegen.training import TrainConfig

    configs = (TrainConfig, ModelConfig, AugmentConfig, SamplerConfig)
    return {
        "src_lines": src_lines(),
        "cli_arguments": argument_count(build_parser()),
        "config_fields": sum(len(dataclasses.fields(c)) for c in configs),
    }


if __name__ == "__main__":
    for name, value in surface().items():
        print(name, value)
