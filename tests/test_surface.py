"""scripts/surface.py: the argument count and the printed numbers."""

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "surface.py"
spec = importlib.util.spec_from_file_location("surface", SCRIPT)
surface = importlib.util.module_from_spec(spec)
spec.loader.exec_module(surface)


def test_argument_count_walks_subcommands_and_skips_help():
    parser = argparse.ArgumentParser()
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("one")
    p.add_argument("path")
    p.add_argument("-o", "--out")
    sub.add_parser("two").add_argument("--n", type=int)
    assert surface.argument_count(parser) == 4


def test_prints_three_counts_of_this_tree():
    out = subprocess.run([sys.executable, str(SCRIPT)], check=True,
                         capture_output=True, text=True).stdout
    counts = {name: int(value) for name, value in
              (line.split() for line in out.splitlines())}
    assert list(counts) == ["src_lines", "cli_arguments", "config_fields"]
    assert counts == surface.surface()
    assert counts["src_lines"] == sum(
        len(p.read_text().splitlines())
        for p in (SCRIPT.parent.parent / "src" / "strokegen").glob("*.py"))
