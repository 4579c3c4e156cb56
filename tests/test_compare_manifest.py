"""The run list of ``tools/compare.py``: every entry is a ``kgblow`` argv
that parses and names an existing input, and every committed input is run."""

import json
from pathlib import Path

import pytest

from kgblowup.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
ENTRIES = json.loads((ROOT / "tools" / "compare.json").read_text())


def _scenario(argv):
    return argv[argv.index("--scenario") + 1]


@pytest.mark.parametrize("argv", ENTRIES, ids=[" ".join(argv) for argv in ENTRIES])
def test_entry_parses_and_names_an_existing_file(argv):
    args = _build_parser().parse_args(argv)
    assert args.command == argv[0]
    # the script adds both, per run
    assert args.out is None and getattr(args, "workers", None) is None
    assert (ROOT / _scenario(argv)).is_file()


def test_every_input_is_run():
    named = {_scenario(argv) for argv in ENTRIES}
    inputs = sorted(ROOT.glob("scenarios/*.json")) + sorted(ROOT.glob("scenarios/regress/*"))
    assert inputs
    assert [p for p in inputs if p.relative_to(ROOT).as_posix() not in named] == []
