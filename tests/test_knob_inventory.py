"""DESIGN.md §8's knob table names every knob, and only those.

A ``CampaignConfig`` field, ``fuzz``/``campaign`` option, subcommand or
environment variable added without a row fails here, and so does a row
left behind for a knob that is gone.  Each row must also name what
reads the knob.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
from pathlib import Path

from repro.__main__ import build_parser
from repro.fuzz.campaign import CampaignConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``| kind | `knob` | read by | measured cost |``
_ROW = re.compile(
    r"^\|\s*(field|flag|subcommand|env)\s*\|\s*`([^`]+)`\s*\|([^|]*)\|"
)
#: An environment variable read in the source tree.
_ENV_READ = re.compile(
    r"""os\.(?:environ\.get\(|environ\[|getenv\()\s*["']([A-Z0-9_]+)["']"""
)


def _table() -> list[tuple[str, str, str]]:
    """``(kind, knob, read by)`` for every row of §8's table."""
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    _, marker, rest = text.partition("\n## 8. Knob inventory\n")
    assert marker, "DESIGN.md has no '## 8. Knob inventory' section"
    section = rest.split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        match = _ROW.match(line)
        if match:
            rows.append((match[1], match[2], match[3].strip()))
    return rows


def _rows(kind: str) -> list[str]:
    return [knob for row_kind, knob, _ in _table() if row_kind == kind]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (action,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _campaign_options() -> set[str]:
    options = set()
    for name in ("fuzz", "campaign"):
        for action in _subcommands()[name]._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            options.update(action.option_strings)
    return options


def _env_reads() -> set[str]:
    names = set()
    for tree in ("src", "benchmarks", "perfbench"):
        for path in (REPO_ROOT / tree).rglob("*.py"):
            names.update(_ENV_READ.findall(path.read_text(encoding="utf-8")))
    return names


def test_no_duplicate_rows():
    rows = [(kind, knob) for kind, knob, _ in _table()]
    assert len(rows) == len(set(rows))


def test_fields_match_campaign_config():
    assert set(_rows("field")) == {
        f.name for f in dataclasses.fields(CampaignConfig)
    }


def test_flags_match_fuzz_and_campaign_options():
    assert set(_rows("flag")) == _campaign_options()


def test_subcommands_match_parser():
    assert set(_rows("subcommand")) == set(_subcommands())


def test_env_vars_match_source_reads():
    assert set(_rows("env")) == _env_reads()


def test_every_row_names_its_reader():
    assert [knob for _, knob, read_by in _table() if not read_by] == []
