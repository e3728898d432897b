"""The user-facing documents name only commands and anchors that exist.

Scans README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md and
examples/*.py: every ``python -m repro <command>`` must name a
subcommand of :func:`repro.cli.build_parser`, and every relative
``<file>.md#<anchor>`` reference must land on a heading of that file.
CHANGES.md and ROADMAP.md are history and plans, so they may name what
is gone.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
    + list((ROOT / "examples").glob("*.py"))
)

#: ``python -m repro CMD``, also when a line break falls inside it.
_COMMAND = re.compile(r"\bpython3?\s+-m\s+repro\s+([A-Za-z_][\w-]*)")
#: A relative ``path.md#anchor``: not part of a URL or a longer path.
_ANCHOR_LINK = re.compile(r"(?<![\w:/.-])(\w[\w./-]*\.md)#([\w-]+)")
_HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")


def _subcommands():
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    raise AssertionError("build_parser() has no subcommands")


def _anchors(path: Path):
    """GitHub's heading anchors: lower case, punctuation dropped, spaces
    to hyphens, a repeated anchor numbered ``-1``, ``-2``, ..."""
    anchors, seen = set(), {}
    fenced = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        match = None if fenced else _HEADING.match(line)
        if match is None:
            continue
        slug = re.sub(r"[^\w\- ]", "", match.group(1).lower()).replace(
            " ", "-")
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


def _name(path: Path) -> str:
    return str(path.relative_to(ROOT))


@pytest.mark.parametrize("doc", DOCUMENTS, ids=_name)
def test_every_documented_command_is_a_subcommand(doc):
    known = _subcommands()
    named = set(_COMMAND.findall(doc.read_text(encoding="utf-8")))
    assert named <= known, f"{sorted(named - known)} are not subcommands"


@pytest.mark.parametrize("doc", DOCUMENTS, ids=_name)
def test_every_md_anchor_resolves_to_a_heading(doc):
    text = doc.read_text(encoding="utf-8")
    for target, anchor in _ANCHOR_LINK.findall(text):
        # Relative to the document, or (for a path written from the
        # repository root in prose) to the root.
        candidates = [doc.parent / target, ROOT / target]
        path = next((p for p in candidates if p.is_file()), None)
        assert path is not None, f"{target} does not exist"
        assert anchor in _anchors(path), f"{target}#{anchor} has no heading"
