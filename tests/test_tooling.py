"""Source-level rules for the package."""

import ast
from pathlib import Path

import pytest

from hankelbound import search
from hankelbound.families import Ozaki, Robertson, Spirallike

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "hankelbound").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    # ``python -O`` strips assert statements, so an internal consistency
    # check written as one silently stops checking.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: bare assert on line(s) {lines}"


def test_search_rounds_are_array_passes(monkeypatch):
    # Each refinement round takes the Y-lemma on all its p1 nodes in one
    # y_values call; the scalar lemma runs at most once a round, for a new
    # best node's maximiser.  A per-node loop would call it ~129 times.
    calls = []
    scalar = search.y_closed_form

    def counted(*args):
        calls.append(args)
        return scalar(*args)

    monkeypatch.setattr(search, "y_closed_form", counted)
    for spec in (Spirallike(0.3, 0.4), Ozaki(0.5), Robertson(0.75)):
        calls.clear()
        search.global_max(spec)
        assert len(calls) <= 3 + 1, (spec, len(calls))
