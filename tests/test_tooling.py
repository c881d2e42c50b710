"""Source-level rules for the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hankelbound
from hankelbound import cli, search
from hankelbound.families import Ozaki, Robertson, Spirallike

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "hankelbound").glob("*.py"))
INIT = ROOT / "src" / "hankelbound" / "__init__.py"
BENCH = sorted((ROOT / "bench").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    # ``python -O`` strips assert statements, so an internal consistency
    # check written as one silently stops checking.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: bare assert on line(s) {lines}"


def _names(tree):
    """Every identifier and string constant the tree names."""
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    named |= {node.value for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return named


@pytest.mark.parametrize("path", [p for p in SOURCES if p != INIT],
                         ids=lambda p: p.name)
def test_every_definition_is_used_by_the_program(path):
    # src/ holds only what the program runs or the benchmark traces: each
    # top-level function or class is named outside its own definition, in
    # a module of src/ or in bench/ (whose tracer names functions as strings).
    # Test-only references belong in tests/reference.py.
    tree = ast.parse(path.read_text(), filename=str(path))
    others = [p for p in SOURCES + BENCH if p not in (path, INIT)]
    outside = set().union(*(_names(ast.parse(p.read_text(), filename=str(p))) for p in others))
    unused = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in outside.union(
                  *(_names(other) for other in tree.body if other is not node))]
    assert not unused, f"{path.name}: named by neither src/ nor bench/: {unused}"


def test_search_rounds_are_array_passes(monkeypatch):
    # Each refinement round takes the Y-lemma on all its p1 nodes in one
    # y_values call; the scalar lemma runs once, after the last round, for
    # the best node's maximiser, and not at all when that node has e3 = 0
    # (p1 = 0 or 1).  A per-node loop would call it ~129 times.
    calls = []
    scalar = search.y_closed_form

    def counted(*args):
        calls.append(args)
        return scalar(*args)

    monkeypatch.setattr(search, "y_closed_form", counted)
    for spec in (Spirallike(0.3, 0.4), Ozaki(0.5), Robertson(0.75)):
        calls.clear()
        p1 = search.global_max(spec).argmax.p1
        assert len(calls) == (0.0 < p1 < 1.0), (spec, p1, len(calls))


@pytest.mark.parametrize("n", [1, 5, 20])
def test_sweep_rounds_are_one_pass_over_all_members(monkeypatch, n):
    # A sweep of n members takes each refinement round in one envelope
    # evaluation and one y_values call over all n windows, not one per
    # member; a member's own envelope and the scalar lemma run at most once
    # per member, after the rounds.
    sizes, envelopes, own, scalar_calls = [], [], [], []
    values, poly, scalar = search.y_values, search.envelope_poly, search.y_closed_form
    arrays = search.envelope_arrays

    def counted_values(A, B, C):
        sizes.append(A.size)
        return values(A, B, C)

    def counted_poly(factors, p1):
        envelopes.append(p1.shape)
        return poly(factors, p1)

    def counted_own(spec, p1):
        own.append(p1)
        return arrays(spec, p1)

    def counted_scalar(*args):
        scalar_calls.append(args)
        return scalar(*args)

    monkeypatch.setattr(search, "y_values", counted_values)
    monkeypatch.setattr(search, "envelope_poly", counted_poly)
    monkeypatch.setattr(search, "envelope_arrays", counted_own)
    monkeypatch.setattr(search, "y_closed_form", counted_scalar)
    kinds = (lambda x: Spirallike(0.9 * x, x - 0.5), lambda x: Ozaki(0.05 + 0.95 * x),
             lambda x: Robertson(0.5 + 0.5 * x))
    specs = [kinds[j % 3](j / 20) for j in range(n)]
    coarse, rounds = 100, 4
    search.sweep(specs, coarse=coarse, refine_rounds=rounds)
    assert sizes == [n * (coarse + 1)] * (rounds + 1)
    assert envelopes == [(n, coarse + 1)] * (rounds + 1)
    assert len(own) == n
    assert len(scalar_calls) <= n


def test_import_loads_no_third_party_package_but_numpy():
    # setup_s of the benchmark times fresh processes through this import:
    # a new dependency would show there.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hankelbound, hankelbound.cli\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(loaded - set(sys.stdlib_module_names))))\n"
    )
    src = str(Path(hankelbound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert sorted(out) == ["hankelbound", "numpy"]


def test_ymax_certify_is_one_oracle_pass(monkeypatch, capsys):
    # ymax-certify takes the grid maxima of all its triples in one array
    # y_oracle call; a per-triple loop would call it 1000 times.
    calls = []
    oracle = cli.y_oracle

    def counted(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(cli, "y_oracle", counted)
    assert cli.main(["ymax-certify", "--n", "1000"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    assert [len(a) for a in calls[0]] == [1000, 1000, 1000]


FAMILY_CLASSES = {"Spirallike", "Ozaki", "Robertson"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "families.py"],
                         ids=lambda p: p.name)
def test_family_kinds_known_to_families_alone(path):
    # Only families.py tells the kinds apart; cli.py reads the FAMILIES
    # table for its --family choices.
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = {"FAMILIES"} if path.name == "cli.py" else set()
    assert not (_names(tree) & (FAMILY_CLASSES | {"FAMILIES"})) - allowed, path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_isinstance_on_family_classes(path):
    # Each formula is picked by the row's kind, so a new row of an existing
    # kind needs no new branch.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "isinstance" and len(node.args) == 2
             and {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
             & FAMILY_CLASSES]
    assert not lines, f"{path.name}: isinstance on a family class on line(s) {lines}"


def test_cli_float_options_are_checked():
    # float() accepts nan and inf, so a bare type=float option lets them past
    # argparse; every float option goes through a type that rejects them.
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    bare = [node.value.lineno for node in ast.walk(tree)
            if isinstance(node, ast.keyword) and node.arg == "type"
            and isinstance(node.value, ast.Name) and node.value.id == "float"]
    assert not bare, f"cli.py: type=float on line(s) {bare}"
