"""Every imported name in the package and its tests is used, every private
top-level name of the package is read, each builder that trusts its input
(the unchecked ZPoly and Invariant constructors, the diagram built with
its chord table, json.loads), each source of class cells and the one
reader of a chord's crossing row are called from their own places, events
are switched only by mirror and crossing_change, and the brute-force
oracle imports nothing but the standard library."""

import ast
import importlib
import sys
from pathlib import Path
from types import ModuleType

import pytest

import knotoidh

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for p in [*ROOT.glob("src/knotoidh/*.py"), *ROOT.glob("tests/*.py")]
               if p.name != "__init__.py")  # package imports are re-exports


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\nfrom a import b as c\nsys.exit()\n")
    assert unused_imports(source) == [(2, "os"), (3, "c")]


def dead_private_names(sources: dict) -> list:
    """(module, name) for private top-level names that no module reads."""
    defined, used = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.update((module, name) for name in names
                           if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted((module, name) for module, name in defined if name not in used)


def test_no_dead_private_helpers():
    package = {p.name: p.read_text(encoding="utf-8") for p in ROOT.glob("src/knotoidh/*.py")}
    assert dead_private_names(package) == []


def test_scan_flags_a_dead_helper():
    sources = {"a.py": ("_A = 1\n_B: int = 2\n__all__ = []\n"
                        "def _f(): return _A\nclass _C: pass\ndef g(): pass\n"),
               "b.py": "from a import _C\n_D = 0\n_D = 1\n"}
    assert dead_private_names(sources) == [("a.py", "_B"), ("a.py", "_f"), ("b.py", "_D")]


def reads(node, owner, attr) -> bool:
    """node reads `owner.attr`; with owner None, it reads the top-level name
    attr in any way: bare, as an attribute or in an import."""
    if isinstance(node, ast.Attribute):
        return node.attr == attr and (owner is None or isinstance(node.value, ast.Name)
                                      and node.value.id == owner)
    return owner is None and (isinstance(node, ast.Name) and node.id == attr
                              or isinstance(node, ast.alias) and node.name == attr)


def builder_sites(sources: dict, owner, attr: str) -> list:
    """(module, enclosing class.function) of every read of `owner.attr` in the
    sources, or of the name attr when owner is None."""
    sites = []

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if reads(node, owner, attr):
            sites.append((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module, ())
    return sorted(sites)


def package_sources() -> dict:
    return {p.name: p.read_text(encoding="utf-8") for p in ROOT.glob("src/knotoidh/*.py")}


def test_unchecked_zpolys_are_built_only_by_from_summands():
    """Only from_summands may trust its terms: every other ZPoly goes through ZPoly(...)."""
    assert builder_sites(package_sources(), "ZPoly", "_built") == [
        ("invariant.py", "Invariant.from_summands")]


TRUSTED_INVARIANT_SITES = [("invariant.py", "Invariant.from_summands"),
                           ("invariant.py", "Invariant.signed_sum")]


def test_unchecked_invariants_are_built_only_by_the_two_sums():
    """Only from_summands and signed_sum build an Invariant on dicts they made
    themselves; every other Invariant goes through Invariant(...)."""
    assert builder_sites(package_sources(), "Invariant", "_built") == TRUSTED_INVARIANT_SITES


def test_a_second_caller_of_the_trusted_invariant_builder_fails_the_audit():
    sources = package_sources()
    sources["gordian.py"] += ("\n\ndef _planted(policy):\n"
                              "    return Invariant._built(policy, {}, {})\n")
    sites = builder_sites(sources, "Invariant", "_built")
    assert sites != TRUSTED_INVARIANT_SITES and ("gordian.py", "_planted") in sites


def test_json_is_read_only_through_its_gate():
    """gauss._json is the one json.loads: every JSON reader shares its strict rules."""
    assert builder_sites(package_sources(), "json", "loads") == [("gauss.py", "_json")]


PATCHED_TABLE_SITES = [("gauss.py", "crossing_change")]


def test_only_crossing_change_hands_a_diagram_its_chord_table():
    """Every other diagram builds its table from its events on first use."""
    assert builder_sites(package_sources(), "GaussDiagram", "_built_with_table") == \
        PATCHED_TABLE_SITES


def test_a_second_caller_of_the_table_builder_fails_the_audit():
    sources = package_sources()
    sources["singular.py"] += ("\n\ndef _planted(d):\n"
                               "    return GaussDiagram._built_with_table(d.events, d._table)\n")
    sites = builder_sites(sources, "GaussDiagram", "_built_with_table")
    assert sites != PATCHED_TABLE_SITES and ("singular.py", "_planted") in sites


CELL_SOURCE_SITES = [("invariant.py", "_cells")]


@pytest.mark.parametrize("source", ["_row_cells", "_histogram_cells"])
def test_only_cells_reads_a_class_cell_source(source):
    """_cells alone picks between the rows and the kernel, by the chord count."""
    assert builder_sites(package_sources(), None, source) == CELL_SOURCE_SITES


@pytest.mark.parametrize("source", ["_row_cells", "_histogram_cells"])
def test_a_second_reader_of_a_class_cell_source_fails_the_audit(source):
    sources = package_sources()
    sources["singular.py"] += ("\n\nfrom . import invariant\n\n\ndef _planted():\n"
                               "    return invariant.%s\n" % source)
    sites = builder_sites(sources, None, source)
    assert sites != CELL_SOURCE_SITES and ("singular.py", "_planted") in sites


ROW_READER_SITES = [("invariant.py", "_row_cells"), ("invariant.py", "_switch_delta"),
                    ("invariant.py", "index_polys")]


def test_only_the_per_chord_readers_read_a_chord_s_row_classes():
    """_row_classes writes Ind_c^n's rule once; the row source, the switch
    delta and index_polys go through it."""
    assert builder_sites(package_sources(), None, "_row_classes") == ROW_READER_SITES


def test_a_second_reader_of_the_row_classes_fails_the_audit():
    sources = package_sources()
    sources["gordian.py"] += ("\n\nfrom .invariant import _row_classes\n\n\n"
                              "def _planted(d, c, p):\n    return _row_classes(d._table, c, p)\n")
    sites = builder_sites(sources, None, "_row_classes")
    assert sites != ROW_READER_SITES and ("gordian.py", "_planted") in sites


REPORT_SITES = [("gordian.py", "_report")]


def test_only_report_reads_the_decomposition_json():
    """gordian._report writes the gordian command's one report, in both outcomes."""
    assert builder_sites(package_sources(), None, "decomposition_json") == REPORT_SITES


def test_a_second_reader_of_the_decomposition_json_fails_the_audit():
    sources = package_sources()
    sources["cli.py"] += ("\n\nfrom .gordian import decomposition_json\n\n\n"
                          "def _planted(dec):\n    return decomposition_json(dec)\n")
    sites = builder_sites(sources, None, "decomposition_json")
    assert sites != REPORT_SITES and ("cli.py", "_planted") in sites


SWITCHING_SITES = {("gauss.py", "crossing_change"), ("gauss.py", "mirror")}


def test_only_mirror_and_crossing_change_switch_events():
    """Every other builder that needs a switched crossing calls crossing_change."""
    assert set(builder_sites(package_sources(), None, "_switched")) == SWITCHING_SITES


def test_a_second_reader_of_the_event_switch_fails_the_audit():
    sources = package_sources()
    sources["singular.py"] += ("\n\nfrom .gauss import _switched\n\n\ndef _planted(ev):\n"
                               "    return _switched(ev)\n")
    sites = set(builder_sites(sources, None, "_switched"))
    assert sites != SWITCHING_SITES and {("singular.py", ""), ("singular.py", "_planted")} <= sites


def test_scan_finds_every_read_of_a_name():
    sources = {"a.py": ("from .gauss import _switched as s\nimport gauss\n"
                        "def f(ev):\n    return gauss._switched(ev)\n"),
               "b.py": ("class B:\n    def g(self, ev):\n        return [_switched(ev)]\n"
                        "    def _switched(self):\n        pass\n")}
    assert builder_sites(sources, None, "_switched") == [("a.py", ""), ("a.py", "f"),
                                                          ("b.py", "B.g")]


def test_scan_finds_every_unchecked_zpoly_site():
    sources = {"a.py": ("class A:\n    def f(self, P):\n        return ZPoly._built(P)\n"
                        "g = ZPoly._built\nGaussDiagram._built(())\n"),
               "b.py": "def h():\n    return [ZPoly._built(())]\n"}
    assert builder_sites(sources, "ZPoly", "_built") == [("a.py", ""), ("a.py", "A.f"),
                                                         ("b.py", "h")]


def imported_modules(source: str) -> set:
    """Top-level names of the modules a source imports; "" for a relative import."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("" if node.level else node.module.split(".")[0])
    return modules


def test_oracle_imports_only_the_standard_library():
    """The oracle that tier-1 and the benchmark share never reads the code it checks."""
    source = (ROOT / "perfbench" / "oracle.py").read_text(encoding="utf-8")
    modules = imported_modules(source)
    assert modules and modules <= sys.stdlib_module_names, modules - sys.stdlib_module_names
    assert "knotoidh" not in source and "__import__" not in source


def test_scan_names_every_imported_module():
    source = ("from __future__ import annotations\nimport json, os.path\n"
              "from knotoidh.gauss import serialize\nfrom . import zpoly\nimport numpy as np\n")
    assert imported_modules(source) == {"__future__", "json", "os", "knotoidh", "", "numpy"}


def test_the_package_republishes_exactly_its_modules_public_names():
    modules = [importlib.import_module("knotoidh." + name) for name in
               ("gauss", "gordian", "invariant", "moves", "singular", "zpoly")]
    public = {name for name, obj in vars(knotoidh).items()
              if not name.startswith("_") and not isinstance(obj, ModuleType)}
    assert public == {name for module in modules for name in module.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(knotoidh, name) is getattr(module, name)
