"""Every imported name in the package and its tests is used."""

import ast
from pathlib import Path

import pytest

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
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\nfrom a import b as c\nsys.exit()\n")
    assert unused_imports(source) == [(2, "os"), (3, "c")]
