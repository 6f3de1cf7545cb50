"""Checks on the package's source, read with the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

import eiscong

MODULES = sorted(p for p in Path(eiscong.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names that a module's top-level imports bind and nothing in it reads;
    ``__init__.py`` is left out of the scan, as it imports to re-export."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_the_scan_finds_unused_imports():
    source = "import os.path\nimport re as regex\nfrom math import gcd, lcm\nlcm(1, regex.I)\n"
    assert unused_imports(source) == ["gcd", "os"]
    assert unused_imports("from __future__ import annotations\nimport math\nmath.pi\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []
