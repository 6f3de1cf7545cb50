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


def attribute_reads(source: str, attr: str) -> list:
    """The lines that read the attribute ``attr`` of anything, outside the
    body of a function of that name, where the attribute is defined."""
    tree = ast.parse(source)
    inside = {id(n) for d in ast.walk(tree) if isinstance(d, ast.FunctionDef) and d.name == attr
              for n in ast.walk(d)}
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                  and n.attr == attr and isinstance(n.ctx, ast.Load) and id(n) not in inside)


def test_the_scan_finds_attribute_reads():
    source = ("class F:\n    @property\n    def nums(self):\n        return dict(self.nums)\n"
              "f.nums = 1\nprint(f.nums, f.vec)\n")
    assert attribute_reads(source, "nums") == [6]
    assert attribute_reads(source, "vec") == [6]


@pytest.mark.parametrize("path", sorted(Path(eiscong.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reads_the_nums_view(path):
    # an expansion stores one vector; the index -> numerator view is for the tests
    assert attribute_reads(path.read_text(), "nums") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_positions_are_read_through_index(path):
    # a position is indices(bound).index(t), on a degree-2 table and a degree-1 range alike
    assert attribute_reads(path.read_text(), "pos") == []
