import ast
from pathlib import Path

import consensuslab

PACKAGE = Path(consensuslab.__file__).resolve().parent


def _private_sibling_imports(source: str) -> list[str]:
    """Every `from <sibling module> import _name` in source, where the
    sibling is a relative import or one from the consensuslab package and
    _name is not a dunder such as __version__."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("consensuslab"):
            continue
        found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_the_guard_sees_a_private_sibling_import():
    assert _private_sibling_imports("from .rules import UpdateRule, _alpha\n") == [
        "line 1: _alpha"
    ]
    assert _private_sibling_imports("from consensuslab.core import _x\n") == ["line 1: _x"]
    assert _private_sibling_imports("from __future__ import annotations\n") == []
    assert _private_sibling_imports("from . import __version__\n") == []


def test_no_module_imports_a_private_name_from_a_sibling():
    # a private name is its module's own: a second module that needs it
    # wants it public, or in the tests if only an oracle uses it
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    found = {m.name: _private_sibling_imports(m.read_text()) for m in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}
