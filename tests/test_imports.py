"""Every name a package module imports is referenced in that module: an
import that a change leaves behind fails here, as a linter would flag it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chiraldet"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> dict:
    """{bound name: line} of every import, but `from __future__`'s, whose
    name the source never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    unused = unused_imports((PACKAGE / module).read_text())
    assert unused == {}, f"{module} imports names it never references: {unused}"


def test_an_unused_import_is_found():
    """The check itself: a name never read shows, and `from __future__` is
    exempt."""
    assert unused_imports("from __future__ import annotations\nimport os\n"
                          "from a import B, C\ndef f(x) -> B:\n    return x\n") == {"os": 2, "C": 3}
