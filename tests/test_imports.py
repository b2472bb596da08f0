"""Every name a package module imports is referenced in that module, and
every module-level definition is read somewhere in the package: an import
or a definition that a change leaves behind fails here, as a linter would
flag it."""

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


def unread_definitions(sources: dict) -> dict:
    """{(module, name): line} of every module-level function, class and
    assigned name, dunders aside, that no source of `sources`, {module:
    source} of the whole package, reads as a name, an attribute or an
    import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = {}
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread.update({(module, name): node.lineno for name in defined
                           if name not in read and not name.startswith("__")})
    return unread


def test_no_unread_definition():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    unread = unread_definitions(sources)
    assert unread == {}, f"module-level definitions the package never reads: {unread}"


def test_an_unread_definition_is_found():
    """The check itself: a definition read nowhere shows; one read as a
    name, an attribute or an import, anywhere in the package, does not,
    nor does a dunder or a definition of __init__.py."""
    sources = {
        "__init__.py": "from .a import exported\nDEAD_IN_INIT = 1\n",
        "a.py": ("__all__ = []\nLIMIT = 2\nX, Y = 1, 2\n"
                 "def exported(): pass\ndef helper(): return LIMIT\n"
                 "class Dead: pass\ndef unused(): return helper()\n"),
        "b.py": "import a\ndef f(): return a.X\nf()\n",
    }
    assert unread_definitions(sources) == {("a.py", "Y"): 3, ("a.py", "Dead"): 6,
                                           ("a.py", "unused"): 7}
