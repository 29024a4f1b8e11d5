"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

import pytest

import omegalab

_SOURCES = sorted(pathlib.Path(omegalab.__file__).parent.glob("*.py"))


def _imported(tree):
    """(name, line) bound by each import; `from __future__` binds nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The string members of a module-level __all__."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


@pytest.mark.parametrize("path", [p for p in _SOURCES if p.stem != "__init__"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__ is skipped: its imports are the package's re-exports
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = [(name, line) for name, line in _imported(tree) if name not in used]
    assert unused == [], path.name
