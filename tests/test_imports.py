"""Every name a module of the package imports is used in that module, and
every name a module defines is used somewhere in the package."""

import ast
import pathlib
from collections import Counter

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


def _named(tree):
    """Every name a tree reads: loaded names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _defined(tree):
    """(name, node) of each module-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_every_module_level_name_is_used():
    # A name counts as used when the package names it outside its own
    # definition: read in any module, listed in an __all__, or imported
    # (the re-exports of __init__ are imports).  Dunders are the runtime's.
    trees = {path.name: ast.parse(path.read_text()) for path in _SOURCES}
    named = Counter(name for tree in trees.values()
                    for name in [*_named(tree), *_exported(tree)])
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name, node in _defined(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and named[name] <= sum(1 for own in _named(node) if own == name)]
    assert unused == []
