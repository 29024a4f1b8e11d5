"""Every name a module of the package imports is used in that module,
every name a module defines is used somewhere in the package, and every
defaulted parameter is set by some call."""

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


def _defaulted(tree):
    """(name it is called by, parameter, position or None) per defaulted parameter.

    A method's position leaves out its instance; __init__ is called by its
    class's name.  Keyword-only parameters have no position.
    """
    owners = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(id(node))
        called = owner if node.name == "__init__" else node.name
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield called, arg.arg, i - (owner is not None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield called, arg.arg, None


def _passes(call, param, position):
    """Whether a call sets the parameter, by keyword, ** or position."""
    if any(keyword.arg in (param, None) for keyword in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_set_by_some_call():
    # A default that no call in the package, the tests or the benchmark
    # overrides is a constant in disguise.  oracle.py is the reference
    # module and keeps its own knobs.
    here = pathlib.Path(__file__).parent
    callers = [*_SOURCES, *here.rglob("*.py"), *(here.parent / "perfbench").glob("*.py")]
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [f"{path.name}:{called}({param})" for path in _SOURCES if path.name != "oracle.py"
             for called, param, position in _defaulted(ast.parse(path.read_text()))
             if not any(_passes(call, param, position) for call in calls.get(called, []))]
    assert unset == []


def test_prime_sums_never_read_the_whole_table_of_primes():
    # pretentious sums over the primes one segment at a time: neither a call
    # of sieve.enumerate_primes nor an import of it may bring the table back
    tree = ast.parse((pathlib.Path(omegalab.__file__).parent / "pretentious.py").read_text())
    assert "enumerate_primes" not in set(_named(tree))
