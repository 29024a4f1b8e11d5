"""Every name a module of the package or of its tests imports is used in
that module, every name a module of the package defines, methods and
properties included, is reached from a command, a criterion or the
benchmark, and every defaulted parameter is set by some call."""

import ast
import pathlib

import pytest

import omegalab

_SOURCES = sorted(pathlib.Path(omegalab.__file__).parent.glob("*.py"))
_TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", [p for p in _SOURCES if p.stem != "__init__"] + _TESTS,
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # the package's __init__ is skipped: its imports are its re-exports
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


def _package_modules(tree):
    """The names a module binds to the package's modules by import."""
    stems = {path.stem for path in _SOURCES}
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if alias.name in stems}


def _package_reads(nodes, modules):
    """The names some nodes read that may be the package's: loaded names,
    attributes of the modules given (`sieve.BigOmega`, not
    `profile.harmonic_mass`), and as ".name" every attribute read of any
    object, which may be a method or property.  An import reads nothing."""
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield "." + sub.attr
            if isinstance(sub.value, ast.Name) and sub.value.id in modules:
                yield sub.attr


def _pieces(node):
    """A class statement as its methods and properties, each a piece of its
    own, and the rest of it; dunders are the runtime's and stay with the
    class.  Any other statement is one piece."""
    if not isinstance(node, ast.ClassDef):
        return [], [node]
    methods = [sub for sub in node.body if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (sub.name.startswith("__") and sub.name.endswith("__"))]
    return methods, [*node.decorator_list, *node.bases, *node.keywords,
                     *(sub for sub in node.body if sub not in methods)]


# Not reached from a root, and kept:
# - the cache reset that tests call so that no result depends on what the
#   cache saw earlier; no command needs it, as each runs in a fresh process;
# - the per-value references that tests compare the vectorised paths
#   against: `value_at_prime` for `MultFunSpec.values_on`, and `value_at`
#   for `reduction.fourier_expand`.
_EXEMPT = {"profiles.py:invalidate_cache", "pretentious.py:MultFunSpec.value_at_prime",
           "reduction.py:FourierTable.value_at"}


def test_every_module_level_name_is_used():
    # A name is used when a command, a criterion or the benchmark reaches
    # it: the roots are the package's module-level code, perfbench and
    # tests/test_acceptance.py, and a definition is reached when a reached
    # statement reads its name outside the definition itself.  A method or
    # property of a package class is a definition of its own, reached when
    # a reached statement reads `.name` of any object.  A re-export or an
    # __all__ entry reads nothing.  oracle.py is the reference module: its
    # names are not checked and its code is a root.  Dunders are the
    # runtime's.
    here = pathlib.Path(__file__).parent
    readers = [*_SOURCES, *(here.parent / "perfbench").glob("*.py"),
               here / "test_acceptance.py"]
    statements = []   # (keys module:name it defines that are checked, names it reads)
    defining = {}     # name, or .name of a method -> indices of the statements that define it
    for path in readers:
        tree = ast.parse(path.read_text())
        checked = path in _SOURCES and path.name != "oracle.py"
        keys = {}
        if checked:
            for name, node in _defined(tree):
                if not (name.startswith("__") and name.endswith("__")):
                    keys.setdefault(id(node), set()).add(f"{path.name}:{name}")
        modules = _package_modules(tree)
        for node in tree.body:
            methods, rest = _pieces(node) if checked else ([], [node])
            for method in methods:
                defining.setdefault("." + method.name, set()).add(len(statements))
                statements.append(({f"{path.name}:{node.name}.{method.name}"},
                                   set(_package_reads([method], modules))))
            for key in keys.get(id(node), set()):
                defining.setdefault(key.split(":")[1], set()).add(len(statements))
            statements.append((keys.get(id(node), set()), set(_package_reads(rest, modules))))
    reached = {i for i, (keys, _) in enumerate(statements) if not keys or keys & _EXEMPT}
    pending = list(reached)
    while pending:
        i = pending.pop()
        for name in statements[i][1]:
            for j in defining.get(name, set()) - {i} - reached:
                reached.add(j)
                pending.append(j)
    unused = sorted(key for i, (keys, _) in enumerate(statements) if i not in reached
                    for key in keys)
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
