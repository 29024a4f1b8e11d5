"""Every name a module of the package or of its tests imports is used in
that module, every name a module of the package defines, methods and
properties included, is reached from a command, a criterion or the
benchmark (a reference from a test that compares against it), and every
defaulted parameter or dataclass field is set by a call in the package, a
criterion or the benchmark."""

import ast
import pathlib

import pytest

import omegalab

_SOURCES = sorted(pathlib.Path(omegalab.__file__).parent.glob("*.py"))
_HERE = pathlib.Path(__file__).parent
_TESTS = sorted(_HERE.glob("*.py"))
# the code a command, a criterion or the benchmark runs
_ROOTS = [*_SOURCES, *sorted((_HERE.parent / "perfbench").glob("*.py")),
          _HERE / "test_acceptance.py"]


def _imported(tree):
    """(name, line) bound by each import; `from __future__` binds nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", [p for p in _SOURCES if p.stem != "__init__"] + _TESTS,
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # the package's __init__ is skipped: its imports are its re-exports
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
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
    # a reached statement reads `.name` of any object.  A re-export reads
    # nothing.  oracle.py is the reference module: a name of it is also
    # reached when a test module other than its own reads it, as a
    # reference is there to be compared against.  Dunders are the runtime's.
    statements = []   # (keys module:name it defines that are checked, names it reads)
    defining = {}     # name, or .name of a method -> indices of the statements that define it
    for path in _ROOTS:
        tree = ast.parse(path.read_text())
        checked = path in _SOURCES
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
    compared = set()   # the names read by the tests of the other modules
    for path in _TESTS:
        if path not in _ROOTS and path.name != "test_oracle.py":
            tree = ast.parse(path.read_text())
            compared |= set(_package_reads(tree.body, _package_modules(tree)))
    references = {f"oracle.py:{name}" for name in compared}
    reached = {i for i, (keys, _) in enumerate(statements)
               if not keys or keys & _EXEMPT or keys & references}
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


def _field_default(node):
    """Whether a dataclass field statement gives a default: a value, or
    field(default=...) or field(default_factory=...)."""
    value = node.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(keyword.arg in ("default", "default_factory") for keyword in value.keywords)
    return value is not None


def _defaulted(tree):
    """(name it is called by, parameter, position or None) per defaulted parameter.

    A method's position leaves out its instance; __init__ is called by its
    class's name, and so is a dataclass, whose fields are its parameters.
    Keyword-only parameters have no position.
    """
    owners = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [sub for sub in node.body if isinstance(sub, ast.AnnAssign)]
            for i, sub in enumerate(fields):
                if _field_default(sub):
                    yield node.name, sub.target.id, i
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


def _called(call):
    """(name, call) of the function a call runs: perfbench's
    rnd.call(op, metric, fn, *args) runs fn on the arguments after it."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "call" and len(call.args) >= 3:
        call = ast.Call(func=call.args[2], args=call.args[3:], keywords=call.keywords)
        func = call.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)), call


def _passes(call, param, position):
    """Whether a call sets the parameter, by keyword, ** or position."""
    if any(keyword.arg in (param, None) for keyword in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_set_by_some_call():
    # A default that no call of a command, a criterion or the benchmark
    # overrides is a constant in disguise; a unit test that sets it alone
    # tests a knob nothing turns.  oracle.py is the reference module and
    # keeps its own knobs.
    calls = {}
    for path in _ROOTS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name, call = _called(node)
                calls.setdefault(name, []).append(call)
    unset = [f"{path.name}:{called}({param})" for path in _SOURCES if path.name != "oracle.py"
             for called, param, position in _defaulted(ast.parse(path.read_text()))
             if not any(_passes(call, param, position) for call in calls.get(called, []))]
    assert unset == []


def test_prime_sums_never_read_the_whole_table_of_primes():
    # pretentious sums over the primes one segment at a time: neither a call
    # of sieve.enumerate_primes nor an import of it may bring the table back
    tree = ast.parse((pathlib.Path(omegalab.__file__).parent / "pretentious.py").read_text())
    assert "enumerate_primes" not in set(_named(tree))
