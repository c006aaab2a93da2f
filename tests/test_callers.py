"""Every definition in ``src/strongdrive`` has a caller there.

A function, class, method or module-level name that only tests use belongs
in the test file that uses it, as an oracle, so the package holds what its
commands run.  A definition counts as called when its name is read in some
module of the package (a name, an attribute or an imported name; the
assignment that binds it is not a read, and ``__init__.py``, which
re-exports everything, does not count), or when the benchmark tracer
(``benchmarks/tracing.py``) names it as an entry point in ``LAYERS``.
Dunder names are used by the language, so they are exempt.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "strongdrive"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _layers():
    spec = importlib.util.spec_from_file_location(
        "_benchmark_tracing", ROOT / "benchmarks" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _trees_and_called():
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    called = {name for tree in trees.values() for name in _used_names(tree)}
    called |= {name for names in _layers().values() for name in names}
    return trees, called


def _bound_names(target):
    """Names an assignment target binds: a name, or the names of a tuple or
    list target, starred or nested."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield from _bound_names(target)
        elif isinstance(node, ast.AnnAssign):
            yield from _bound_names(node.target)


def test_every_public_definition_has_a_caller_in_src():
    trees, called = _trees_and_called()
    orphans = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS)
        and not node.name.startswith("_")
        and node.name not in called
    ]
    assert not orphans, f"no caller in src/strongdrive: {', '.join(orphans)}"


def test_every_private_definition_and_method_has_a_caller_in_src():
    trees, called = _trees_and_called()
    definitions = [
        (f"{module}.{node.name}", node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS) and node.name.startswith("_")
    ] + [
        (f"{module}.{cls.name}.{node.name}", node.name)
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, DEFINITIONS)
    ]
    orphans = [
        qualname
        for qualname, name in definitions
        if not (name.startswith("__") and name.endswith("__")) and name not in called
    ]
    assert not orphans, f"no caller in src/strongdrive: {', '.join(orphans)}"


def test_every_module_level_name_has_a_caller_in_src():
    # constants and tables, public or private, tuple targets included
    trees, called = _trees_and_called()
    orphans = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _module_level_names(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in called
    ]
    assert not orphans, f"no caller in src/strongdrive: {', '.join(orphans)}"


def _defaulted_parameters(node, method):
    """(index among positional parameters or None, name) of each defaulted
    parameter of a function definition; a method's first one is bound."""
    positional = node.args.posonlyargs + node.args.args
    if method:
        positional = positional[1:]
    first = len(positional) - len(node.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield i, arg.arg
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _sets(call, index, name):
    """Whether ``call`` passes the parameter at ``index`` (positional) or
    ``name``: a starred or double-starred argument may pass any."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_of_a_private_function_is_set_in_src():
    # a default no caller overrides is a dead knob: the parameter and the
    # code behind it go, the default becoming the code
    trees, _ = _trees_and_called()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    functions = [
        (f"{module}.{node.name}", node)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    ]
    methods = {
        id(node)
        for tree in trees.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }
    dead = [
        f"{qualname}({name})"
        for qualname, node in functions
        if node.name.startswith("_") and not node.name.endswith("__")
        for index, name in _defaulted_parameters(node, id(node) in methods)
        if not any(_sets(call, index, name) for call in calls.get(node.name, []))
    ]
    assert not dead, f"a default no call in src/strongdrive sets: {', '.join(dead)}"


def test_only_floquet_reads_the_table_format():
    # the parity shape of a solve's tables (harmonic n on component n mod 2,
    # the first row's n beside the rows) is floquet.py's alone: the other
    # modules take rows from ``edge_rows`` and sum them per
    # ``FloquetSpectrum.components``
    readers = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "floquet.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("table", "live_rows")
    ]
    assert not readers, f"the Floquet table read outside floquet.py: {', '.join(readers)}"
