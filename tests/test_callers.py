"""Every definition in ``src/strongdrive`` has a caller there.

A function, class or method that only tests call belongs in the test file
that uses it, as an oracle, so the package holds what its commands run.  A
definition counts as called when its name appears in some module of the
package (a name, an attribute or an imported name; ``__init__.py``, which
re-exports everything, does not count), or when the benchmark tracer
(``benchmarks/tracing.py``) names it as an entry point in ``LAYERS``.
Dunder methods are called by the language, so they are exempt.
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
        if isinstance(node, ast.Name):
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
