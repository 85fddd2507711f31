"""The package keeps no code that nothing reaches, checked on its syntax trees.

Three kinds of leftover are caught: a top-level import that its module never
uses, a module-level ``_private`` name that is referenced nowhere but where
it is defined, and a public function, class or method that only the unit
tests reach.  A ``_private`` name also stays in its module: no other module
imports it.  Only the standard library's ``ast`` is used.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "linesearch"
SOURCES = sorted(PACKAGE.glob("*.py"))

# (module, name) pairs kept on purpose.  reach imports eval_p unused because
# bench/tracing.py wraps a ("reach", "eval_p") site by name, and resolving it
# needs the attribute.
ALLOWED_UNUSED = {("reach", "eval_p")}


def _read_names(tree: ast.AST) -> set[str]:
    """Every bare name the module reads; a dotted name is read through its root."""
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names bound by the module's top-level imports, with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` functions, classes and assignments, with their lines."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


TREES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_the_package_sources_are_found():
    assert {"cli", "mrays", "optimal", "polynomials", "reach", "simulate", "solve"} <= set(TREES)


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_top_level_import_is_used(module):
    tree = TREES[module]
    read = _read_names(tree)
    unused = [
        (name, line) for name, line in _imported(tree).items()
        if name not in read and (module, name) not in ALLOWED_UNUSED
    ]
    assert not unused, f"{module}: imported but never used: {unused}"


def test_the_allowed_unused_imports_are_still_unused():
    # An exception that no longer applies should go, not linger.
    for module, name in ALLOWED_UNUSED:
        tree = TREES[module]
        assert name in _imported(tree) and name not in _read_names(tree), (module, name)


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_referenced(module):
    # A definition binds its name without reading it.
    tree = TREES[module]
    read = _read_names(tree)
    dead = [(name, line) for name, line in _private_definitions(tree).items() if name not in read]
    assert not dead, f"{module}: private names referenced only where defined: {dead}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_imports_another_modules_private_name(module):
    # At any depth, so the imports inside functions count too.
    imported = [
        (f"{node.module}.{alias.name}", node.lineno)
        for node in ast.walk(TREES[module]) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not imported, f"{module}: imports another module's private names: {imported}"


# Public names that only the unit tests reach, kept on purpose: qualified
# name ("function", "Class" or "Class.method") -> the reason it stays.
ALLOWED_TEST_ONLY: dict[str, str] = {}


def _references(tree: ast.AST) -> Counter:
    """How often each name is read, bare or as an attribute (``x.name``)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def _attributes(tree: ast.AST) -> Counter:
    """How often each name is read as an attribute only."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _public_definitions(tree: ast.Module):
    """(qualified name, node, is a method) for each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def test_no_public_name_is_reached_only_from_tests():
    # A reach counts from the package (outside the definition itself), the
    # benchmark harness, the acceptance tests, or a backticked README name.
    # A method is reached through an attribute only, so that a local
    # variable of the same name does not count for it.
    outside = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
    outside.append(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    readme = {
        word for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
        for word in re.findall(r"[A-Za-z_]\w*", span)
    }
    trees = [*TREES.values(), *outside]
    count = {False: _references, True: _attributes}
    total = {kind: sum(map(refs, trees), Counter()) for kind, refs in count.items()}
    unreached = [
        f"{module}.{qualname}"
        for module, tree in TREES.items()
        for qualname, node, is_method in _public_definitions(tree)
        if total[is_method][node.name] == count[is_method](node)[node.name]
        and node.name not in readme and qualname not in ALLOWED_TEST_ONLY
    ]
    assert not unreached, f"public names only the unit tests reach: {unreached}"
