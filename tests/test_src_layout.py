"""The package holds only what ``blockcache`` runs: every module-level
function and class in ``src/blockcache``, and every method of those classes
other than a dunder, is referenced somewhere in the package beyond its own
definition.  So is every module-level name assignment, where an import by
the benchmark in ``bench/*.py`` also counts as a use.  Test-only
references belong in ``tests/reference.py``.  The package imports only the
standard library and its own modules."""

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blockcache"


def references(tree: ast.AST) -> Counter:
    """How often each name is read, accessed as an attribute or imported."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
    return refs


def test_every_definition_is_used_in_the_package():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    everywhere = sum((references(tree) for tree in trees), Counter())
    unused = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and everywhere[node.name] == references(node)[node.name]
    ]
    assert unused == []


def test_every_method_is_used_in_the_package():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    everywhere = sum((references(tree) for tree in trees), Counter())
    unused = [
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and everywhere[node.name] == references(node)[node.name]
    ]
    assert unused == []


def bench_imports() -> Counter:
    """How often each name is imported from ``blockcache`` in ``bench/*.py``."""
    refs = Counter()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("blockcache"):
                refs.update(alias.name for alias in node.names)
    return refs


def assigned_names(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Each name a module-level assignment binds, with its statement."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return names


def unused_assignments(sources: list[str], bench: Counter) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    everywhere = sum((references(tree) for tree in trees), Counter()) + bench
    return [
        name
        for tree in trees
        for name, node in assigned_names(tree)
        if everywhere[name] == references(node)[name]
    ]


def test_every_module_level_assignment_is_used():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unused_assignments(sources, bench_imports()) == []


def test_an_orphaned_constant_is_found():
    # a constant that nothing reads is reported; one that the benchmark
    # imports, as it imports check_feasible_full, is not
    source = "NO_FLUSH = -2\nUSED = 1\nALIAS = len\n\n\ndef f():\n    return USED\n"
    assert unused_assignments([source], Counter()) == ["NO_FLUSH", "ALIAS"]
    assert unused_assignments([source], Counter({"ALIAS": 1})) == ["NO_FLUSH"]
    assert bench_imports()["check_feasible_full"] >= 1


def imports_outside(source: str, siblings: set[str]) -> list[str]:
    """Each module that ``source`` imports other than a standard-library
    module or, by a relative import, one of ``siblings``."""
    outside = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names, known = [alias.name for alias in node.names], sys.stdlib_module_names
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            known = siblings
        elif isinstance(node, ast.ImportFrom):
            names, known = [node.module], sys.stdlib_module_names
        else:
            continue
        outside += [name for name in names if name.split(".")[0] not in known]
    return outside


def test_the_package_imports_only_the_standard_library():
    # the runtime has no dependencies: each absolute import names a
    # standard-library module and each relative one a module of the package
    siblings = {path.stem for path in PACKAGE.glob("*.py")}
    outside = {
        path.name: imports_outside(path.read_text(), siblings)
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in outside.items() if found} == {}
    source = (
        "import os, numpy.linalg\nfrom scipy import sparse\nfrom .cli import main\n"
        "from . import rounding, extra\nfrom ..other import x\n"
    )
    found = imports_outside(source, {"cli", "rounding"})
    assert found == ["numpy.linalg", "scipy", "extra", "other"]
