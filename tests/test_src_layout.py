"""The package holds only what ``blockcache`` runs: every module-level
function and class in ``src/blockcache``, and every method of those classes
other than a dunder, is referenced somewhere in the package beyond its own
definition.  Test-only references belong in ``tests/reference.py``."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blockcache"


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
