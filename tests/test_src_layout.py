"""The package holds only what ``blockcache`` runs: every module-level
function and class in ``src/blockcache``, and every method of those classes
other than a dunder, is referenced somewhere in the package beyond its own
definition.  So is every module-level name assignment, where an import by
the benchmark in ``bench/*.py`` also counts as a use.  Test-only
references belong in ``tests/reference.py``.  The package imports only the
standard library and its own modules.  Every module-level numeric constant
states its reason in a comment, on its own line or the line above."""

import ast
import io
import sys
import tokenize
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


def is_numeric(node: ast.AST) -> bool:
    """True for a number or arithmetic on numbers alone, such as 10**7."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.UnaryOp):
        return is_numeric(node.operand)
    if isinstance(node, ast.BinOp):
        return is_numeric(node.left) and is_numeric(node.right)
    return False


def numeric_constants(source: str) -> list[tuple[str, ast.AST]]:
    """Each module-level name bound to a number, with its statement."""
    return [(name, node) for name, node in assigned_names(ast.parse(source))
            if is_numeric(node.value)]


def unexplained_constants(source: str) -> list[str]:
    """Each module-level numeric constant with no comment on its own line
    and no comment line just above it."""
    comments = [
        tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    ]
    on_line = {tok.start[0] for tok in comments}
    alone = {tok.start[0] for tok in comments if tok.line.lstrip().startswith("#")}
    return [
        name
        for name, node in numeric_constants(source)
        if node.lineno not in on_line and node.lineno - 1 not in alone
    ]


def test_every_numeric_constant_states_its_reason():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    names = {name for source in sources.values() for name, _node in numeric_constants(source)}
    assert {"COST_EPS", "DP_MOVE_LIMIT", "TRACE_BATCH"} <= names
    unexplained = {name: unexplained_constants(source) for name, source in sources.items()}
    assert {name: found for name, found in unexplained.items() if found} == {}
    # a trailing comment explains only its own line
    source = (
        "# a reason\nA = 1\nB = 2.0  # a reason\nC = -3\n\nD = 10**7\n"
        "# a reason\nE = 2 * A\nF = 'text'\n"
    )
    assert unexplained_constants(source) == ["C", "D"]


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
