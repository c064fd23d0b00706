"""Source hygiene of the package, read with `ast` alone.

Every name a module imports at module level is used in that module
(`__init__.py`, which imports to re-export, excepted), and every
module-level private name is referenced somewhere in the package outside
its own definition.  Both catch what a simplification leaves behind: an
import whose last use went, or a helper nothing calls any more.  Every
module also compiles with warnings as errors: a SyntaxWarning such as the
one for `x is 0` would otherwise only show on a command's stderr.  The
lowering constructions import neither `bisim` nor `chain`, only the
solver imports `gc`, and only the solver reads the region graph's
node-keyed views.
"""

import ast
import warnings
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hybridgames"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def _imported(tree: ast.Module) -> list[str]:
    """The names bound by the module's top-level imports."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
    return out


def _referenced(node: ast.AST) -> set[str]:
    """Every name read in `node`: bare names, attribute names and the
    names of `from ... import` statements."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


def _defined(stmt: ast.stmt) -> set[str]:
    """The names a top-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {sub.id for t in targets for sub in ast.walk(t)
            if isinstance(sub, ast.Name)}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = MODULES[module]
    used = set()
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            used |= _referenced(stmt)
    assert [name for name in _imported(tree) if name not in used] == []


def test_every_private_name_is_referenced():
    # a statement's reference to a name it defines itself (recursion, or
    # the assignment's own target) does not count
    referenced = set()
    for tree in MODULES.values():
        for stmt in tree.body:
            referenced |= _referenced(stmt) - _defined(stmt)
    unreferenced = [f"{module}:{name}" for module, tree in MODULES.items()
                    for stmt in tree.body for name in sorted(_defined(stmt))
                    if _is_private(name) and name not in referenced]
    assert unreferenced == []


def _import_parts(tree: ast.Module) -> set[str]:
    """Every part of every dotted name an import anywhere in the module
    names, nested imports included."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= set((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {part for a in node.names for part in a.name.split(".")}
    return imported


@pytest.mark.parametrize("module", ["to_stopwatch.py", "to_updatable.py",
                                    "to_timed.py"])
def test_constructions_import_no_relation(module):
    # `chain.LOWERINGS` is the one place that pairs a construction with its
    # relation, so the construction modules import neither side of it
    assert _import_parts(MODULES[module]) & {"bisim", "chain"} == set()


def test_only_the_solver_imports_gc():
    # the region build pauses the cyclic collector and restores it; no
    # other module switches or tunes it
    assert [module for module, tree in MODULES.items()
            if "gc" in _import_parts(tree)] == ["solver.py"]


# the region graph's named tuples and the views keyed by them, kept for
# readers outside the package
REGION_TUPLES = {"RegionNode", "RegionMove"}
REGION_VIEWS = {"nodes", "moves", "successor", "strategy_ids"}


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py",
                                                          "solver.py"}))
def test_reads_region_graphs_on_ids(module):
    # outside the solver, the package reads a region graph and a solve on
    # node and move ids: it names neither tuple and reads no view
    tree = MODULES[module]
    attrs = {sub.attr for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)}
    assert sorted((_referenced(tree) & REGION_TUPLES) | (attrs & REGION_VIEWS)) == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_compiles_without_warnings(module):
    path = SRC / module
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
