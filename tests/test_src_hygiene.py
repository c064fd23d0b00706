"""Source hygiene of the package, read with `ast` alone.

Every name a module imports at module level is used in that module
(`__init__.py`, which imports to re-export, excepted), and every
module-level private name is referenced somewhere in the package outside
its own definition.  Both catch what a simplification leaves behind: an
import whose last use went, or a helper nothing calls any more.
"""

import ast
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
