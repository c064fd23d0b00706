"""Source hygiene of the package, read with `ast`.

Every name a module imports at module level is used in that module
(`__init__.py`, which imports to re-export, excepted), and every
module-level private name is referenced somewhere in the package outside
its own definition.  Both catch what a simplification leaves behind: an
import whose last use went, or a helper nothing calls any more.  Every
module also compiles with warnings as errors: a SyntaxWarning such as the
one for `x is 0` would otherwise only show on a command's stderr.  The
lowering constructions import neither `bisim` nor `chain`, only the
solver imports `gc`, and only the solver reads the region graph's
node-keyed views.  No module reads a private `Fraction` attribute or passes
the constructor's private keyword, which differ between Python releases.
One check imports the package: no name it exports hides a module of the
same name.  Every public def, class, method and property of the package
is read outside its own definition by a module of the package, a file of
`perfbench/` or README's code, so no surface is kept that only tests read;
the entry points that only tests call are listed, each with its reason.

`lowering.py` holds the constructions of what were three modules.  The
per-module checks also run on each of those parts under the name of the
module it was, so each construction keeps a case of its own.  A part's
imports are the shared ones cut down to the names it reads, so on a part
the unused-import half of the import check holds by construction and the
other half does the work: every name a module or part reads is bound.
"""

import ast
import builtins
import copy
import importlib
import inspect
import re
import warnings
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hybridgames"
SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in sorted(SRC.glob("*.py"))}
MODULES = {name: ast.parse(text) for name, text in SOURCES.items()}


def _imported(tree: ast.Module) -> list[str]:
    """The names bound by the module's top-level imports."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
    return out


def _reads(node: ast.AST) -> Counter:
    """How often `node` reads each name: bare names, attribute names and
    the names of `from ... import` statements."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


def _referenced(node: ast.AST) -> set[str]:
    """Every name read in `node`."""
    return set(_reads(node))


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


def _unbound(tree: ast.Module, outside: set[str]) -> list[str]:
    """The names read in `tree` that nothing in it, `outside` or the
    builtins binds.  Scopes are not told apart, so a name bound in one
    function and read in another passes."""
    bound = set(dir(builtins)) | {"__file__"} | outside
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            bound.add(sub.id)
        elif isinstance(sub, ast.arg):
            bound.add(sub.arg)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.ExceptHandler)):
            bound.add(sub.name)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in sub.names}
    return sorted({sub.id for sub in ast.walk(tree)
                   if isinstance(sub, ast.Name)
                   and isinstance(sub.ctx, ast.Load)} - bound)


# the top-level defs of lowering.py, by the module each came from
LOWERING_PARTS = {
    "to_stopwatch.py": {"to_stopwatch"},
    "to_updatable.py": {"unfold", "annotate_resets", "pinned_values",
                        "to_updatable"},
    "to_timed.py": {"to_timed", "_shift"},
}


def _part(module: str) -> ast.Module:
    """The part of lowering.py that `module` names: its defs, after the
    import statements cut down to the names the defs read."""
    body = MODULES["lowering.py"].body
    defs = [stmt for stmt in body if _defined(stmt) & LOWERING_PARTS[module]]
    read = set().union(*map(_referenced, defs))
    imports = []
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names = [a for a in stmt.names
                     if (a.asname or a.name).split(".")[0] in read]
            if names:
                imports.append(copy.copy(stmt))
                imports[-1].names = names
    return ast.Module(imports + defs, [])


def _unit(module: str) -> ast.Module:
    """A module's tree, or the tree of a part of lowering.py."""
    return _part(module) if module in LOWERING_PARTS else MODULES[module]


def test_lowering_parts_cover_the_module():
    parts = [name for names in LOWERING_PARTS.values() for name in names]
    defined = [name for stmt in MODULES["lowering.py"].body
               if not isinstance(stmt, (ast.Import, ast.ImportFrom))
               for name in _defined(stmt)]
    assert sorted(parts) == sorted(defined)


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}
                                           | set(LOWERING_PARTS)))
def test_every_import_is_used(module):
    tree = _unit(module)
    used = set()
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            used |= _referenced(stmt)
    assert [name for name in _imported(tree) if name not in used] == []
    # a part reads the names lowering.py's other parts define
    outside = ({name for stmt in MODULES["lowering.py"].body
                for name in _defined(stmt)}
               if module in LOWERING_PARTS else set())
    assert _unbound(tree, outside) == []


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


@pytest.mark.parametrize("module", sorted(LOWERING_PARTS))
def test_constructions_import_no_relation(module):
    # `chain.LOWERINGS` is the one place that pairs a construction with its
    # relation, so no construction imports either side of it
    assert _import_parts(_part(module)) & {"bisim", "chain"} == set()


def test_every_module_imports_as_itself():
    # `import hybridgames.<m> as m` binds the package's attribute m, which a
    # name the package re-exports under the module's own name would hide
    package = importlib.import_module("hybridgames")
    hidden = []
    for module in sorted(set(MODULES) - {"__init__.py"}):
        name = module.removesuffix(".py")
        importlib.import_module(f"hybridgames.{name}")
        if not inspect.ismodule(getattr(package, name)):
            hidden.append(module)
    assert hidden == []


def test_only_the_solver_imports_gc():
    # the region build and verify_chain pause the cyclic collector through
    # the solver's one helper, which restores it; no other module switches
    # or tunes it
    assert [module for module, tree in MODULES.items()
            if "gc" in _import_parts(tree)] == ["solver.py"]


# the region graph's named tuples and the views keyed by them, kept for
# readers outside the package
REGION_TUPLES = {"RegionNode", "RegionMove"}
REGION_VIEWS = {"nodes", "moves", "successor"}


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py",
                                                          "solver.py"}
                                           | set(LOWERING_PARTS)))
def test_reads_region_graphs_on_ids(module):
    # outside the solver, the package reads a region graph and a solve on
    # node and move ids: it names neither tuple and reads no view
    tree = _unit(module)
    attrs = {sub.attr for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)}
    assert sorted((_referenced(tree) & REGION_TUPLES) | (attrs & REGION_VIEWS)) == []


@pytest.mark.parametrize("module", sorted(set(MODULES) | set(LOWERING_PARTS)))
def test_compiles_without_warnings(module):
    # a part compiles from the lines of its defs in lowering.py
    source = ("\n\n".join(ast.get_source_segment(SOURCES["lowering.py"], stmt)
                          for stmt in _part(module).body
                          if not isinstance(stmt, (ast.Import, ast.ImportFrom)))
              if module in LOWERING_PARTS else SOURCES[module])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(source, str(SRC / module), "exec")


# the entry points that only tests call, each kept for what it is
ONLY_TESTS_READ = {
    "core.py:flavor_within",                # check 2 of the release gate
    "bisim.py:replay_counterexample",       # the replay contract of a counterexample
    "granular.py:granular_witness_check",   # check 5 of the release gate
    "strategy.py:check_trace_inclusion",    # check 7 of the release gate
    "samples.py:small_timed",               # the source of sample_games/dispatcher.json
}


def _public_members(tree: ast.Module):
    """The module's public top-level defs and classes, and the public
    methods and properties of its classes, as (qualified name, node)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for stmt in tree.body:
        if isinstance(stmt, (*defs, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, defs) and not sub.name.startswith("_"):
                    yield f"{stmt.name}.{sub.name}", sub


def test_every_public_member_has_a_reader():
    # `__init__.py` only re-exports, so it reads nothing; README is read
    # for the names in its code blocks and inline code
    root = SRC.parent.parent
    reads = Counter()
    for module, tree in MODULES.items():
        if module != "__init__.py":
            reads += _reads(tree)
    for path in sorted((root / "perfbench").glob("*.py")):
        reads += _reads(ast.parse(path.read_text(encoding="utf-8")))
    readme = (root / "README.md").read_text(encoding="utf-8")
    shown = set(re.findall(r"\w+", " ".join(
        re.findall(r"```.*?```|`[^`\n]*`", readme, re.S))))
    unread = []
    for module, tree in MODULES.items():
        for qualified, node in _public_members(tree):
            name = qualified.rpartition(".")[2]
            if name not in shown and reads[name] <= _reads(node)[name]:
                unread.append(f"{module}:{qualified}")
    assert sorted(unread) == sorted(ONLY_TESTS_READ)


# Fraction's private slots and the private ways to skip normalising: 3.12
# replaced the constructor's keyword by a classmethod, and the package is
# built for 3.10 to 3.13, so exact values go through the public two-int form
FRACTION_PRIVATE = {"_numerator", "_denominator", "_normalize",
                    "_from_coprime_ints"}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_reads_no_private_fraction_attribute(module):
    found = set()
    for sub in ast.walk(MODULES[module]):
        if isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.keyword):
            found.add(sub.arg)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    assert sorted(found & FRACTION_PRIVATE) == []
