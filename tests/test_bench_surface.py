"""The benchmark's call surface: every name that `perfbench/*.py` reads from
the package must exist, and every call it makes must bind to the current
signature.  The benchmark files are only parsed, never imported or run, so
this catches a renamed function or a deleted parameter in tier-1 time."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = "hybridgames"


def _surface(tree: ast.AST):
    """(names, calls) of one benchmark file: names are (line, object path)
    pairs such as "hybridgames.cli.parse_game"; calls are (line, object
    path, positional count, keyword names)."""
    modules: dict[str, str] = {}  # local name -> module path
    objects: dict[str, str] = {}  # local name -> object path
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == PACKAGE:
                    modules[a.asname or a.name] = PACKAGE
        elif isinstance(node, ast.ImportFrom) and node.module == PACKAGE:
            for a in node.names:
                path = f"{PACKAGE}.{a.name}"
                try:
                    importlib.import_module(path)
                    modules[a.asname or a.name] = path
                except ImportError:
                    objects[a.asname or a.name] = path

    def target(expr):
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
                and expr.value.id in modules:
            return f"{modules[expr.value.id]}.{expr.attr}"
        if isinstance(expr, ast.Name) and expr.id in objects:
            return objects[expr.id]
        return None

    names, calls = [], []
    for node in ast.walk(tree):
        path = target(node)
        if path is not None:
            names.append((node.lineno, path))
        if isinstance(node, ast.Call):
            path = target(node.func)
            if path is not None:
                npos = sum(not isinstance(a, ast.Starred) for a in node.args)
                kws = tuple(k.arg for k in node.keywords if k.arg is not None)
                calls.append((node.lineno, path, npos, kws))
    names += [(0, path) for path in objects.values()]
    return names, calls


def _resolve(path: str):
    module, _, attr = path.rpartition(".")
    return getattr(importlib.import_module(module), attr)


FILES = sorted(BENCH.glob("*.py"))
SURFACE = {f.name: _surface(ast.parse(f.read_text(), str(f))) for f in FILES}


def test_benchmark_calls_into_the_package():
    assert sum(len(calls) for _, calls in SURFACE.values()) >= 30


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_benchmark_names_resolve_and_calls_bind(name):
    names, calls = SURFACE[name]
    for line, path in names:
        module, _, attr = path.rpartition(".")
        assert hasattr(importlib.import_module(module), attr), \
            f"perfbench/{name}:{line}: {path} does not exist"
    for line, path, npos, kws in calls:
        sig = inspect.signature(_resolve(path))
        try:
            sig.bind_partial(*[None] * npos, **dict.fromkeys(kws))
        except TypeError as exc:
            pytest.fail(f"perfbench/{name}:{line}: {path}{sig} does not "
                        f"take {npos} positional and {list(kws)} keywords: {exc}")
