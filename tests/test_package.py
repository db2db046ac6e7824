"""Package surface: every exported name resolves, and bad input raises the toolkit's types."""

import ast
import builtins
import importlib
import pkgutil
from pathlib import Path

import pytest

import viscowave

MODULES = ["viscowave"] + [f"viscowave.{m.name}" for m in pkgutil.iter_modules(viscowave.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A name left in __all__ after its deletion breaks ``from module import *``.
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


BUILTIN_ERRORS = {
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}
# Raises of a builtin exception still allowed, as (file, enclosing function).
PLAIN_RAISES = {("grid.py", "VectorField.__post_init__"), ("grid.py", "sobolev_seminorm")}


def builtin_raises(path: Path) -> set[tuple[str, str]]:
    """``(file, qualified function)`` of every ``raise`` of a builtin exception class in ``path``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
                found.add((path.name, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_bad_input_raises_a_toolkit_error():
    # Every raise in the library names a type from viscowave.exceptions, so a
    # caller can catch ViscowaveError; the allowed plain raises are listed,
    # and an entry that no longer raises one must leave the list.
    files = sorted(Path(viscowave.__file__).parent.glob("*.py"))
    assert set().union(*(builtin_raises(path) for path in files)) == PLAIN_RAISES
