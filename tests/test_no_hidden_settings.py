"""Every value a caller can set is one the package reads as given: no
function or method takes a parameter whose name starts with "_" (a flag
that skips a check belongs in a private builder, such as
ChordDiagram._of), and no namedtuple record declares defaults (a field
left out would hold a value that need not agree with the rest)."""

import ast
import pathlib

import sutura

ROOT = pathlib.Path(sutura.__file__).parent


def _trees():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT), ast.parse(path.read_text(), str(path))


def _parameters(fn: ast.arguments):
    yield from (*fn.posonlyargs, *fn.args, *fn.kwonlyargs)
    yield from (a for a in (fn.vararg, fn.kwarg) if a is not None)


def test_no_parameter_is_private():
    found = [
        f"{path}:{node.lineno} {node.name}({arg.arg})"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in _parameters(node.args)
        if arg.arg.startswith("_")
    ]
    assert found == []


def _is_namedtuple(func: ast.expr) -> bool:
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "namedtuple"


def test_no_record_has_defaults():
    found = [
        f"{path}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _is_namedtuple(node.func)
        if any(k.arg == "defaults" for k in node.keywords)
    ]
    assert found == []
