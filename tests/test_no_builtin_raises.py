"""Every error the package raises is a SuturaError, so callers (and the
CLI, which maps SuturaError to exit code 1) can catch the package's
errors by one class; a built-in exception raised by name would escape."""

import ast
import builtins
import pathlib

import sutura


def _raises_builtin(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
    return isinstance(cls, type) and issubclass(cls, BaseException)


def test_no_builtin_exception_is_raised_in_the_package():
    root = pathlib.Path(sutura.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and _raises_builtin(node)
    ]
    assert found == []
