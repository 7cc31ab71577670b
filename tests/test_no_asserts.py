"""Invariants that guard answers must hold under `python -O`, which strips
every `assert` statement, so the package raises errors instead."""

import ast
import pathlib

import sutura


def test_no_assert_statements_in_the_package():
    root = pathlib.Path(sutura.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
