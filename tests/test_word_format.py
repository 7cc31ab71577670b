"""The bit tuple of a Word is sliced or joined only in words.py, so the
storage format of words can change in one module: every other module edits
words through Word.positions, Word.insert and Word.delete."""

import ast
import pathlib

import sutura


def _is_bits(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "bits"


def _edits_bits(node) -> bool:
    if isinstance(node, ast.Subscript):
        return _is_bits(node.value) and isinstance(node.slice, ast.Slice)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_bits(node.left) or _is_bits(node.right)
    return False


def test_only_words_edits_word_bits():
    root = pathlib.Path(sutura.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        if path.name != "words.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _edits_bits(node)
    ]
    assert found == []
