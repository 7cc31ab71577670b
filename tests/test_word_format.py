"""The storage of a Word is read, sliced or joined only in words.py, so the
format of words can change in one module: every other module reads words
through Word.n, Word.n_plus, Word.bits and Word.positions, edits them
through Word.insert and Word.delete, and builds them with words.from_mask."""

import ast
import pathlib

import sutura
from sutura.words import Word

# the slots a Word keeps besides its two letter counts
STORAGE = set(Word.__slots__) - {"n", "n_plus"}


def _is_bits(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "bits"


def _touches_storage(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in STORAGE
    if isinstance(node, ast.Subscript):
        return _is_bits(node.value) and isinstance(node.slice, ast.Slice)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _is_bits(node.left) or _is_bits(node.right)
    return False


def storage_uses(root: pathlib.Path) -> list[str]:
    """Places outside words.py that read the storage or edit the bit tuple."""
    return [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        if path.name != "words.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _touches_storage(node)
    ]


def test_word_storage_is_one_key():
    assert STORAGE == {"_key"}


def test_only_words_edits_word_bits():
    assert storage_uses(pathlib.Path(sutura.__file__).parent) == []
