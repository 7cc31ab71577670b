"""The package names a chord by one of its points, never by its position
in ChordDiagram.chords(): no module, diagram.py included, enumerates that
list, indexes it or looks a chord up in it."""

import ast
import pathlib

import sutura


def _is_chords_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "chords"


def _position_reads(tree: ast.AST) -> list[int]:
    """Lines that take a position of a chords() list, called in place or
    through a name bound to it: enumerate over it, a subscript or .index."""
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs += zip(target.elts, node.value.elts)
                else:
                    pairs.append((target, node.value))
    bound = {t.id for t, v in pairs if isinstance(t, ast.Name) and _is_chords_call(v)}

    def is_list(node: ast.AST) -> bool:
        return _is_chords_call(node) or (isinstance(node, ast.Name) and node.id in bound)

    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "enumerate"
            and any(is_list(a) for a in node.args)
        )
        or (isinstance(node, ast.Subscript) and is_list(node.value))
        or (isinstance(node, ast.Attribute) and node.attr == "index" and is_list(node.value))
    )


def test_the_scan_sees_each_form():
    source = """
for si, (a, b) in enumerate(d.chords()):
    pass
x = d.chords()[0]
faces, chords, m = f, d.chords(), 2
y = chords[si]
z = chords.index(c)
for a, b in d.chords():
    pass
"""
    assert _position_reads(ast.parse(source)) == [2, 4, 6, 7]


def test_no_module_takes_chord_positions():
    root = pathlib.Path(sutura.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(root.glob("*.py"))
        for line in _position_reads(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
