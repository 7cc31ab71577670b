"""Production code holds only what the command line, verify or the package
API reaches.  Every function and method in src/sutura, oracles.py aside
(its routes are verify's, and test_oracle_home keeps them there), must be
reached by name from the roots: the `sutura` entry point cli.main, the
names sutura/__init__.py exports, dunder methods and the short allow-list
below.  A function reaches every name it reads, as a variable or as an
attribute, except the variables it binds itself (its arguments, locals
and nested definitions); a module-level or class-level assignment
reaches the names in its value once its target is reached.  Code that
only tests call lives in the tests."""

import ast
import pathlib
import sys

import sutura

SRC = pathlib.Path(sutura.__file__).parent

# name -> why it is a root although nothing in the package reaches it
ALLOWED: dict[str, str] = {}


def _refs(node: ast.AST) -> set[str]:
    """Every name a node reads, as a variable or as an attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _reads(fn: ast.AST) -> set[str]:
    """Every name a function reads, less the variables it binds itself: a
    local that shares its name with a function reaches nothing.  An import
    inside the function is a read of what it imports."""
    bound = {n.arg for n in ast.walk(fn) if isinstance(n, ast.arg)}
    for n in ast.walk(fn):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            bound.add(n.id)
        elif n is not fn and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(n.name)
    out = set()
    for n in ast.walk(fn):
        if isinstance(n, ast.Name) and n.id not in bound:
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def _scan():
    """(defs, roots): defs maps each name a module or class binds by def or
    assignment to (qualified name, the names it reads, whether it is a
    function); roots holds the names read by code that runs on import."""
    defs: dict[str, list[tuple[str, set[str], bool]]] = {}
    roots = set()

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append((prefix + node.name, _reads(node), True))
                roots.update(*map(_refs, node.decorator_list))
            elif isinstance(node, ast.ClassDef):
                roots.update(*map(_refs, node.bases + node.decorator_list))
                visit(node.body, prefix + node.name + ".")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = _refs(node.value) if node.value is not None else set()
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            defs.setdefault(n.id, []).append((prefix + n.id, value, False))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.update(_refs(node))

    for path in sorted(SRC.glob("*.py")):
        if path.name != "oracles.py":
            visit(ast.parse(path.read_text(), str(path)).body, path.stem + ".")
    return defs, roots


def _exports() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}


def _unreached() -> list[str]:
    defs, roots = _scan()
    dunders = {name for name in defs if name.startswith("__") and name.endswith("__")}
    reached = roots | {"main"} | _exports() | dunders | set(ALLOWED)
    todo = list(reached)
    while todo:
        for _qual, reads, _function in defs.get(todo.pop(), ()):
            new = reads - reached
            reached |= new
            todo += new
    return sorted(
        qual
        for name, entries in defs.items()
        if name not in reached
        for qual, _reads, function in entries
        if function
    )


def test_every_production_function_is_reached():
    assert _unreached() == []


def test_the_allow_list_is_short_and_current():
    defs, _roots = _scan()
    assert len(ALLOWED) <= 3
    assert set(ALLOWED) <= set(defs)


def test_an_unreached_function_is_found(tmp_path, monkeypatch):
    # the scan is live: a copy of the package with one orphan function fails,
    # also when a reached function (dunder names are roots) binds a local
    # that shares the orphan's name
    orphan = "\n\ndef orphan(w):\n    return w\n"
    shadow = "\n\ndef __reader__(w):\n    orphan = w\n    return orphan\n"
    package = SRC
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    for extra in (orphan, orphan + shadow):
        for path in package.glob("*.py"):
            (tmp_path / path.name).write_text(path.read_text())
        with open(tmp_path / "words.py", "a") as f:
            f.write(extra)
        assert _unreached() == ["words.orphan"], extra
