"""The paper's independent routes live in sutura/oracles.py, and only verify
imports them, so one module decides which route is production and which
an oracle, and no oracle sits on a hot path."""

import ast
import pathlib

import sutura

SRC = pathlib.Path(sutura.__file__).parent

# every route kept as an oracle, and its helpers
ORACLES = {
    "partial_leq_baseball",
    "narayana_recursive",
    "count_monotone",
    "decompose_from_root",
    "_decompose_root_pairing",
    "root_walk",
    "rotation_closed_form",
    "_blocks",
    "rotation_matrix",
    "_after_minuses",
    "rotation_by_matrix",
    "boundary_closed_form",
    "up_moves_by_arcs",
    "minimal_subsystem_by_deletion",
    "has_pinwheel_by_regions",
    "system_regions",
    "planar_by_euler_count",
    "_is_pinwheel",
    "_PINWHEEL_TRAVERSAL",
    "brute_force_category",
    "diagram_exists_in",
    "morphism_exists_nested",
}
# names folded into an oracle, deleted with the route they served or as a
# second copy of a production route, or moved to the tests because only
# tests called them
GONE = {
    "apply_operator",
    "_a_plus_diag",
    "_a_minus_diag",
    "Region",
    "face_cycles",
    "_segments_cross",
    "prefix_sums",
    "rotation_explicit",
    "nontrivial_arcs",
    "base_construction",
    "root_construction",
    "ConstructionData",
    "base_numbered_chord",
    "_from_pair_cached",
    "_tree_path",
    "_west_position_end",
    "_placement_key",
    "path_faces",
    "f1_side",
    "_minimal_subsystem",
    "arc_to_system",
    "arc_is_inner",
    "surgery_step",
    "induced_arc",
    "single_arc_system",
    "strands",
    "chord_index",
    "partner",
    "minimum_word",
    "maximum_word",
    "face",
    "degeneracy",
    "_slot_map",
    "_grading_of",
    "ChainSlot",
    "_basis_reading",
    "fa_indices",
    "rotation_geometric",
    "rotation_explicit_word",
    "basis_diagram_from_root",
    "_decompose_root_cache",
    "Faces",
    "_facing",
    "_chords_between",
    "LEFT",
    "RIGHT",
}


def _tree(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(), str(path))


def _imports_oracles(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "oracles" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "oracles":
                return True
            if any(a.name == "oracles" for a in node.names):
                return True
    return False


def _bound_names(tree: ast.AST) -> set[str]:
    """Names a module defines or binds: functions, methods, classes,
    assignments and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def test_only_verify_imports_the_oracles():
    importers = sorted(p.name for p in SRC.glob("*.py") if _imports_oracles(_tree(p)))
    assert importers == ["verify.py"]


def test_every_oracle_is_defined_in_oracles_only():
    assert ORACLES <= _bound_names(_tree(SRC / "oracles.py"))
    strays = {
        f"{p.name}: {name}"
        for p in SRC.glob("*.py")
        if p.name != "oracles.py"
        for name in _bound_names(_tree(p)) & (ORACLES | GONE)
    }
    assert strays == set()
    assert not _bound_names(_tree(SRC / "oracles.py")) & GONE
    # basis diagrams come from the creation fold in sfh, and the module of
    # the point walks stays gone
    assert not (SRC / "basis.py").exists()
