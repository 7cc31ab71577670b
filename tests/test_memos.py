"""Every answer is a pure function of a diagram or a word, so production
keeps a memo only where it pays: the functools caches of the package are
exactly these, at these bounds, and a verification run leaves no other
module-level state behind."""

import importlib
import pkgutil

import sutura
from sutura import arcs, oracles, sfh, verify

MEMOS = {
    "sfh._creation_fold": None,
    "arcs._arc_signatures": None,
    "arcs.generalised_arc": None,
    "stacking._reachable": None,
    "oracles.narayana_recursive": None,
    "oracles.rotation_matrix": None,
    "diagram._face_cycles": 65536,
    # keeps nothing; bench/tracer.py reads its cache_info()
    "arcs.fbs": 0,
}


def _modules():
    return [importlib.import_module(f"sutura.{m.name}") for m in pkgutil.iter_modules(sutura.__path__)]


def _module_dicts():
    """Each module-level dict of the package, by owner and name, with its items."""
    return {
        f"{mod.__name__}.{name}": dict(value)
        for mod in _modules()
        for name, value in vars(mod).items()
        if isinstance(value, dict) and not name.startswith("__")
    }


def test_memo_inventory():
    found = {
        f"{mod.__name__.rpartition('.')[2]}.{name}": value.cache_parameters()["maxsize"]
        for mod in _modules()
        for name, value in vars(mod).items()
        # an imported cache belongs to the module that defines it
        if hasattr(value, "cache_parameters") and value.__module__ == mod.__name__
    }
    assert found == MEMOS


def test_verification_leaves_no_module_state():
    before = _module_dicts()
    results = verify.run_verification("quick", 0)
    assert all(r.passed for r in results)
    assert arcs.fbs.cache_info().currsize == 0
    assert sfh._decompose_cache == {}
    # the oracles' one module-level dict is a constant table, not a memo
    assert [k for k in before if k.startswith("sutura.oracles.")] == [
        "sutura.oracles._PINWHEEL_TRAVERSAL"
    ]
    assert _module_dicts() == before
