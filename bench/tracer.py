"""Per-layer counters and spans, installed from outside the program.

`install()` wraps public functions of the sutura layers.  Each wrapper
is also put in place of every other module's reference to the same
function object (`verify` and `sfh` import `partial_leq` by name, for
example), so calls through those names are seen as well.  A span's self
time is its duration minus the time covered by wrapped calls made inside
it.  Untraced runs never import this module.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

CHECKS = {
    "counting": "check_counting",
    "basis_and_bypass": "check_basis_and_triples",
    "operator_algebra": "check_operator_algebra",
    "main_theorem": "check_main_theorem",
    "parity": "check_parity",
    "stackability": "check_stackability",
    "categories": "check_categories",
    "bypass_systems": "check_bypass_systems",
    "rotation": "check_rotation",
    "simplicial": "check_simplicial",
}

# (metric prefix, module, function, quantities reported from the span)
SPANS = [
    ("diagram.euler_class", "diagram", "euler_class", ("calls", "self_s")),
    ("sfh.decompose", "sfh", "decompose", ("calls", "self_s")),
    ("arcs.find_attaching_arcs", "arcs", "find_attaching_arcs", ("calls", "self_s")),
    ("arcs.surgery", "arcs", "surgery", ("calls", "self_s")),
    ("arcs.surgery_along_system", "arcs", "surgery_along_system", ("calls", "self_s")),
    ("arcs.random_system", "arcs", "random_system", ("calls", "self_s")),
    ("arcs.has_pinwheel", "arcs", "has_pinwheel", ("calls", "self_s")),
    ("arcs.fbs", "arcs", "fbs", ("self_s",)),
    ("sfh.from_pair", "sfh", "from_pair", ("calls", "self_s")),
    ("stacking.m_geometric", "stacking", "m_geometric", ("calls", "self_s")),
    ("stacking.m_algebraic", "stacking", "m_algebraic", ("calls", "self_s")),
    ("stacking.bounded_category", "stacking", "bounded_category", ("calls", "self_s")),
    ("words.comparable_pairs", "words", "comparable_pairs", ("calls", "self_s")),
    ("words.interval", "words", "interval", ("calls", "self_s")),
    ("simplicial.verify_double_complex", "simplicial", "verify_double_complex", ("self_s",)),
    ("simplicial.verify_homology_trivial", "simplicial", "verify_homology_trivial", ("self_s",)),
] + [(f"verify.{name}", "verify", fn, ("self_s",)) for name, fn in CHECKS.items()]

CLI_COMMANDS = ("enumerate", "decompose", "frompair", "stack", "category", "render")

UNITS = {"calls": "count", "self_s": "s", "distinct": "count", "hits": "count",
         "misses": "count", "entries": "count", "ratio": "ratio"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for prefix, _mod, _fn, quantities in SPANS:
        out += [(f"{prefix}.{q}", UNITS[q]) for q in quantities]
    out += [
        ("diagram.face_cycles.entries", "count"),
        ("sfh.decompose.entries", "count"),
        ("arcs.find_attaching_arcs.distinct", "count"),
        ("arcs.find_attaching_arcs.ratio", "ratio"),
        ("arcs.nontrivial.ratio", "ratio"),
        ("arcs.fbs.hits", "count"),
        ("arcs.fbs.misses", "count"),
        ("stacking.reachable.hits", "count"),
        ("stacking.reachable.misses", "count"),
        ("words.partial_leq.calls", "count"),
        ("cli.import_s", "s"),
    ]
    out += [(f"cli.{c}.ms", "ms") for c in CLI_COMMANDS]
    out += [("cli.spill.kb", "KB"), ("cli.spill.bytes_read", "B"), ("cli.spill.bytes_written", "B")]
    return out


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._child = [0.0]  # time covered by wrapped calls, one slot per open span
        self.arc_inputs: set = set()
        self.arcs_returned = 0
        self.arcs_nontrivial = 0
        self._fbs = None  # the unwrapped lru_cache, for its hit counts

    def span(self, name, fn, on_call=None):
        calls, self_s, child = self.calls, self.self_s, self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                self_s[name] += took - child.pop()
                child[-1] += took
                calls[name] += 1
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_arcs(self, args, result):
        self.arc_inputs.add(args[0].pairing)
        self.arcs_returned += len(result)
        self.arcs_nontrivial += sum(1 for c in result if c.triviality == "nontrivial")

    def install(self) -> None:
        importlib.import_module("sutura.cli")  # loads every layer
        for prefix, mod, fn, _q in SPANS:
            hook = self._on_arcs if fn == "find_attaching_arcs" else None
            original = self._patch(mod, fn, lambda f, p=prefix, h=hook: self.span(p, f, h))
            if prefix == "arcs.fbs":
                self._fbs = original
        self._patch("words", "partial_leq", lambda f: self.counter("words.partial_leq", f))

    @staticmethod
    def _patch(mod, fn, make):
        original = getattr(sys.modules[f"sutura.{mod}"], fn)
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if name == "sutura" or name.startswith("sutura."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        return original

    def snapshot(self) -> dict:
        """Raw counts of this process, in a form that sums across processes."""
        mods = {m: sys.modules[f"sutura.{m}"] for m in ("diagram", "sfh", "stacking")}
        fbs = self._fbs.cache_info()
        reach = mods["stacking"]._reachable.cache_info()
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "arc_inputs": len(self.arc_inputs),
            "arcs_returned": self.arcs_returned,
            "arcs_nontrivial": self.arcs_nontrivial,
            "fbs_hits": fbs.hits,
            "fbs_misses": fbs.misses,
            "reachable_hits": reach.hits,
            "reachable_misses": reach.misses,
            "face_cycles_entries": mods["diagram"]._face_cycles.cache_info().currsize,
            "decompose_entries": len(mods["sfh"]._decompose_cache),
        }


SUMMED = ("arc_inputs", "arcs_returned", "arcs_nontrivial", "fbs_hits", "fbs_misses",
          "reachable_hits", "reachable_misses")
LARGEST = ("face_cycles_entries", "decompose_entries")


def merge(snapshots: list[dict]) -> dict:
    """Sum counts and times over processes; memo sizes take the largest."""
    out = {"calls": Counter(), "self_s": defaultdict(float)}
    for s in snapshots:
        out["calls"].update(s["calls"])
        for k, v in s["self_s"].items():
            out["self_s"][k] += v
    for k in SUMMED:
        out[k] = sum(s[k] for s in snapshots)
    for k in LARGEST:
        out[k] = max((s[k] for s in snapshots), default=0)
    return out


def layer_metrics(merged: dict, cli: dict | None = None) -> dict:
    """Every per-layer metric; cli holds the figures measured around commands."""
    calls, self_s = merged["calls"], merged["self_s"]
    attach = calls.get("arcs.find_attaching_arcs", 0)
    values = {}
    for prefix, _mod, _fn, quantities in SPANS:
        if "calls" in quantities:
            values[f"{prefix}.calls"] = calls.get(prefix, 0)
        values[f"{prefix}.self_s"] = self_s.get(prefix, 0.0)
    values.update({
        "diagram.face_cycles.entries": merged["face_cycles_entries"],
        "sfh.decompose.entries": merged["decompose_entries"],
        "arcs.find_attaching_arcs.distinct": merged["arc_inputs"],
        "arcs.find_attaching_arcs.ratio": merged["arc_inputs"] / attach if attach else 0.0,
        "arcs.nontrivial.ratio": (
            merged["arcs_nontrivial"] / merged["arcs_returned"] if merged["arcs_returned"] else 0.0
        ),
        "arcs.fbs.hits": merged["fbs_hits"],
        "arcs.fbs.misses": merged["fbs_misses"],
        "stacking.reachable.hits": merged["reachable_hits"],
        "stacking.reachable.misses": merged["reachable_misses"],
        "words.partial_leq.calls": calls.get("words.partial_leq", 0),
    })
    cli = cli or {}
    values["cli.import_s"] = cli.get("import_s", 0.0)
    for c in CLI_COMMANDS:
        values[f"cli.{c}.ms"] = cli.get(f"{c}.ms", 0.0)
    for k in ("kb", "bytes_read", "bytes_written"):
        values[f"cli.spill.{k}"] = cli.get(f"spill.{k}", 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}
