"""The benchmark's tracer (bench/tracer.py) wraps program functions by
name and reads the cache statistics of some of them, so a rename or a
dropped cache breaks the traced benchmark run; and its census worker
checks every row against its own oracles.  This keeps both in tier-1."""

import json
import os
import subprocess
import sys

import sutura

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(sutura.__file__)))
BENCH = os.path.join(os.path.dirname(ROOT), "bench")

SCRIPT = """
import json
import tracer
from sutura import verify

t = tracer.Tracer()
t.install()
results = verify.run_verification("quick", 0)
snap = t.snapshot()
print(json.dumps({
    "failed": [r.name for r in results if not r.passed],
    "spans": [prefix for prefix, _mod, _fn, _q in tracer.SPANS],
    "calls": snap["calls"],
    "self_s": snap["self_s"],
}))
"""


def test_tracer_installs_and_sees_every_span():
    path = os.pathsep.join((ROOT, BENCH))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["failed"] == []
    silent = [p for p in out["spans"] if not out["calls"].get(p) and not out["self_s"].get(p)]
    assert silent == []


CATEGORIES = """
import json
import tracer
from sutura import verify

t = tracer.Tracer()
t.install()
problems = verify.check_categories(3, 3)
print(json.dumps({"problems": problems, "calls": t.snapshot()["calls"]}))
"""


def test_categories_search_makes_no_arc_surgery():
    # the bounded-category search moves by chord triples (arcs.up_moves),
    # so the traced arc calls are the check's own over the 1 + 2 + 5
    # diagrams with N <= 3: find_attaching_arcs once each for the bypass
    # cobordisms, whose tops are the arc route that up_moves is checked
    # against, and surgery once per nontrivial class: 3, where the
    # arc-class search alone made 49
    path = os.pathsep.join((ROOT, BENCH))
    proc = subprocess.run(
        [sys.executable, "-c", CATEGORIES],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["problems"] == []
    assert out["calls"]["arcs.find_attaching_arcs"] == 8
    assert out["calls"]["stacking.bounded_category"] == 33
    assert out["calls"]["arcs.surgery"] == 3


def _census(inputs, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "census", str(inputs), str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["attempted"] == 132
    assert out["failed"] == 0
    assert out["problems"] == []


def test_census_worker_keeps_its_contract(tmp_path):
    from sutura import diagram as D

    inputs = tmp_path / "census6.txt"
    inputs.write_text("\n".join(D.serialize(d) for d in D.enumerate_diagrams(6)) + "\n")
    _census(inputs, "-")
    trace = tmp_path / "trace.json"
    _census(inputs, trace)
    layers = json.loads(trace.read_text())["layers"]
    calls = layers["calls"]
    assert calls["diagram.euler_class"] == 132
    # phi and is_basis walk one path each: no word set and no memo entry
    assert calls.get("sfh.decompose", 0) == 0
    assert layers["decompose_entries"] == 0
