"""One fresh interpreter of the benchmark: a set-up probe, a measured round,
or one traced `sutura` command.

    worker.py setup <workload> <inputs>
    worker.py verify-full <seed> <trace-file or ->
    worker.py census <inputs> <trace-file or ->
    worker.py cli <trace-file> <sutura arguments...>

Rounds print one JSON line; with a trace file they also write the
per-layer counts there.  The program is imported from src/ of the
checkout that holds this file.
"""

from __future__ import annotations

import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import oracles as o  # noqa: E402


def _tracer(trace_file: str):
    if trace_file == "-":
        return None
    import tracer

    t = tracer.Tracer()
    t.install()
    return t


def _dump(t, trace_file: str, extra: dict | None = None) -> None:
    if t is not None:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"layers": t.snapshot(), **(extra or {})}, fh)


def _read_inputs(path: str):
    from sutura import diagram as dg

    with open(path, encoding="utf-8") as fh:
        return [dg.parse(line) for line in fh.read().split()]


def setup(workload: str, inputs: str) -> None:
    if workload == "verify-full":
        import sutura.verify  # noqa: F401
    elif workload == "census":
        _read_inputs(inputs)
    else:
        import sutura.cli  # noqa: F401


def verify_full(seed: int, trace_file: str) -> dict:
    from sutura import verify

    t = _tracer(trace_file)
    start = time.perf_counter()
    results = verify.run_verification("full", seed)
    wall = time.perf_counter() - start
    _dump(t, trace_file)
    names = [r.name for r in results]
    problems = [] if len(names) == 10 == len(set(names)) else [f"checks run: {names}"]
    return {
        "wall_s": wall,
        "op_ms": [r.seconds * 1e3 for r in results],
        "attempted": len(results),
        "failed": sum(1 for r in results if not r.passed),
        "problems": problems + [f"{r.name}: {r.detail}" for r in results if not r.passed],
    }


def census(inputs: str, trace_file: str) -> dict:
    from sutura import diagram as dg
    from sutura import sfh

    diagrams = _read_inputs(inputs)
    t = _tracer(trace_file)
    op_ms, rows, failed = [], [], 0
    clock = time.perf_counter
    start = clock()
    for d in diagrams:
        t0 = clock()
        try:
            row = (dg.euler_class(d), sfh.phi(d), sfh.is_basis(d))
        except Exception:  # whatever the program raises, the operation counts as failed
            failed += 1
            row = None
        op_ms.append((clock() - t0) * 1e3)
        rows.append(row)
    wall = clock() - start
    _dump(t, trace_file)
    words = [None if r is None else {str(w) for w in sfh.decompose(d).words}
             for d, r in zip(diagrams, rows)]
    return {
        "wall_s": wall,
        "op_ms": op_ms,
        "attempted": len(diagrams),
        "failed": failed,
        "problems": check_census([d.pairing for d in diagrams], rows, words),
    }


def check_census(pairings, rows, words) -> list[str]:
    """Counts against Catalan, Narayana and binomials; each row on its own."""
    n = len(pairings[0]) // 2
    problems = []
    if len(pairings) != o.catalan(n) or len(set(pairings)) != len(pairings):
        problems.append(f"{len(pairings)} distinct diagrams, not Catalan({n})")
    by_e, basis_by_e, phis = {}, {}, set()
    for p, row, ws in zip(pairings, rows, words):
        if row is None:
            continue
        e, (lo, hi), basis = row
        lo, hi = str(lo), str(hi)
        by_e[e] = by_e.get(e, 0) + 1
        basis_by_e[e] = basis_by_e.get(e, 0) + basis
        phis.add((lo, hi))
        text = o.to_text(p)
        if e != o.euler_class(p):
            problems.append(f"euler class of {text}")
        if len(ws) != 1 and len(ws) % 2:
            problems.append(f"odd decomposition of {text}")
        if any(len(w) != n - 1 or w.count("+") - w.count("-") != e for w in ws):
            problems.append(f"word length or sign sum in {text}")
        if basis != (len(ws) == 1):
            problems.append(f"is_basis of {text}")
        if (lo, hi) != (min(ws, key=o.lex_key), max(ws, key=o.lex_key)) or not o.leq(lo, hi):
            problems.append(f"phi of {text}")
    if len(phis) != sum(by_e.values()):
        problems.append("phi takes a value twice")
    for e in range(-(n - 1), n, 2):
        if by_e.get(e, 0) != o.narayana(n, e):
            problems.append(f"class {e} has {by_e.get(e, 0)} diagrams")
        if basis_by_e.get(e, 0) != o.basis_count(n, e):
            problems.append(f"class {e} has {basis_by_e.get(e, 0)} basis diagrams")
    return problems


def cli(trace_file: str, argv: list[str]) -> int:
    start = time.perf_counter()
    from sutura import cli as sutura_cli

    import_s = time.perf_counter() - start
    t = _tracer(trace_file)
    spill = os.path.join(os.environ["SUTURA_CACHE_DIR"], "decompose.kv")

    def size() -> int:
        return os.path.getsize(spill) if os.path.exists(spill) else 0

    read = size()
    try:
        code = sutura_cli.main(argv)
    finally:
        sys.stdout.flush()
        _dump(t, trace_file, {"import_s": import_s, "spill_read": read, "spill_written": size()})
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], argv[2])
        return 0
    if mode == "cli":
        return cli(argv[1], argv[2:])
    if mode == "verify-full":
        out = verify_full(int(argv[1]), argv[2])
    else:
        out = census(argv[1], argv[2])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
