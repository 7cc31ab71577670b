"""Benchmark of sutura, measured from outside with the standard library only.

    python3 bench/run.py --workload {verify-full,census,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every measured round is a fresh
interpreter, so every memo starts cold.  With --trace 0 the last line of
standard output carries the end-to-end metrics; with --trace 1 one traced
round gives the per-layer metrics instead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracles as o  # noqa: E402
import tracer  # noqa: E402

WORKER = os.path.join(BENCH, "worker.py")
CENSUS_CHORDS = 10
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170


class Run:
    """One invocation: its scratch directory, child environment and seed."""

    def __init__(self, seed: int, seconds: int, trace: bool, scratch: str):
        self.seed, self.seconds, self.trace, self.scratch = seed, seconds, trace, scratch
        self.env = dict(os.environ)
        self.env.pop("SUTURA_CACHE_DIR", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        # string hashing lays out the sets of string-tagged tuples in
        # diagram._face_cycles and stacking.suture_graph; fix it so that two
        # runs with one seed do the same work
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, args, env=None) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable] + args, cwd=ROOT, env=env or self.env, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )

    def worker(self, *args) -> dict:
        done = self.child([WORKER, *args])
        if done.returncode != 0:
            raise SystemExit(f"worker {args[0]} exited {done.returncode}:\n{done.stderr}")
        return json.loads(done.stdout.splitlines()[-1])

    def setup_s(self, workload: str, inputs: str) -> float:
        """Median time for a fresh interpreter to import the program and read the inputs."""
        times = []
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            done = self.child([WORKER, "setup", workload, inputs])
            times.append(time.perf_counter() - start)
            if done.returncode != 0:
                raise SystemExit(f"set-up of {workload} failed:\n{done.stderr}")
        return statistics.median(times)

    def rounds(self, one_round, at_least: int = 1) -> list[dict]:
        """Whole rounds until the run's seconds are spent; one when traced."""
        out, start = [], time.perf_counter()
        while not out or not self.trace and (
            len(out) < at_least or time.perf_counter() - start < self.seconds
        ):
            out.append(one_round())
        return out

    def trace_file(self, name: str) -> str:
        return os.path.join(self.scratch, f"trace-{name}.json") if self.trace else "-"


def _load_traces(paths) -> list[dict]:
    snaps = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            snaps.append(json.load(fh))
    return snaps


# -- verify-full ---------------------------------------------------------------


def run_verify_full(run: Run) -> dict:
    setup = run.setup_s("verify-full", "-")
    rounds = run.rounds(lambda: run.worker("verify-full", str(run.seed), run.trace_file("verify")))
    layers = _load_traces([run.trace_file("verify")]) if run.trace else []
    return _summary(setup, rounds, layers)


# -- census --------------------------------------------------------------------


def run_census(run: Run) -> dict:
    pairings = o.all_matchings(CENSUS_CHORDS)
    random.Random(run.seed).shuffle(pairings)
    inputs = os.path.join(run.scratch, "census.txt")
    with open(inputs, "w", encoding="utf-8") as fh:
        fh.write("\n".join(o.to_text(p) for p in pairings) + "\n")
    setup = run.setup_s("census", inputs)
    rounds = run.rounds(lambda: run.worker("census", inputs, run.trace_file("census")))
    layers = _load_traces([run.trace_file("census")]) if run.trace else []
    return _summary(setup, rounds, layers)


# -- cli -----------------------------------------------------------------------


def _random_word(rng, n: int, n_minus: int) -> str:
    letters = ["-"] * n_minus + ["+"] * (n - n_minus)
    rng.shuffle(letters)
    return "".join(letters)


def _words_above(w: str) -> list[str]:
    n, k = len(w), w.count("-")
    out = []
    for pos in itertools.combinations(range(n), k):
        cand = "".join("-" if i in pos else "+" for i in range(n))
        if o.leq(w, cand):
            out.append(cand)
    return out


def _moves_up(rng, w: str, steps: int) -> str:
    """Move a random minus sign one place right, `steps` times where possible."""
    for _ in range(steps):
        spots = [i for i in range(len(w) - 1) if w[i:i + 2] == "-+"]
        if not spots:
            break
        i = rng.choice(spots)
        w = w[:i] + "+-" + w[i + 2:]
    return w


# One round: four blocks of the six commands, in a fixed order and at
# fixed sizes, so that every seed asks for the same amount of work; the seed
# draws the diagrams, words and euler classes.  The third block's full
# `enumerate 9` leaves a 534 KiB spill that the eleven commands after it
# load and rewrite.
CLI_SIZES = {
    "enumerate": (7, 6, 9, 8),  # chords
    "decompose": (7, 8, 9, 10),  # chords
    "frompair": (5, 6, 7, 8),  # letters
    "stack": (6, 7, 8, 9),  # chords
    "category": (5, 6, 6, 7),  # letters
    "render": (6, 7, 8, 10),  # chords
}
CLI_FULL_ROW = 9  # enumerated without --e
CLI_CATEGORY_MOVES = (1, 2, 2, 3)  # minus signs moved right from the lower word
CLI_MIN_ROUNDS = 2  # so that each run has at least 40 commands for its median


def cli_commands(seed: int) -> list[tuple[str, list[str], object]]:
    """The seeded command stream of one round: (command, arguments, expected)."""
    rng = random.Random(seed)
    out = []
    for block in range(4):
        for kind, sizes in CLI_SIZES.items():
            n = sizes[block]
            if kind == "enumerate":
                e = None if n == CLI_FULL_ROW else rng.randrange(-(n - 1), n, 2)
                only = [] if e is None else ["--e", str(e)]
                args = ["enumerate", str(n), *only, "--format", "json"]
                out.append((kind, args, (n, e)))
            elif kind == "decompose":
                p = o.uniform_matching(n, rng)
                out.append((kind, ["decompose", o.to_text(p), "--format", "json"], p))
            elif kind == "frompair":
                w0 = _random_word(rng, n, rng.randint(0, n))
                w1 = rng.choice(_words_above(w0))
                out.append((kind, ["frompair", "--format", "json", "--", w0, w1], (w0, w1)))
            elif kind == "stack":
                a, b = o.uniform_matching(n, rng), o.uniform_matching(n, rng)
                out.append((kind, ["stack", o.to_text(a), o.to_text(b), "--format", "json"], (a, b)))
            elif kind == "category":
                w0 = _random_word(rng, n, rng.randint(1, n - 1))
                w1 = _moves_up(rng, w0, CLI_CATEGORY_MOVES[block])
                args = ["category", o.to_text(o.basis_pairing(w0)), o.to_text(o.basis_pairing(w1))]
                out.append((kind, args, (w0, w1)))
            else:
                p = o.uniform_matching(n, rng)
                out.append((kind, ["render", o.to_text(p), "--format", "svg"], p))
    return out


def check_cli(kind: str, expected, stdout: str, dec: o.Decomposer) -> list[str]:
    """Problems with one command's output, computed apart from the program."""
    if kind == "render":
        n = len(expected) // 2
        ok = (stdout.startswith("<svg") and stdout.endswith("</svg>\n")
              and stdout.count("<line ") == n and stdout.count("<path ") == n + 1)
        return [] if ok else [f"render of {o.to_text(expected)}"]
    data = json.loads(stdout)
    if kind == "enumerate":
        n, only = expected
        rows = data["rows"]
        classes = range(-(n - 1), n, 2) if only is None else (only,)
        problems = []
        if len({tuple(r["phi"]) for r in rows}) != len(rows):
            problems.append(f"enumerate {n}: phi takes a value twice")
        for e in classes:
            at_e = [r for r in rows if r["e"] == e]
            if len(at_e) != o.narayana(n, e):
                problems.append(f"enumerate {n}: {len(at_e)} rows at class {e}")
            if sum(r["is_basis"] for r in at_e) != o.basis_count(n, e):
                problems.append(f"enumerate {n}: basis count at class {e}")
        for r in rows:
            p = o.from_text(r["diagram"])
            lo, hi = r["phi"]
            if not (o.is_noncrossing_matching(p) and len(p) == 2 * n
                    and o.euler_class(p) == r["e"] and r["e"] in classes and o.leq(lo, hi)
                    and r["is_basis"] == (lo == hi)):
                problems.append(f"enumerate row {r['diagram']}")
        return problems
    if kind == "decompose":
        got = set(data["words"])
        ok = got == dec.words(expected) and (len(got) == 1 or len(got) % 2 == 0)
        return [] if ok else [f"decompose {o.to_text(expected)}"]
    if kind == "frompair":
        w0, w1 = expected
        p = o.pairing_from_pairs(data["pairs"])
        ok = o.is_noncrossing_matching(p) and len(p) == 2 * (len(w0) + 1)
        if ok:
            ws = dec.words(p)
            ok = (min(ws, key=o.lex_key), max(ws, key=o.lex_key)) == (w0, w1)
        return [] if ok else [f"frompair {w0} {w1}"]
    if kind == "stack":
        loops = o.stacked_loops(*expected)
        ok = data["agree"] is True and data["loops"] == loops and data["tight"] == (loops == 1)
        return [] if ok else [f"stack {o.to_text(expected[0])} {o.to_text(expected[1])}"]
    w0, w1 = expected
    objects = data["objects"]
    ok = (len(objects) == len(set(objects)) == o.interval_size(w0, w1)
          and all(o.is_noncrossing_matching(o.from_text(x)) for x in objects))
    return [] if ok else [f"category [{w0}, {w1}]"]


def run_cli(run: Run) -> dict:
    commands = cli_commands(run.seed)
    setup = run.setup_s("cli", "-")
    dec = o.Decomposer()
    traces = []

    def one_round() -> dict:
        cache = tempfile.mkdtemp(prefix="spill-", dir=run.scratch)
        env = dict(run.env, SUTURA_CACHE_DIR=cache)
        op_ms, problems, failed, per_kind = [], [], 0, {}
        start = time.perf_counter()
        for kind, args, expected in commands:
            if run.trace:
                traces.append(run.trace_file(f"cli-{len(traces)}"))
                argv = [WORKER, "cli", traces[-1], *args]
            else:
                argv = ["-m", "sutura.cli", *args]
            t0 = time.perf_counter()
            done = run.child(argv, env)
            took = (time.perf_counter() - t0) * 1e3
            op_ms.append(took)
            per_kind.setdefault(kind, []).append(took)
            if done.returncode != 0:
                failed += 1
                continue
            try:
                problems += check_cli(kind, expected, done.stdout, dec)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{kind}: malformed output ({exc!r})")
        wall = time.perf_counter() - start
        spill = os.path.join(cache, "decompose.kv")
        return {"wall_s": wall, "op_ms": op_ms, "attempted": len(commands), "failed": failed,
                "problems": problems, "per_kind": per_kind,
                "spill_kb": os.path.getsize(spill) / 1024 if os.path.exists(spill) else 0.0}

    rounds = run.rounds(one_round, CLI_MIN_ROUNDS)
    if not run.trace:
        return _summary(setup, rounds, [])
    snaps = _load_traces(traces)
    measured = {f"{k}.ms": statistics.median(v) for k, v in rounds[0]["per_kind"].items()}
    measured.update({
        "import_s": statistics.median(s["import_s"] for s in snaps),
        "spill.kb": rounds[0]["spill_kb"],
        "spill.bytes_read": sum(s["spill_read"] for s in snaps),
        "spill.bytes_written": sum(s["spill_written"] for s in snaps),
    })
    return _summary(setup, rounds, snaps, measured)


# -- results -------------------------------------------------------------------


def _summary(setup: float, rounds: list[dict], snaps: list[dict], cli_measured=None) -> dict:
    op_ms = sorted(x for r in rounds for x in r["op_ms"])
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems[:10]:
        print(f"problem: {p}", file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    if snaps:
        merged = tracer.merge([s["layers"] for s in snaps])
        result["metrics"] = tracer.layer_metrics(merged, cli_measured)
    else:
        result["metrics"] = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    # operation percentiles, only where a run holds enough operations of one kind
    n = len(op_ms)
    tail = {"ops": n, "rounds": len(rounds),
            "wall_s": round(statistics.median(r["wall_s"] for r in rounds), 4)}
    if n >= 40:
        tail["op_p50_ms"] = round(statistics.median(op_ms), 4)
    if n >= 1000:
        tail["op_p99_ms"] = round(op_ms[int(0.99 * (n - 1))], 4)
    print(json.dumps(tail), file=sys.stderr)
    return result


WORKLOADS = {"verify-full": run_verify_full, "census": run_census, "cli": run_cli}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sutura", "cli.py")):
        print(f"no sutura sources under {ROOT}/src: run from a checkout", file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".bench_run")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        result = WORKLOADS[args.workload](Run(args.seed, args.seconds, bool(args.trace), scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
