import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import pytest

import sutura
from sutura import cli, sfh, stacking, verify
from sutura import diagram as dg
from sutura.errors import SuturaError
from sutura.words import word

from strategies import deep_split_diagram


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert lines[-1] == "5 = 1+3+1"


def test_enumerate_by_euler(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "--e", "-1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 6


@pytest.mark.parametrize("n, e", [("4", "0"), ("4", "5"), ("4", "-5"), ("1", "2")])
def test_enumerate_impossible_class_is_an_error(capsys, n, e):
    # a class of the wrong parity or beyond N-1 has no diagram
    code, out, err = run(capsys, "enumerate", n, "--e", e)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert err.rstrip().endswith("the classes are " + ("-3, -1, 1, 3" if n == "4" else "0"))


def test_enumerate_cap(capsys):
    code, out, err = run(capsys, "enumerate", "12")
    assert code == 1 and out == "" and "cap" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_enumerate_without_chords_is_an_error(capsys, n):
    code, out, err = run(capsys, "enumerate", n)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate"])
    assert exc.value.code == 2


def test_decompose_and_frompair_roundtrip(capsys):
    code, out, _ = run(capsys, "frompair", "--", "--++", "+-+-")
    assert code == 0
    diagram = out.strip()
    code, out, _ = run(capsys, "decompose", diagram, "--format", "json")
    assert code == 0
    assert json.loads(out)["words"] == ["--++", "-++-", "+--+", "+-+-"]


def test_frompair_of_two_all_minus_words(capsys):
    # "--" as a word after the "--" that ends the options
    code, out, _ = run(capsys, "frompair", "--", "--", "--")
    assert code == 0
    assert out.strip() == dg.serialize(sfh.basis_diagram(word("--")))


def test_frompair_needs_two_words(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frompair", "--", "-+"])
    assert exc.value.code == 2


def test_decompose_parse_error(capsys):
    code, _, err = run(capsys, "decompose", "not-a-diagram")
    assert code == 1 and "error" in err


def test_stack(capsys):
    code, out, _ = run(capsys, "stack", "0-5,1-4,2-3", "0-5,1-4,2-3")
    assert code == 0
    assert out.startswith("tight loops=1")
    code, out, _ = run(capsys, "stack", "0-1,2-3", "0-3,1-2", "--format", "json")
    payload = json.loads(out)
    assert payload["tight"] is False and payload["agree"] is True


def test_stack_size_mismatch(capsys):
    code, _, err = run(capsys, "stack", "0-1", "0-1,2-3")
    assert code == 1


def test_category(capsys):
    # universal bounds for three-minus/one-plus words: the total order
    code, out, _ = run(capsys, "category", "0-7,1-4,2-3,5-6", "0-1,2-7,3-4,5-6")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["objects"]) == 3
    assert payload["hasse"] == [[1, 2], [2, 0]]


def test_category_not_tight(capsys):
    code, _, err = run(capsys, "category", "0-1,2-5,3-4", "0-5,1-4,2-3")
    assert code == 1


def test_render_deterministic(capsys):
    code, first, _ = run(capsys, "render", "0-5,1-4,2-3")
    assert code == 0
    code, second, _ = run(capsys, "render", "0-5,1-4,2-3")
    assert first == second
    assert "B" in first and "R" in first and "*" in first
    code, svg1, _ = run(capsys, "render", "0-11,1-10,2-9,3-8,4-5,6-7", "--format", "svg")
    code, svg2, _ = run(capsys, "render", "0-11,1-10,2-9,3-8,4-5,6-7", "--format", "svg")
    assert svg1 == svg2
    assert svg1.count("<line") == 6
    assert 'fill="white"' in svg1  # hollow root marker on a basis diagram


def test_render_bytes_are_pinned():
    # one digest over the svg, the ascii and the JSON form of every diagram
    # with at most 6 chords
    digest = hashlib.sha256()
    for n in range(1, 7):
        for d in dg.enumerate_diagrams(n):
            digest.update(cli.render_svg(d).encode())
            digest.update(cli.render_ascii(d).encode())
            digest.update(json.dumps(dg.to_json_dict(d), sort_keys=True).encode())
    assert digest.hexdigest() == "5cd92b76a323401ffc35bda84fbdbdff6066d7e9e6aecebae3c480ff920d9bfa"


def _region_polygons(d):
    """Each region's sign and its walk as render_svg draws it, on the ascii
    ellipse: arc k from point k+1 back to point k (as a polyline), then the
    chord from k to its partner, where the next arc starts."""
    m = 2 * d.n
    cx, cy = (cli.ASCII_WIDTH - 1) / 2.0, (cli.ASCII_HEIGHT - 1) / 2.0
    out = []
    for walk in dg.regions(d):
        poly = [
            cli._point_xy(k + 1 - j / 8, m, cx - 1.0, cy - 1.0, cx, cy) for k in walk for j in range(9)
        ]
        out.append((dg.orbit_sign(walk), poly))
    return out


def _inside(x: float, y: float, poly) -> bool:
    inside = False
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
            inside = not inside
    return inside


def test_ascii_shading_is_the_sign_of_the_region_holding_each_cell():
    # the region is found by point-in-polygon on its walk, not by the parity
    # rule; N = 5 is the first size where the chord 0-1 passes closer to
    # the rim than a reference point 0.93 of the way out
    for n in range(1, 6):
        for d in dg.enumerate_diagrams(n):
            regions = _region_polygons(d)
            for row, line in enumerate(cli.render_ascii(d).splitlines()):
                for col, ch in enumerate(line):
                    if ch in "+-":
                        (sign,) = [s for s, poly in regions if _inside(col, row, poly)]
                        assert ch == "+-"[sign < 0], (dg.serialize(d), row, col)


def test_render_non_basis_has_no_root(capsys):
    _, svg, _ = run(capsys, "render", "0-3,1-2,4-5", "--format", "svg")
    assert 'fill="white"' not in svg


def test_cache_dir_is_not_read(tmp_path, monkeypatch, capsys):
    # a poisoned memo file left in SUTURA_CACHE_DIR must not change answers
    (tmp_path / "decompose.kv").write_text("1,0\t+-\n")
    monkeypatch.setenv("SUTURA_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "decompose", "0-1")
    assert code == 0 and out == "v_\n"


def test_decompose_deeply_nested(capsys):
    n = 1200
    nested = ",".join(f"{i}-{2 * n - 1 - i}" for i in range(n))
    code, out, _ = run(capsys, "decompose", nested, "--format", "json")
    assert code == 0
    (only,) = json.loads(out)["words"]
    assert len(only) == n - 1


@pytest.mark.parametrize("command", ["decompose", "stack"])
def test_too_deep_diagram_is_a_domain_error(command):
    # the decomposition walk's bypass splits nest past the interpreter's
    # stack: one error line and exit 1, not a RecursionError traceback
    deep = dg.serialize(deep_split_diagram(599, 500))
    proc = run_process(command, deep, *([deep] if command == "stack" else []))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr[-300:]


@pytest.mark.parametrize("command", ["decompose", "stack"])
def test_too_many_words_is_a_domain_error(command):
    # 2^251 words, on paths whose splits nest 501 deep, within the stack:
    # the path count refuses the diagram before a word is built, so the
    # child ends in seconds and within a 1.5 GB address space
    deep = dg.serialize(deep_split_diagram(300, 250))
    proc = subprocess.run(
        [sys.executable, "-m", "sutura.cli", command, deep, *([deep] if command == "stack" else [])],
        capture_output=True, text=True, env=child_env(), timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29)),
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr[-300:]


def test_decompose_past_the_default_cap_is_refused_before_a_word_is_built():
    # 73 chords and 4,294,967,294 words: the path count refuses the diagram
    # at the default cap, naming the option, so the child ends at once and
    # well within a 512 MiB address space
    deep = dg.serialize(deep_split_diagram(40, 30))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sutura.cli", "decompose", deep],
        capture_output=True, text=True, env=child_env(), timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29)),
    )
    took = time.perf_counter() - start
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr[-300:]
    assert "4294967294 words" in proc.stderr and "--cap" in proc.stderr
    assert took < 1.0, took


def test_decompose_cap_counts_words(capsys):
    # two words: a cap of one refuses the diagram and writes nothing, a cap
    # of two lets it through
    code, out, err = run(capsys, "decompose", "0-3,1-2,4-5", "--cap", "1")
    assert code == 1 and out == "" and "past the cap 1; raise --cap" in err
    code, out, _ = run(capsys, "decompose", "0-3,1-2,4-5", "--cap", "2")
    assert code == 0 and out == "v_-+ + v_+-\n"


def test_render_draws_a_diagram_too_deep_to_decompose():
    # render asks only is_basis, which walks one path with no recursion
    deep = deep_split_diagram(599, 500)
    proc = run_process("render", dg.serialize(deep), "--format", "svg")
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout.count("<line") == deep.n == 1102


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--level", "quick", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    assert len(payload["checks"]) == 10


@pytest.mark.parametrize("level", ["deep", "Full", ""])
def test_unknown_verify_level_is_rejected(level):
    # no level other than quick and full may fall back to some sizes
    with pytest.raises(SuturaError):
        verify.run_verification(level, 0)
    with pytest.raises(SuturaError):
        verify._criteria(level, 0)


def child_env():
    """This environment, with the sutura under test first on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sutura.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def run_python(*args, optimize=False):
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, *args],
        capture_output=True, text=True, env=child_env(), timeout=300,
    )


def run_process(*argv, optimize=False):
    return run_python("-m", "sutura.cli", *argv, optimize=optimize)


ENUMERATE_PIN_SCRIPT = """
import contextlib, hashlib, io
from sutura import cli
argvs = [["enumerate", str(n), "--format", f] for n in range(1, 9) for f in ("json", "text")]
argvs += [
    ["enumerate", "6", "--e", str(e), "--format", f]
    for e in range(-5, 6, 2)
    for f in ("json", "text")
]
digest = hashlib.sha256()
for argv in argvs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code:
        raise SystemExit(f"{argv} exited {code}")
    digest.update(out.getvalue().encode())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_enumerate_outputs_are_pinned(optimize):
    # the bytes of enumerate 1..8 (json and text) and of every class at 6,
    # as they were when the rows were built in full before being printed
    proc = run_python("-c", ENUMERATE_PIN_SCRIPT, optimize=optimize)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "9da95e6a40822cc17474c3b2055f6aec4d91ef1dce385e8d691f5055b863cb85"


def test_enumerate_to_a_closed_pipe_is_quiet():
    # `sutura enumerate 9 | head -1`: the text rows overflow the pipe, so
    # the command is still writing when the reader closes it
    proc = subprocess.Popen(
        [sys.executable, "-m", "sutura.cli", "enumerate", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=300)
    assert "Traceback" not in err and err == "", err
    assert first.startswith("0-1,2-3,") and code == cli.EXIT_BROKEN_PIPE


ENUMERATE_MEMORY_SCRIPT = """
import contextlib, os, tracemalloc
from sutura import cli
tracemalloc.start()
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = cli.main(["enumerate", "9", "--format", "json"])
print(code, tracemalloc.get_traced_memory()[1])
"""


def test_enumerate_memory_is_one_batch_of_rows():
    # the 4862 rows of enumerate 9 are streamed and phi keeps no memo, so
    # the peak is a batch of rows (about 0.9 MB), not the output (the rows
    # and their JSON held at once peaked at 8.8 MiB) nor a memo of every
    # pairing the decomposition walk meets (about 3.4 MiB)
    proc = run_python("-c", ENUMERATE_MEMORY_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    assert peak < 2 * 2**20


def test_importing_the_package_loads_no_arc_or_verify_module():
    # a census sets up with `import sutura` and parse alone; the arc layer,
    # stacking, the complex, the oracles, verify and the command line load
    # only when something asks for them
    heavy = ["arcs", "stacking", "simplicial", "oracles", "verify", "cli"]
    proc = run_python("-c", "import sys, sutura; print(' '.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) & {f"sutura.{m}" for m in heavy} == set()


def _modules_after_import(module):
    """The modules a fresh interpreter holds after importing one module;
    -S keeps site (and whatever it imports) out of the count."""
    proc = run_python("-S", "-c", f"import sys, {module}; print(' '.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("module", ["sutura", "sutura.cli"])
def test_importing_loads_no_dataclasses_inspect_or_typing(module):
    # every command pays for what `import sutura.cli` loads; these three
    # (with the ast, dis and tokenize modules they pull in) cost more
    # than most commands' work
    assert _modules_after_import(module) & {"dataclasses", "inspect", "typing"} == set()


def test_the_command_line_loads_every_layer_but_the_oracles():
    # no command runs the oracles, so only a verify check loads them; the
    # layers stay eager because the benchmark's tracer imports sutura.cli
    # to load every layer before it wraps their functions
    loaded = _modules_after_import("sutura.cli")
    assert "sutura.oracles" not in loaded
    for layer in ("arcs", "stacking", "simplicial", "verify"):
        assert f"sutura.{layer}" in loaded, layer


def test_verify_loads_its_layers_and_no_oracles():
    # a verify-full round sets up with this import in a fresh interpreter;
    # the oracles load only when a check that compares against them runs
    loaded = {m for m in _modules_after_import("sutura.verify") if m.startswith("sutura.")}
    layers = ("arcs", "diagram", "errors", "sfh", "simplicial", "stacking", "verify", "words")
    assert loaded == {f"sutura.{m}" for m in layers}


def test_verify_quick_under_optimize():
    # planarity checks must not be assert statements, which -O strips
    proc = run_process("verify", "--level", "quick", "--format", "json", optimize=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["failures"] == []


def test_stack_and_category_under_optimize():
    # the interval [--++, ++--] of 4-letter words, on its basis diagrams
    low, high = (dg.serialize(sfh.basis_diagram(word(w))) for w in ("--++", "++--"))
    for argv in (("stack", low, high), ("stack", high, low), ("category", low, high)):
        plain, optimized = run_process(*argv), run_process(*argv, optimize=True)
        assert plain.returncode == optimized.returncode == 0, optimized.stderr
        assert optimized.stdout == plain.stdout


def test_mutated_connector_reports_failures(monkeypatch):
    monkeypatch.setattr(stacking, "_CONNECTOR_SHIFT", +1)
    problems = verify.check_stackability(3, 3)
    assert problems, "the opposite rounding convention must fail calibration"
