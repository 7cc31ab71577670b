import json
import os
import subprocess
import sys

import pytest

import sutura
from sutura import cli, sfh, stacking, verify
from sutura import diagram as dg
from sutura.errors import SuturaError
from sutura.words import word


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
    code, _, err = run(capsys, "enumerate", "12")
    assert code == 1 and "cap" in err


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


def test_render_non_basis_has_no_root(capsys):
    _, svg, _ = run(capsys, "render", "0-3,1-2,4-5", "--format", "svg")
    assert 'fill="white"' not in svg


def test_cache_dir_is_not_read(tmp_path, monkeypatch, capsys):
    # a poisoned memo file left in SUTURA_CACHE_DIR must not change answers
    (tmp_path / "decompose.kv").write_text("1,0\t+-\n")
    monkeypatch.setenv("SUTURA_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(sfh, "_decompose_cache", {})  # cold, as in a new process
    code, out, _ = run(capsys, "decompose", "0-1")
    assert code == 0 and out == "v_\n"


def test_decompose_deeply_nested(capsys):
    n = 1200
    nested = ",".join(f"{i}-{2 * n - 1 - i}" for i in range(n))
    code, out, _ = run(capsys, "decompose", nested, "--format", "json")
    assert code == 0
    (only,) = json.loads(out)["words"]
    assert len(only) == n - 1


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
        verify.budgets(level)


def run_process(*argv, optimize=False):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sutura.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "sutura.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )


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
