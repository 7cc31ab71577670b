import hashlib
import os
import subprocess
import sys

import pytest

import sutura
from sutura import diagram as D
from sutura import sfh
from sutura.errors import BadArgument, GradingMismatch, IndexOutOfRange, ParseError
from sutura.words import MINUS, PLUS, Word, all_words, word

from strategies import gradings


def all_elements_sample(nm, np_, rng):
    words = all_words(nm, np_)
    out = [sfh.SfhElement.basis(w) for w in words]
    out.append(sfh.SfhElement(words[::2]))
    return out


def test_creation_annihilation_algebra():
    import random

    rng = random.Random(1)
    for n in range(0, 7):
        for nm, np_ in gradings(n):
            for x in all_elements_sample(nm, np_, rng):
                assert sfh.A_PLUS(sfh.B_MINUS(x)) == x
                assert sfh.A_MINUS(sfh.B_PLUS(x)) == x
                assert sfh.A_PLUS(sfh.B_PLUS(x)).is_zero()
                assert sfh.A_MINUS(sfh.B_MINUS(x)).is_zero()


def test_diagram_level_agreement():
    ops = [sfh.B_MINUS, sfh.B_PLUS, sfh.A_PLUS, sfh.A_MINUS]
    for n in range(1, 6):
        for d in D.enumerate_diagrams(n):
            x = sfh.decompose(d)
            for op in ops:
                assert sfh.decompose(op.diagram_action(d)) == op(x)


def _creation_oracle(text, sign, i):
    """Insert a sign before its (i+1)'th occurrence in the string, or append."""
    spots = [k for k, ch in enumerate(text) if ch == sign]
    at = spots[i] if i < len(spots) else len(text)
    return {text[:at] + sign + text[at:]}


def _annihilation_oracle(text, sign, i):
    """Delete the (i+1)'th occurrence; past the last, a final sign or nothing."""
    spots = [k for k, ch in enumerate(text) if ch == sign]
    if i < len(spots):
        return {text[: spots[i]] + text[spots[i] + 1 :]}
    return {text[:-1]} if text.endswith(sign) else set()


def test_west_east_word_rules():
    assert sfh.annihilation_word(word("-+"), MINUS, 0) == frozenset([word("+")])
    assert sfh.annihilation_word(word("-+"), MINUS, 1) == frozenset()
    assert sfh.creation_word(word("-+"), MINUS, 0) == frozenset([word("--+")])
    assert sfh.creation_word(word("-+"), MINUS, 1) == frozenset([word("-+-")])
    assert sfh.annihilation_word(word("+-"), PLUS, 0) == frozenset([word("-")])
    assert sfh.annihilation_word(word("+-"), PLUS, 1) == frozenset()
    assert sfh.creation_word(word("+-"), PLUS, 1) == frozenset([word("+-+")])
    for n in range(8):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                text = str(w)
                for sign, char in ((MINUS, "-"), (PLUS, "+")):
                    for i in range(text.count(char) + 1):
                        made = {str(v) for v in sfh.creation_word(w, sign, i)}
                        assert made == _creation_oracle(text, char, i), (text, char, i)
                        killed = {str(v) for v in sfh.annihilation_word(w, sign, i)}
                        assert killed == _annihilation_oracle(text, char, i), (text, char, i)
                    for p in range(n + 1):
                        longer = w.insert(p, sign)
                        assert longer.delete(p) == w
                        for v in (longer, longer.delete(p)):  # counts as if built afresh
                            assert (v.n, v.n_plus) == (Word(v.bits).n, Word(v.bits).n_plus)
                minus, plus = w.positions(MINUS), w.positions(PLUS)
                assert sorted(minus + plus) == list(range(n))
                assert [text[p] for p in minus] == ["-"] * nm
                assert [text[p] for p in plus] == ["+"] * np_


def test_word_edits_reject_positions_outside_the_word():
    w = word("-+")
    for bad in (-1, 3):
        with pytest.raises(IndexOutOfRange):
            w.insert(bad, MINUS)
    for bad in (-1, 2):
        with pytest.raises(IndexOutOfRange):
            w.delete(bad)
    with pytest.raises(ParseError):
        w.insert(0, 2)


def test_unknown_side_is_rejected():
    for make in (sfh.creation, sfh.annihilation):
        with pytest.raises(BadArgument):
            make("north", 0)


def test_west_east_diagram_agreement():
    for n in range(1, 6):
        for d in D.enumerate_diagrams(n):
            x = sfh.decompose(d)
            e = D.euler_class(d)
            nm = (n - 1 - e) // 2
            np_ = (n - 1 + e) // 2
            for i in range(nm + 1):
                for op in (sfh.creation("west", i), sfh.annihilation("west", i)):
                    assert sfh.decompose(op.diagram_action(d)) == op(x)
            for j in range(np_ + 1):
                for op in (sfh.creation("east", j), sfh.annihilation("east", j)):
                    assert sfh.decompose(op.diagram_action(d)) == op(x)


def test_west_east_inverses():
    for n in range(0, 6):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                x = sfh.SfhElement.basis(w)
                for i in range(nm + 1):
                    assert sfh.annihilation("west", i)(sfh.creation("west", i)(x)) == x
                for j in range(np_ + 1):
                    assert sfh.annihilation("east", j)(sfh.creation("east", j)(x)) == x


def test_direct_sum_recursion():
    # every basis vector lies in exactly one of the two creation images
    for n in range(1, 8):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                starts_minus = w.bits[0] == 0
                tail = Word(w.bits[1:])
                if starts_minus:
                    assert sfh.B_MINUS(sfh.SfhElement.basis(tail)) == sfh.SfhElement.basis(w)
                else:
                    assert sfh.B_PLUS(sfh.SfhElement.basis(tail)) == sfh.SfhElement.basis(w)


def test_vacuum_creation():
    x = sfh.SfhElement.basis(Word())
    assert sfh.B_MINUS(x) == sfh.SfhElement.basis(word("-"))
    assert sfh.B_MINUS.diagram_action(D.VACUUM) == sfh.basis_diagram(word("-"))


def test_diagram_actions_map_zero_to_zero():
    # A+ of 0-1,2-3 caps its outermost chord at the base point: a closed loop
    capped = sfh.A_PLUS.diagram_action(D.parse("0-1,2-3"))
    assert capped is D.ZERO
    assert sfh.A_MINUS.diagram_action(capped) is D.ZERO
    ops = [sfh.B_MINUS, sfh.B_PLUS, sfh.A_PLUS, sfh.A_MINUS]
    slotted = (sfh.creation, sfh.annihilation)
    ops += [make(side, i) for side in ("west", "east") for make in slotted for i in range(3)]
    for op in ops:
        assert op.diagram_action(D.ZERO) is D.ZERO, op.name


def test_the_last_slot_of_a_one_sign_grading_is_a_plus_or_a_minus():
    # with every letter on one side, its last slot caps the points beside
    # the base point, as A+ (west) and A- (east) do
    for n in range(8):
        for sign, side, op in ((MINUS, "west", sfh.A_PLUS), (PLUS, "east", sfh.A_MINUS)):
            d = sfh.basis_diagram(Word((sign,) * n))
            assert sfh.annihilation(side, n).diagram_action(d) == op.diagram_action(d), (side, n)


def test_mixed_grading_rejected():
    with pytest.raises(GradingMismatch):
        sfh.SfhElement([word("-"), word("-+")])
    with pytest.raises(GradingMismatch):
        sfh.SfhElement.basis(word("-")) + sfh.SfhElement.basis(word("--"))


def test_a_graded_operator_of_mixed_image_lengths_is_rejected():
    # GradedOperator is public, so its word rule is checked when applied
    bad = sfh.GradedOperator("bad", lambda w: frozenset({w, w.insert(0, MINUS)}), lambda d: d)
    with pytest.raises(GradingMismatch):
        bad(sfh.SfhElement.basis(word("-+")))


SLOT_SCRIPT = """
import itertools
from sutura import diagram as D, sfh
from sutura.words import word

d, w = D.parse("0-5,1-4,2-3"), word("-+")  # both of grading (1, 1)
for side, make in itertools.product(("west", "east"), (sfh.creation, sfh.annihilation)):
    for i in (-1, 0, 1, 2):
        op = make(side, i)
        for act, x in ((op.word_action, w), (op.diagram_action, d)):
            try:
                act(x)
                print("ok")
            except Exception as exc:
                print(type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_slots_outside_the_grading_are_rejected(flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sutura.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", SLOT_SCRIPT],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    per_operator = ["IndexOutOfRange"] * 2 + ["ok"] * 4 + ["IndexOutOfRange"] * 2
    assert proc.stdout.split() == per_operator * 4


def _acts(act, x, show) -> str:
    try:
        return show(act(x))
    except IndexOutOfRange as exc:
        return type(exc).__name__


def _operators(top_minus: int, top_plus: int):
    """B±, A± and every slot of creation and annihilation from -1 to top+1."""
    yield from (sfh.B_MINUS, sfh.B_PLUS, sfh.A_PLUS, sfh.A_MINUS)
    for side, top in (("west", top_minus), ("east", top_plus)):
        for make in (sfh.creation, sfh.annihilation):
            for i in range(-1, top + 2):
                yield make(side, i)


def test_operator_actions_are_pinned():
    # one digest over every operator's word action on every word with
    # n <= 7 and diagram action on every diagram with N <= 7; a rejected
    # slot reads as its error's name
    digest, cases = hashlib.sha256(), 0
    words = [w for n in range(8) for nm, np_ in gradings(n) for w in all_words(nm, np_)]
    for w in words:
        for op in _operators(w.n - w.n_plus, w.n_plus):
            shown = _acts(op.word_action, w, lambda ws: ",".join(sorted(map(str, ws))))
            digest.update(f"{op.name}\t{w}\t{shown}\n".encode())
            cases += 1
    for n in range(1, 8):
        for d in D.enumerate_diagrams(n):
            e = D.euler_class(d)
            for op in _operators((n - 1 - e) // 2, (n - 1 + e) // 2):
                shown = _acts(op.diagram_action, d, lambda c: "ZERO" if c is D.ZERO else D.serialize(c))
                digest.update(f"{op.name}\t{D.serialize(d)}\t{shown}\n".encode())
                cases += 1
    assert cases == 24068
    assert digest.hexdigest() == "a0f80c23b7990369be3590213fcfabfaf96fbab9f3500d64ddb8105aaa46648a"


def test_element_sum_is_mod_two():
    a, b, c = word("-+-"), word("+--"), word("--+")
    images = [frozenset({a, b}), frozenset({b, c}), frozenset({c}), frozenset({a, c})]
    assert sfh.SfhElement.sum(images) == sfh.SfhElement({c})
    assert sfh.SfhElement.sum(iter(())) == sfh.SfhElement.zero()
    assert sfh.SfhElement.sum([frozenset({a}), frozenset({a})]).is_zero()
    with pytest.raises(GradingMismatch):
        sfh.SfhElement.sum([frozenset({a}), frozenset({word("-+")})])
