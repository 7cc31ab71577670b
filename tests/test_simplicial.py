import pytest

from sutura import oracles, sfh
from sutura import simplicial as SP
from sutura.errors import GradingMismatch, IndexOutOfRange
from sutura.words import Word, all_words, word

from strategies import gradings


def test_face_examples():
    # a side's face d_i is sfh's annihilation operator at slot i, and its
    # degeneracy s_j the creation operator at slot j
    x = sfh.SfhElement.basis(word("-+"))
    assert sfh.annihilation("west", 0)(x) == sfh.SfhElement.basis(word("+"))
    assert sfh.annihilation("west", 1)(x).is_zero()
    assert sfh.creation("west", 0)(sfh.SfhElement.basis(word("+"))) == sfh.SfhElement.basis(
        word("+-")
    )
    with pytest.raises(IndexOutOfRange):
        sfh.annihilation("west", 2)(x)


@pytest.mark.parametrize("side", ["west", "east"])
def test_slot_maps_reject_mixed_gradings(side):
    # one word length, two gradings: the boundary builds its image
    # unchecked, so it must reject the input itself
    x = sfh.SfhElement([word("+-"), word("--")])
    with pytest.raises(GradingMismatch):
        SP.boundary(side, x)


def test_face_degeneracy_identity():
    for n in range(0, 7):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                x = sfh.SfhElement.basis(w)
                for side, top in (("west", nm), ("east", np_)):
                    for j in range(top + 1):
                        sx = sfh.creation(side, j)(x)
                        assert sfh.annihilation(side, j)(sx) == x
                        assert sfh.annihilation(side, j + 1)(sx) == x


def test_boundary_examples():
    assert SP.boundary("west", sfh.SfhElement.basis(word("-+"))) == sfh.SfhElement.basis(word("+"))
    assert SP.boundary("west", sfh.SfhElement.basis(word("+-"))).is_zero()
    assert SP.boundary("west", sfh.SfhElement.basis(word("++"))).is_zero()
    assert SP.boundary("east", sfh.SfhElement.basis(word("+-"))) == sfh.SfhElement.basis(word("-"))


def test_boundary_matches_closed_form():
    for n in range(0, 8):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                x = sfh.SfhElement.basis(w)
                for side in ("west", "east"):
                    assert SP.boundary(side, x) == oracles.boundary_closed_form(side, w)


def test_partial_differentiation_on_plus_ending_words():
    # on words ending in +, the boundary deletes one minus from each
    # odd-length block
    for n in range(1, 8):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                if not w.bits or w.bits[-1] != 1:
                    continue
                expect = set()
                for start, length in _minus_runs(w):
                    if length % 2:
                        expect ^= {Word(w.bits[:start] + w.bits[start + 1 :])}
                assert SP.boundary("west", sfh.SfhElement.basis(w)).words == frozenset(expect)


def _minus_runs(w):
    runs, pos = [], 0
    while pos < w.n:
        if w.bits[pos] == 0:
            start = pos
            while pos < w.n and w.bits[pos] == 0:
                pos += 1
            runs.append((start, pos - start))
        else:
            pos += 1
    return runs


def test_chain_homotopy_on_nonempty_words():
    for n in range(1, 9):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                x = sfh.SfhElement.basis(w)
                bm = sfh.apply_operator(sfh.B_MINUS, x)
                assert SP.boundary("west", bm) + sfh.apply_operator(
                    sfh.B_MINUS, SP.boundary("west", x)
                ) == x


def test_empty_word_is_the_known_corner():
    # the lone failure of the contraction: the vacuum slot of the all-minus
    # diagonal, where the two faces of the single minus sign cancel mod 2
    x = sfh.SfhElement.basis(Word())
    bm = sfh.apply_operator(sfh.B_MINUS, x)
    lhs = SP.boundary("west", bm) + sfh.apply_operator(sfh.B_MINUS, SP.boundary("west", x))
    assert lhs.is_zero()


def test_double_complex_report():
    assert SP.verify_double_complex(8) == []


def test_homology_report():
    assert SP.verify_homology_trivial(8, rank_n_max=6) == []


def test_gf2_rank():
    assert SP.gf2_rank([0b01, 0b10, 0b11]) == 2
    assert SP.gf2_rank([]) == 0
    assert SP.gf2_rank([0b111, 0b111]) == 1

