import inspect
import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings

from sutura import diagram as D
from sutura import oracles, sfh
from sutura.errors import BrokenInvariant, TooDeep, ZeroElement
from sutura.words import MINUS, PLUS, Word, all_words, word

from strategies import deep_split_diagram, diagrams, gradings, uniform_diagram


def test_basis_diagram_frozen_oracles():
    # hand-evaluated from the endpoint formulas of the construction
    assert sfh.basis_diagram(Word()) == D.VACUUM
    assert set(sfh.basis_diagram(word("-+")).chords()) == {(0, 5), (1, 4), (2, 3)}
    g = sfh.basis_diagram(word("-+-++"))
    assert set(g.chords()) == {(0, 11), (1, 10), (2, 9), (3, 8), (4, 5), (6, 7)}
    assert sfh.basis_diagram(word("+")) == oracles.root_walk(word("+"))[0]


def test_root_point_positions():
    # the vacuum's chord, created first and numbered last, holds the root
    # point in the base fold and the base point in the root fold
    assert sfh.root_point(6, 1) == 7 and 7 in sfh.base_chords(word("-+-++"))[-1]
    for n in range(0, 9):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                assert sfh.root_point(n + 1, w.e) in sfh.base_chords(w)[n], w
                assert 0 in sfh.root_chords(w)[n], w


def test_base_and_root_constructions_agree():
    # the creation fold against the paper's root point walk: the same
    # diagram, and the same chord for each letter in root-point order
    for n in range(0, 9):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                walked, chords = oracles.root_walk(w)
                assert sfh.basis_diagram(w) == walked, w
                assert list(sfh.root_chords(w)[:n]) == chords, w


def test_decompose_of_basis_is_singleton():
    for n in range(0, 8):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                assert sfh.decompose(sfh.basis_diagram(w)).words == frozenset([w])


def test_decompose_builds_checked_elements():
    # decompose builds its elements without the length check; the checked
    # constructor accepts every one of them as it is
    for n in range(1, 8):
        for d in D.enumerate_diagrams(n):
            x = sfh.decompose(d)
            assert x == sfh.SfhElement(x.words)


def test_decompose_examples():
    assert sfh.decompose(D.VACUUM).words == frozenset([Word()])
    assert sfh.decompose(D.ZERO).words == frozenset()
    third = D.from_pairing([(0, 3), (1, 2), (4, 5)])
    assert {str(w) for w in sfh.decompose(third).words} == {"-+", "+-"}
    table = {
        frozenset(str(w) for w in sfh.decompose(d).words)
        for d in D.enumerate_diagrams(4)
        if D.euler_class(d) == -1
    }
    assert table == {
        frozenset({"--+"}),
        frozenset({"-+-"}),
        frozenset({"+--"}),
        frozenset({"--+", "-+-"}),
        frozenset({"--+", "+--"}),
        frozenset({"-+-", "+--"}),
    }


def test_decompose_from_root_agrees():
    for n in range(1, 9):
        for d in D.enumerate_diagrams(n):
            assert oracles.decompose_from_root(d) == sfh.decompose(d)
    assert oracles.decompose_from_root(D.VACUUM).words == frozenset([Word()])


def _split_diagrams():
    """Every diagram with 3 <= N <= 9 whose base chord is not outermost."""
    for n in range(3, 10):
        for d in D.enumerate_diagrams(n):
            if d.pairing[0] not in (1, 2 * n - 1):
                yield d


def test_hug_split_is_the_bypass_triple():
    # the walk rewires the arc hugging the base point in place; with the
    # chord its forced peel removes put back, each half is bypass_rewire
    count = 0
    for d in _split_diagrams():
        p, m = d.pairing, 2 * d.n
        hug = (m - 1, 0, 1)
        for take, step, peeled in ((MINUS, 1, (0, m - 1)), (PLUS, -1, (0, 1))):
            half = list(p)
            sfh._path(half, 0, m - 1, False, 0, take, 1)
            half[peeled[0]], half[peeled[1]] = peeled[1], peeled[0]
            assert tuple(half) == sfh.bypass_rewire(p, hug, step)
        count += 1
    assert count == 2806


def test_split_cancels_nothing():
    # a split is the bypass triple of the arc hugging the base point: the
    # step +1 half starts every word with -, the step -1 half with +, so
    # the mod-2 sum of the halves is their disjoint union
    count = 0
    for d in _split_diagrams():
        p, m = d.pairing, 2 * d.n
        up, down = (sfh.decompose(D.ChordDiagram(sfh.bypass_rewire(p, (m - 1, 0, 1), s))).words for s in (1, -1))
        assert all(w.bits[0] == MINUS for w in up)
        assert all(w.bits[0] == PLUS for w in down)
        assert not up & down
        assert sfh.decompose(d).words == up | down
        count += 1
    assert count == 2806


def test_path_count_is_the_size_of_the_decomposition():
    for n in range(1, 10):
        for d in D.enumerate_diagrams(n):
            assert sfh._path_count(d.pairing) == len(sfh.decompose(d).words), d


@pytest.mark.parametrize("n", [20, 30])
def test_decompose_from_root_agrees_on_random_diagrams(n):
    rng = random.Random(n)
    for _ in range(8):
        d = uniform_diagram(n, rng)
        assert sfh.decompose(d) == oracles.decompose_from_root(d), d


def test_decompose_memory_is_its_word_set():
    # the walk keeps a stack of one pairing per split on its path and the
    # words it has reached, and once its answer is dropped nothing
    d = deep_split_diagram(14, 14)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        size = len(sfh.decompose(d).words)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size == 49150
    assert peak - start < 16 << 20, peak - start
    assert kept - start < 4 << 10, kept - start


def test_decompose_keeps_nothing_of_the_diagrams_it_was_asked_for():
    # every diagram with at most eight chords, 2,055 of them, decomposed
    # and dropped: a memo of their answers held about 1.1 MiB
    diagrams = [d for n in range(1, 9) for d in D.enumerate_diagrams(n)]
    assert len(diagrams) == 2055
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sizes = sum(len(sfh.decompose(d).words) for d in diagrams)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert sizes == sum(sfh._path_count(d.pairing) for d in diagrams)
    assert kept < 64 << 10, kept
    assert sfh.decompose(diagrams[-1]) is not sfh.decompose(diagrams[-1])


def test_phi_is_the_ends_of_the_sorted_decomposition():
    for n in range(1, 9):
        for d in D.enumerate_diagrams(n):
            words = sfh.decompose(d).sorted_words()
            assert sfh.phi(d) == (words[0], words[-1])


@pytest.mark.parametrize("order", ["phi", "decompose", "interleaved"])
def test_ends_fold_agrees_with_decompose(order):
    # phi and is_basis read the two ends of the decomposition off one path
    # each: in any order of calls with decompose, which rewires list
    # copies of the pairing, they agree with its word sets
    diagrams = [d for n in range(1, 10) for d in D.enumerate_diagrams(n)]
    if order == "interleaved":
        random.Random(20).shuffle(diagrams)

    def answer(d):
        return sfh.phi(d), sfh.is_basis(d)

    first = {}
    for i, d in enumerate(diagrams):
        if order == "phi" or order == "interleaved" and i % 2:
            first[d] = answer(d)
        else:
            sfh.decompose(d)
    for d in diagrams:
        words = sfh.decompose(d).words
        ends = min(words), max(words)
        for got in (first.get(d), answer(d)):
            if got is None:
                continue
            phi, basis = got
            assert phi == ends, d
            assert [(w.n, w.n_plus) for w in phi] == [(w.n, w.n_plus) for w in ends], d
            assert basis == (len(words) == 1), d


def test_ends_fold_builds_no_word_set(monkeypatch):
    # phi and is_basis build no element and run no decomposition walk: with
    # both made to fail, they still answer every diagram, and the answers
    # are the ends of decompose's word sets
    diagrams = [d for n in range(1, 8) for d in D.enumerate_diagrams(n)]

    def fail(*args):
        raise AssertionError("phi and is_basis built a word set")

    with monkeypatch.context() as m:
        m.setattr(sfh, "decompose", fail)
        m.setattr(sfh, "_path_count", fail)
        m.setattr(sfh.SfhElement, "_of", staticmethod(fail))
        got = {d: (sfh.phi(d), sfh.is_basis(d)) for d in diagrams}
    for d in diagrams:
        words = sfh.decompose(d).words
        assert got[d] == ((min(words), max(words)), len(words) == 1), d


@pytest.mark.parametrize("shape", ["nested", "comb"])
def test_decompose_from_root_agrees_on_1200_chords(shape):
    # both routes peel one chord per step; neither may recurse that deep,
    # and nor may the walks of phi and is_basis
    n = 1200
    if shape == "nested":
        pairs = ((i, 2 * n - 1 - i) for i in range(n))
    else:
        pairs = ((2 * i, 2 * i + 1) for i in range(n))
    d = D.from_pairing(pairs)
    (only,) = oracles.decompose_from_root(d).words
    assert sfh.phi(d) == (only, only) and sfh.is_basis(d)
    assert sfh.decompose(d).words == {only} and len(only.bits) == n - 1


def _lowest_stack_limit() -> int:
    """The lowest stack limit the interpreter accepts here: inspect does
    not see every call that the interpreter counts."""
    limit = sys.getrecursionlimit()
    try:
        for cap in itertools.count(len(inspect.stack(0))):
            try:
                sys.setrecursionlimit(cap)
                return cap
            except RecursionError:  # below the depth the interpreter counts
                continue
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("fold", ["decompose", "phi", "is_basis"])
def test_too_deep_walk_leaves_only_finished_entries(fold):
    # no walk recurses on a diagram whose paths a set can hold, so each
    # answers at the lowest stack limit
    d = deep_split_diagram(4, 4)
    dec = oracles.decompose_from_root(d)
    want = {
        "decompose": dec,
        "phi": (min(dec.words), max(dec.words)),
        "is_basis": len(dec.words) == 1,
    }[fold]
    low, limit = _lowest_stack_limit(), sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(low + 4)
        got = getattr(sfh, fold)(d)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def test_a_count_past_the_stack_is_too_deep():
    # past 64 chords decompose counts its paths first, in a fold that
    # recurses once per split along a path: past the stack that is TooDeep,
    # for the count alone too, and with room the walk gives the root
    # route's answer
    d = deep_split_diagram(60, 6)
    low, limit = _lowest_stack_limit(), sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(low + 4)
        for fold in (sfh.decompose, sfh.word_count):
            with pytest.raises(TooDeep):
                fold(d)
    finally:
        sys.setrecursionlimit(limit)
    assert sfh.decompose(d) == oracles.decompose_from_root(d)
    assert len(sfh.decompose(d).words) == sfh.word_count(d) == 254


def test_zero_from_pair_is_an_error_not_an_assert(monkeypatch):
    from sutura import arcs

    monkeypatch.setattr(arcs, "fbs", lambda w_minus, w_plus: None)
    monkeypatch.setattr(arcs, "surgery_along_system", lambda system, direction: D.ZERO)
    with pytest.raises(BrokenInvariant):
        sfh.from_pair(word("-+"), word("+-"))


def test_decompose_injective_and_nonzero():
    for n in range(1, 8):
        seen = set()
        for d in D.enumerate_diagrams(n):
            dec = sfh.decompose(d)
            assert dec.words
            assert dec.words not in seen
            seen.add(dec.words)


def test_even_cardinality_for_non_basis():
    for n in range(1, 8):
        for d in D.enumerate_diagrams(n):
            k = len(sfh.decompose(d).words)
            assert k == 1 or k % 2 == 0


def test_is_basis():
    assert sfh.is_basis(D.VACUUM)
    assert not sfh.is_basis(D.ZERO)
    fig15 = sfh.from_pair(word("--++"), word("+-+-"))
    assert not sfh.is_basis(fig15)
    basis_diagrams = {
        sfh.basis_diagram(w)
        for n in range(0, 6)
        for nm, np_ in gradings(n)
        for w in all_words(nm, np_)
    }
    for n in range(1, 7):
        for d in D.enumerate_diagrams(n):
            assert sfh.is_basis(d) == (d in basis_diagrams)


def test_phi_and_sandwich():
    assert sfh.phi(sfh.basis_diagram(word("-+-"))) == (word("-+-"), word("-+-"))
    fig15 = sfh.from_pair(word("--++"), word("+-+-"))
    assert sfh.phi(fig15) == (word("--++"), word("+-+-"))
    assert {str(w) for w in sfh.decompose(fig15).words} == {
        "--++", "-++-", "+--+", "+-+-",
    }
    pair_diagram = next(
        d
        for d in D.enumerate_diagrams(4)
        if {str(w) for w in sfh.decompose(d).words} == {"--+", "+--"}
    )
    assert sfh.phi(pair_diagram) == (word("--+"), word("+--"))
    with pytest.raises(ZeroElement):
        sfh.phi(D.ZERO)


def test_repr_tells_zero_from_the_vacuum_element():
    zero, vacuum = sfh.SfhElement.zero(), sfh.merge_elements(None, None)
    assert repr(zero) == "SfhElement({})"
    assert repr(vacuum) == "SfhElement({''})"
    assert repr(zero) != repr(vacuum)
    assert repr(sfh.decompose(D.parse("0-3,1-2,4-5"))) == "SfhElement({'-+', '+-'})"


def test_merge_elements():
    x = sfh.decompose(D.parse("0-3,1-2,4-5"))
    assert sfh.merge_elements(None, x) == sfh.B_PLUS(x)
    assert sfh.merge_elements(x, None) == sfh.B_MINUS(x)
    assert sfh.merge_elements(None, None).words == frozenset([Word()])
    zero = sfh.SfhElement.zero()
    assert sfh.merge_elements(zero, x).is_zero()
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            for a in D.enumerate_diagrams(n1):
                for b in D.enumerate_diagrams(n2):
                    lhs = sfh.decompose(D.merge(a, b))
                    rhs = sfh.merge_elements(sfh.decompose(a), sfh.decompose(b))
                    assert lhs == rhs


def test_merge_images_are_disjoint():
    # every contact element arises from exactly one split
    for n in range(1, 6):
        seen = {}
        for n1 in range(0, n):
            n2 = n - 1 - n1
            lefts = D.enumerate_diagrams(n1) if n1 else [None]
            rights = D.enumerate_diagrams(n2) if n2 else [None]
            for a in lefts:
                for b in rights:
                    m = D.merge(a, b)
                    assert m not in seen
                    seen[m] = (a, b)
        assert set(seen) == set(D.enumerate_diagrams(n))


def _has_outermost(d, u):
    return d.pairing[u] == (u + 1) % (2 * d.n)


def test_outermost_region_dictionary():
    # a diagram has an outermost chord at a distinguished slot exactly when
    # every word of its decomposition shows the matching symbol pattern,
    # exactly when the two extreme words do
    # the vacuum's empty word has no symbols to inspect, so start at two chords
    for n in range(2, 7):
        for d in D.enumerate_diagrams(n):
            m = 2 * n
            words = sfh.decompose(d).words
            lo, hi = sfh.phi(d)
            e = D.euler_class(d)
            nm = (n - 1 - e) // 2
            np_ = (n - 1 + e) // 2
            # base point: first symbol
            for sign, slot in ((0, m - 1), (1, 0)):
                diag = _has_outermost(d, slot)
                all_words_match = all(w.bits and w.bits[0] == sign for w in words)
                extremes = bool(lo.bits) and lo.bits[0] == sign and hi.bits[0] == sign
                assert diag == all_words_match == extremes, (d, sign)
            # root point: last symbol
            r = sfh.root_point(n, e)
            for sign, slot in ((1, (r - 1) % m), (0, r)):
                diag = _has_outermost(d, slot)
                all_match = all(w.bits and w.bits[-1] == sign for w in words)
                extremes = bool(lo.bits) and lo.bits[-1] == sign and hi.bits[-1] == sign
                assert diag == all_match == extremes, (d, sign, "root")
            # westside: (j+1)'th minus following  <->  chord at (-2j-1, -2j)
            for j in range(1, nm):
                slot = (m - 2 * j - 1) % m
                diag = _has_outermost(d, slot)
                def following_minus(w, jj=j):
                    pos = w.positions(MINUS)[jj]
                    return pos > 0 and w.bits[pos - 1] == 0
                all_match = all(following_minus(w) for w in words)
                extremes = following_minus(lo) and following_minus(hi)
                assert diag == all_match == extremes, (d, j, "west")
            # eastside mirror: (j+1)'th plus following <-> chord at (2j, 2j+1)
            for j in range(1, np_):
                slot = 2 * j
                diag = _has_outermost(d, slot)
                def following_plus(w, jj=j):
                    pos = w.positions(PLUS)[jj]
                    return pos > 0 and w.bits[pos - 1] == 1
                all_match = all(following_plus(w) for w in words)
                extremes = following_plus(lo) and following_plus(hi)
                assert diag == all_match == extremes, (d, j, "east")


@settings(deadline=None, max_examples=100)
@given(diagrams(n_max=12))
def test_decompose_agrees_with_root_route_hypothesis(d):
    assert sfh.decompose(d) == oracles.decompose_from_root(d)


@settings(deadline=None, max_examples=100)
@given(diagrams(n_max=12))
def test_from_pair_inverts_phi_hypothesis(d):
    # beyond the exhaustive sizes this drives multi-arc system surgery
    assert sfh.from_pair(*sfh.phi(d)) == d
