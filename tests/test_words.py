import itertools

import pytest
from hypothesis import given, strategies as st

import sutura
from sutura import oracles
from sutura import words as W
from sutura.errors import (
    BadArgument,
    GradingMismatch,
    LengthMismatch,
    NotComparable,
    NotMonotone,
    ParseError,
)
from sutura.words import Word, word

from strategies import maximum_word, minimum_word


def test_word_parsing_and_gradings():
    w = word("-+-++")
    assert (w.n_minus, w.n_plus, w.n, w.e) == (2, 3, 5, 1)
    assert str(w) == "-+-++"
    with pytest.raises(ParseError):
        word("-+x")


@pytest.mark.parametrize(
    "build",
    [
        lambda: sutura.word(None),
        lambda: sutura.word(5),
        lambda: sutura.Word(5),
        lambda: sutura.Word(None),
    ],
    ids=["word(None)", "word(5)", "Word(5)", "Word(None)"],
)
def test_non_strings_raise_parse_error(build):
    # a value that is neither a string nor a sequence of bits is a
    # ParseError, not a built-in exception from reading it
    with pytest.raises(ParseError):
        build()


def test_word_counts_and_rejection():
    for n in range(5):
        for bits in itertools.product((-1, 0, 1, 2), repeat=n):
            if any(b not in (0, 1) for b in bits):
                with pytest.raises(ParseError):
                    Word(bits)
                continue
            w = Word(bits)
            n_plus = sum(1 for b in bits if b == 1)
            n_minus = sum(1 for b in bits if b == 0)
            assert (w.n, w.n_plus, w.n_minus) == (len(bits), n_plus, n_minus)
            assert w.e == n_plus - n_minus
            assert w.grading == (n_minus, n_plus)


def test_partial_order_examples():
    assert W.partial_leq(word("--+"), word("+--"))
    assert W.partial_leq(word("--+"), word("-+-"))
    assert not W.partial_leq(word("-++-"), word("+--+"))
    assert not W.partial_leq(word("+--+"), word("-++-"))
    w = word("-+-+")
    assert W.partial_leq(w, w)
    with pytest.raises(GradingMismatch):
        W.partial_leq(word("-+"), word("++"))


def _texts(n):
    """Every word of length n as a string, in string order with '-' before '+'."""
    return ["".join(t) for t in itertools.product("-+", repeat=n)]


def test_word_matches_string_oracle():
    built = {}
    for n in range(11):
        texts = _texts(n)
        ws = [word(t) for t in texts]
        for t, w in zip(texts, ws):
            nm, np_ = t.count("-"), t.count("+")
            assert (w.n, w.n_plus, w.grading, w.e, str(w)) == (n, np_, (nm, np_), np_ - nm, t)
            assert w.bits == tuple("-+".index(c) for c in t)
            # str reads the key's bits at once; the letters joined one by one
            # are the reference, the empty word included
            assert str(w) == "".join("-+"[b] for b in w.bits)
            mask = sum(b << n - 1 - p for p, b in enumerate(w.bits))
            assert W.from_mask(mask, n) == w and W.from_mask(mask, n).n_plus == np_
            assert w.positions(W.MINUS) == [i for i, c in enumerate(t) if c == "-"]
            assert w.positions(W.PLUS) == [i for i, c in enumerate(t) if c == "+"]
            for p in range(n + 1):
                for sign, c in ((W.MINUS, "-"), (W.PLUS, "+")):
                    assert str(w.insert(p, sign)) == t[:p] + c + t[p:]
            for p in range(n):
                v = w.delete(p)
                assert (str(v), v.n, v.n_plus) == (t[:p] + t[p + 1 :], n - 1, (t[:p] + t[p + 1 :]).count("+"))
            built[w] = t
        # string order is lexicographic order: every pair up to n = 8, and
        # consecutive words (with each word against itself) up to n = 10
        pairs = itertools.product(range(len(ws)), repeat=2) if n <= 8 else (
            (i, j) for i in range(len(ws)) for j in (i, i + 1) if j < len(ws))
        for i, j in pairs:
            assert (ws[i] < ws[j]) == (i < j)
            assert W.lex_compare(ws[i], ws[j]) == (i > j) - (i < j)
    # equality and hashing separate lengths, edited words hash as parsed ones
    assert len(built) == 2**11 - 1
    for w, t in built.items():
        assert built[word(t)] == t and built[w.insert(0, W.PLUS).delete(0)] == t
    for a, b in (("", "-"), ("-", "--"), ("", "--"), ("+", "-+"), ("+-", "-+-")):
        assert word(a) != word(b) and word(b) not in {word(a)}


@pytest.mark.parametrize("mask, n", [(-1, 3), (8, 3), (1, 0), (0, -1)])
def test_from_mask_rejects_a_mask_that_is_no_word(mask, n):
    with pytest.raises(BadArgument):
        W.from_mask(mask, n)


def test_lex_sorted_extremes():
    for n in range(9):
        ws = frozenset(word("".join(t)) for t in itertools.product("-+", repeat=n))
        ordered = W.lex_sorted(ws)
        assert (min(ws), max(ws)) == (ordered[0], ordered[-1])


def test_lex_compare():
    assert W.lex_compare(word("-+"), word("+-")) == -1
    assert W.lex_compare(word("--+"), word("-+-")) == -1
    assert W.lex_compare(word("+-"), word("+-")) == 0
    assert [str(w) for w in W.all_words(2, 1)] == ["--+", "-+-", "+--"]
    with pytest.raises(LengthMismatch):
        W.lex_compare(word("-"), word("-+"))


def test_all_words_counts():
    assert W.all_words(0, 0) == [Word()]
    assert len(W.all_words(2, 1)) == 3
    assert len(W.all_words(2, 2)) == 6
    for bad in ((-1, 0), (0, -1)):
        with pytest.raises(BadArgument):
            W.all_words(*bad)


def test_partial_order_is_order_and_refines_lex():
    for n in range(0, 8):
        for nm in range(n + 1):
            ws = W.all_words(nm, n - nm)
            for a in ws:
                assert W.partial_leq(a, a)
                for b in ws:
                    assert W.partial_leq(a, b) == oracles.partial_leq_baseball(a, b)
                    if W.partial_leq(a, b):
                        assert W.lex_compare(a, b) <= 0
                        if W.partial_leq(b, a):
                            assert a == b
                        for c in ws:
                            if W.partial_leq(b, c):
                                assert W.partial_leq(a, c)


def _componentwise_leq(a, b):
    """The order as first written: each minus sign of b at or right of a's."""
    return all(p <= q for p, q in zip(a.positions(W.MINUS), b.positions(W.MINUS)))


def test_partial_leq_matches_both_oracles():
    for n in range(10):
        for nm in range(n + 1):
            ws = W.all_words(nm, n - nm)
            for a in ws:
                for b in ws:
                    assert W.partial_leq(a, b) == oracles.partial_leq_baseball(a, b) == _componentwise_leq(a, b)


def test_extreme_words():
    for nm in range(4):
        for np_ in range(4):
            lo = minimum_word(nm, np_)
            hi = maximum_word(nm, np_)
            for w in W.all_words(nm, np_):
                assert W.partial_leq(lo, w) and W.partial_leq(w, hi)


def test_narayana_and_catalan():
    assert W.narayana(5, 0) == 20
    assert W.narayana(4, -1) == 6
    assert W.catalan(4) == 14
    assert [W.narayana(5, e) for e in (-4, -2, 0, 2, 4)] == [1, 10, 20, 10, 1]
    assert W.narayana(4, 0) == 0  # impossible parity gives 0, not an error
    assert W.narayana(3, 7) == 0
    for n in range(0, 9):
        for e in range(-n, n + 1):
            assert W.narayana(n, e) == oracles.narayana_recursive(n, e)
        assert sum(W.narayana(n, e) for e in range(-n, n + 1)) == W.catalan(n) or n == 0


def test_comparable_pairs_counts():
    assert len(W.comparable_pairs(2, 1)) == 6
    assert len(W.comparable_pairs(1, 0)) == 1
    assert len(W.comparable_pairs(2, 2)) == 20 == W.narayana(5, 0)
    for n in range(0, 8):
        for nm in range(n + 1):
            e = (n - nm) - nm
            assert len(W.comparable_pairs(nm, n - nm)) == W.narayana(n + 1, e)


def test_comparable_pairs_match_filter_oracle():
    # the generated pairs are exactly the filtered square, list and order
    for n in range(0, 8):
        for nm in range(n + 1):
            ws = W.all_words(nm, n - nm)
            oracle = [(a, b) for a in ws for b in ws if W.partial_leq(a, b)]
            assert W.comparable_pairs(nm, n - nm) == oracle


def test_monotone_bijection_roundtrip():
    for nm in range(0, 4):
        for np_ in range(0, 4):
            for (w0, w1) in W.comparable_pairs(nm, np_):
                f = W.pair_to_monotone(w0, w1)
                assert len(f) == w0.n + 1
                assert all(f[i] <= i + 1 for i in range(len(f)))
                assert len(set(f)) == w0.n_plus + 1
                assert W.monotone_to_pair(f) == (w0, w1)
    with pytest.raises(NotComparable):
        W.pair_to_monotone(word("+-"), word("-+"))
    with pytest.raises(NotMonotone):
        W.monotone_to_pair((1, 3, 2))
    with pytest.raises(NotMonotone):
        W.monotone_to_pair((1, 3, 3))


def test_monotone_all_plus_staircase():
    w = word("+++")
    f = W.pair_to_monotone(w, w)
    assert f == (1, 2, 3, 4)


def test_monotone_count_matches_narayana():
    assert oracles.count_monotone(4, 2) == 6 == W.narayana(4, -1)


def test_interval():
    w = word("-+-")
    assert W.interval(w, w) == frozenset([w])
    iv = W.interval(word("--+"), word("+--"))
    assert iv == frozenset(W.all_words(2, 1))
    # the four-term decomposition of the paper's example diagram is a
    # proper subset of this five-element interval
    iv = W.interval(word("--++"), word("+-+-"))
    assert {str(w) for w in iv} == {"--++", "-+-+", "-++-", "+--+", "+-+-"}
    with pytest.raises(NotComparable):
        W.interval(word("+-"), word("-+"))


def test_interval_matches_filter_oracle():
    # the former route: filter all of W(n-, n+) by the two order tests
    for n in range(8):
        for nm in range(n + 1):
            ws = W.all_words(nm, n - nm)
            for w0, w1 in W.comparable_pairs(nm, n - nm):
                want = {w for w in ws if W.partial_leq(w0, w) and W.partial_leq(w, w1)}
                assert W.interval(w0, w1) == want


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 10 ** 6))
def test_pair_roundtrip_hypothesis(nm, np_, pick):
    pairs = W.comparable_pairs(nm, np_)
    w0, w1 = pairs[pick % len(pairs)]
    assert W.monotone_to_pair(W.pair_to_monotone(w0, w1)) == (w0, w1)
