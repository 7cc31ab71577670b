"""Known-value tests of the benchmark's reference computations.

Run with `python3 bench/test_oracles.py` (or `python3 -m pytest bench`).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import oracles as o


def test_catalan_and_narayana():
    assert [o.catalan(n) for n in range(1, 11)] == [
        1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796,
    ]
    assert [o.narayana(5, e) for e in (-4, -2, 0, 2, 4)] == [1, 10, 20, 10, 1]
    assert [o.narayana(6, e) for e in (-5, -3, -1, 1, 3, 5)] == [1, 15, 50, 50, 15, 1]
    assert o.narayana(5, -1) == 0 and o.narayana(5, 6) == 0
    for n in range(1, 11):
        assert sum(o.narayana(n, e) for e in range(-n, n + 1)) == o.catalan(n)


def test_basis_count():
    # binomial(N-1, n-): words of N-1 letters with n- minus signs
    assert [o.basis_count(5, e) for e in (-4, -2, 0, 2, 4)] == [1, 4, 6, 4, 1]
    assert o.basis_count(1, 0) == 1


def test_leq_moves_minus_signs_right():
    assert o.leq("--++", "+-+-")
    assert o.leq("-+", "+-") and not o.leq("+-", "-+")
    assert o.leq("-+-", "-+-")
    assert not o.leq("--+", "-++")  # different gradings
    assert not o.leq("-++-", "+--+")  # incomparable
    assert not o.leq("+--+", "-++-")
    # comparable pairs of W(n-, n+) are Narayana-many: N(n+1, n+ - n-)
    for n_minus, n_plus in [(2, 2), (3, 2), (3, 3)]:
        words = ["".join(w) for w in set(itertools.permutations("-" * n_minus + "+" * n_plus))]
        pairs = sum(o.leq(a, b) for a in words for b in words)
        assert pairs == o.narayana(n_minus + n_plus + 1, n_plus - n_minus)


def test_interval_size():
    assert o.interval_size("--++", "++--") == 6
    assert o.interval_size("--++", "+-+-") == 5
    assert o.interval_size("-+-", "-+-") == 1
    assert o.interval_size("+-", "-+") == 0
    assert o.interval_size("+++", "+++") == 1
    for a, b in [("--+-+", "+-+--"), ("---+++", "+++---"), ("-+-+", "+-+-")]:
        brute = sum(
            o.leq(a, w) and o.leq(w, b)
            for w in {"".join(p) for p in itertools.permutations(a)}
        )
        assert o.interval_size(a, b) == brute


def test_uniform_matching_hits_each_matching_equally():
    # each of the C(2n+1, n) arrangements maps to one matching, and every
    # matching receives exactly 2n+1 of them
    for n in (1, 2, 3, 4):
        counts = Counter()
        for opens in itertools.combinations(range(2 * n + 1), n):
            steps = [1 if i in opens else -1 for i in range(2 * n + 1)]

            class Fixed:
                @staticmethod
                def shuffle(lst):
                    lst[:] = steps

            counts[o.uniform_matching(n, Fixed)] += 1
        assert set(counts) == set(o.all_matchings(n))
        assert set(counts.values()) == {2 * n + 1}
    rng = random.Random(5)
    for _ in range(200):
        assert o.is_noncrossing_matching(o.uniform_matching(rng.randrange(1, 12), rng))


def test_euler_class():
    assert o.euler_class((1, 0)) == 0
    assert o.euler_class(o.from_text("0-1,2-3")) == 1
    assert o.euler_class(o.from_text("0-3,1-2")) == -1
    for n in range(1, 8):
        by_e = Counter(o.euler_class(p) for p in o.all_matchings(n))
        assert by_e == {e: o.narayana(n, e) for e in by_e}
        assert sum(by_e.values()) == o.catalan(n)


def test_stacked_loops():
    assert o.stacked_loops((1, 0), (1, 0)) == 1
    a, b = o.from_text("0-1,2-3"), o.from_text("0-3,1-2")
    assert o.stacked_loops(a, b) == 2
    c, d = o.from_text("0-5,1-4,2-3"), o.from_text("0-1,2-5,3-4")
    assert (o.stacked_loops(c, d), o.stacked_loops(d, c)) == (1, 3)
    for p in o.all_matchings(5):
        assert o.stacked_loops(p, p) == 1


def test_basis_pairing():
    assert o.to_text(o.basis_pairing("")) == "0-1"
    assert o.to_text(o.basis_pairing("-+-")) == "0-7,1-6,2-5,3-4"
    assert o.to_text(o.basis_pairing("++")) == "0-1,2-3,4-5"


def test_decomposer():
    dec = o.Decomposer()
    # the four-term decomposition of the diagram with extremes (--++, +-+-)
    assert dec.words(o.from_text("0-3,1-2,4-9,5-8,6-7")) == {"--++", "-++-", "+--+", "+-+-"}
    # the (4, -1) table: six diagrams, three of them basis
    table = {dec.words(p) for p in o.all_matchings(4) if o.euler_class(p) == -1}
    assert table == {
        frozenset(s)
        for s in ({"--+"}, {"-+-"}, {"+--"}, {"--+", "-+-"}, {"--+", "+--"}, {"-+-", "+--"})
    }
    # each basis diagram decomposes to its own word
    for n in range(0, 7):
        for w in {"".join(p) for k in range(n + 1) for p in itertools.permutations("-" * k + "+" * (n - k))}:
            assert dec.words(o.basis_pairing(w)) == {w}


def _run_all() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok   {t.__name__}")
    return len(tests)


if __name__ == "__main__":
    print(f"{_run_all()} passed")
