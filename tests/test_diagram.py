import inspect
import json

import pytest
from hypothesis import given, settings, strategies as st

from sutura import diagram as D
from sutura import words as W
from sutura.errors import BadArgument, BadPartition, CrossingChords, OddStep, ParseError

from strategies import diagrams


def test_from_pairing_examples():
    assert D.from_pairing([(0, 1)]) == D.VACUUM
    g = D.from_pairing([(5, 0), (4, 1), (2, 3)])
    assert D.serialize(g) == "0-5,1-4,2-3"
    with pytest.raises(CrossingChords):
        D.from_pairing([(0, 2), (1, 3)])
    with pytest.raises(BadPartition):
        D.from_pairing([(0, 1), (2, 4)])
    with pytest.raises(BadPartition):
        D.from_pairing([(0, 0), (1, 2)])


def test_public_constructor_always_validates():
    # trusted construction is the private ChordDiagram._of; the public
    # constructor takes the pairing alone and checks every one
    assert list(inspect.signature(D.ChordDiagram).parameters) == ["pairing"]
    with pytest.raises(TypeError):
        D.ChordDiagram((0, 0), True)
    with pytest.raises(TypeError):
        D.ChordDiagram((0, 0), _validated=True)
    for bad in ((0, 0), (1, 0, 3)):
        with pytest.raises(BadPartition):
            D.ChordDiagram(bad)
    with pytest.raises(CrossingChords):
        D.ChordDiagram((2, 3, 0, 1))
    assert D.ChordDiagram._of((1, 0)) == D.ChordDiagram([1, 0]) == D.VACUUM


def test_parity_consequence_is_checked():
    # an involution pairing equal parities must be rejected
    with pytest.raises(CrossingChords):
        D.ChordDiagram((2, 3, 0, 1))


def _involutions(points):
    """Every fixed-point-free involution of the given points, as pair lists."""
    if not points:
        yield []
        return
    first = points[0]
    for j in range(1, len(points)):
        rest = points[1:j] + points[j + 1 :]
        for pairs in _involutions(rest):
            yield [(first, points[j])] + pairs


def test_bracket_test_gives_opposite_parity():
    # _validate has no parity pass: every involution with m <= 10 that has
    # a chord with equal-parity ends fails the bracket test as a crossing
    for m in range(2, 11, 2):
        accepted = 0
        for pairs in _involutions(tuple(range(m))):
            pairing = [0] * m
            for a, b in pairs:
                pairing[a], pairing[b] = b, a
            if all((b - a) % 2 for a, b in pairs):
                try:
                    D.ChordDiagram(pairing)
                    accepted += 1
                except CrossingChords:
                    pass
            else:
                with pytest.raises(CrossingChords, match="two chords cross"):
                    D.ChordDiagram(pairing)
        assert accepted == W.catalan(m // 2)


def test_iter_diagrams_yields_increasing_pairings():
    # the order enumerate_diagrams promises, with no sort behind it
    for n in range(1, 11):
        pairings = [d.pairing for d in D.iter_diagrams(n)]
        assert len(pairings) == W.catalan(n)
        assert all(a < b for a, b in zip(pairings, pairings[1:]))
    assert [d.pairing for d in D.iter_diagrams(4)] == [
        d.pairing for d in D.enumerate_diagrams(4)
    ]
    for n in (0, -1):
        with pytest.raises(BadArgument):
            D.iter_diagrams(n)  # on the call, before any next()


def test_enumerate_counts_and_order():
    for n in range(1, 9):
        diagrams = D.enumerate_diagrams(n)
        assert len(diagrams) == W.catalan(n)
        assert diagrams == sorted(diagrams, key=lambda d: d.pairing)
        assert len(set(diagrams)) == len(diagrams)
    assert len(D.enumerate_diagrams(5)) == 42


def test_enumerate_diagrams_returns_a_fresh_list():
    # the diagrams are memoised per size; a caller's list is its own
    want = D.enumerate_diagrams(5)
    first = D.enumerate_diagrams(5)
    first.clear()
    second = D.enumerate_diagrams(5)
    second.append(D.VACUUM)
    third = D.enumerate_diagrams(5)
    assert len(third) == 42
    assert third == want == sorted(third, key=lambda d: d.pairing)


def test_euler_partition_matches_narayana():
    for n in range(1, 9):
        counts = {}
        for d in D.enumerate_diagrams(n):
            e = D.euler_class(d)
            counts[e] = counts.get(e, 0) + 1
        for e, c in counts.items():
            assert c == W.narayana(n, e)


def test_euler_examples():
    assert D.euler_class(D.VACUUM) == 0
    assert D.euler_class(D.parse("0-5,1-4,2-3")) == 0
    g = D.from_pairing([(11, 0), (10, 1), (9, 2), (8, 3), (4, 5), (6, 7)])
    assert D.euler_class(g) == 1


def test_regions():
    rs = D.regions(D.VACUUM)
    assert len(rs) == 2 and {r.sign for r in rs} == {1, -1}
    g = D.parse("0-5,1-4,2-3")
    rs = D.regions(g)
    assert len(rs) == 4
    for n in range(1, 7):
        for d in D.enumerate_diagrams(n):
            rs = D.regions(d)
            assert len(rs) == n + 1
            assert sum(r.sign for r in rs) == D.euler_class(d)
            # signs alternate across each chord
            by_chord = {}
            for r in rs:
                for c in r.boundary_chords:
                    by_chord.setdefault(c, []).append(r.sign)
            for signs in by_chord.values():
                assert sorted(signs) == [-1, 1]
            assert set(by_chord) == set(range(n))
            # the boundary arcs partition the circle, one parity per region
            arcs = sorted(k for r in rs for k in r.boundary_arcs)
            assert arcs == list(range(2 * n))
            for r in rs:
                assert {1 if k % 2 == 0 else -1 for k in r.boundary_arcs} == {r.sign}


def _orbit_euler_class(d):
    """Oracle: walk every region and add up the signs."""
    return sum(D.orbit_sign(o) for o in D.region_orbits(d.pairing))


def test_euler_class_closed_form_oracle():
    for n in range(1, 10):
        for d in D.enumerate_diagrams(n):
            assert D.euler_class(d) == _orbit_euler_class(d)


@settings(max_examples=100, deadline=None)
@given(diagrams(n_max=12))
def test_euler_class_matches_region_walk_hypothesis(d):
    assert D.euler_class(d) == _orbit_euler_class(d)


def test_rotate_points():
    assert D.rotate_points(D.VACUUM, 2) == D.VACUUM
    g = D.parse("0-5,1-4,2-3")
    assert D.rotate_points(g, 2 * g.n) == g
    assert D.serialize(D.rotate_points(g, 2)) == "0-3,1-2,4-5"
    with pytest.raises(OddStep):
        D.rotate_points(g, 1)
    for n in range(1, 6):
        ds = D.enumerate_diagrams(n)
        assert {D.rotate_points(d, 2) for d in ds} == set(ds)
        for d in ds:
            out = d
            for _ in range(n):
                out = D.rotate_points(out, 2)
            assert out == d


def test_merge_split_calibration():
    assert D.merge(None, None) == D.VACUUM
    # merge(null, vacuum) must be the creation at the base point
    g = D.merge(None, D.VACUUM)
    assert D.serialize(g) == "0-1,2-3"
    g = D.merge(D.VACUUM, None)
    assert D.serialize(g) == "0-3,1-2"
    assert D.unique_split(D.VACUUM) == (None, None)
    assert D.unique_split(D.parse("0-1,2-3")) == (None, D.VACUUM)


def test_merge_split_roundtrip_and_euler():
    for n in range(1, 7):
        for d in D.enumerate_diagrams(n):
            d1, d2 = D.unique_split(d)
            assert D.merge(d1, d2) == d
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            if n1 + n2 > 4:
                continue
            for a in D.enumerate_diagrams(n1):
                for b in D.enumerate_diagrams(n2):
                    assert D.euler_class(D.merge(a, b)) == D.euler_class(a) + D.euler_class(b)


def test_merge_establishes_catalan_recursion():
    for n in range(0, 7):
        total = 0
        for n1 in range(0, n + 1):
            n2 = n - n1
            c1 = W.catalan(n1) if n1 else 1
            c2 = W.catalan(n2) if n2 else 1
            total += c1 * c2
        assert total == W.catalan(n + 1)
        built = set()
        for n1 in range(0, n + 1):
            n2 = n - n1
            lefts = D.enumerate_diagrams(n1) if n1 else [None]
            rights = D.enumerate_diagrams(n2) if n2 else [None]
            for a in lefts:
                for b in rights:
                    built.add(D.merge(a, b))
        assert built == set(D.enumerate_diagrams(n + 1))


def test_serialize_parse():
    assert D.serialize(D.VACUUM) == "0-1"
    g = D.parse("0-5,1-4,2-3")
    assert D.parse(D.serialize(g)) == g
    with pytest.raises(CrossingChords):
        D.parse("0-2,1-3")
    with pytest.raises(ParseError):
        D.parse("zebra")


def test_json_export():
    payload = D.to_json_dict(D.parse("0-5,1-4,2-3"))
    assert payload["N"] == 3
    assert payload["euler_class"] == 0
    assert len(payload["regions"]) == 4
    json.dumps(payload)


@given(st.integers(1, 6), st.integers(0, 10 ** 6))
def test_serialize_roundtrip_hypothesis(n, pick):
    ds = D.enumerate_diagrams(n)
    d = ds[pick % len(ds)]
    assert D.parse(D.serialize(d)) == d


def test_delete_points_examples():
    # unpaired points join their partners; the wrapped pair (5, 0) makes
    # the old point 4 the new base point
    assert D.delete_points(D.parse("0-5,1-4,2-3").pairing, 0) == D.parse("0-1,2-3").pairing
    assert D.delete_points(D.parse("0-1,2-5,3-4").pairing, 5) == D.parse("0-3,1-2").pairing
    assert D.delete_points(D.parse("0-5,1-2,3-4").pairing, 5) == D.parse("0-3,1-2").pairing
    assert D.insert_chord(D.parse("0-1").pairing, 3) == D.parse("0-3,1-2").pairing


@settings(max_examples=60, deadline=None)
@given(diagrams(n_max=12))
def test_insert_chord_and_delete_points_are_inverse(d):
    for s in range(2 * d.n + 2):
        grown = D.ChordDiagram(D.insert_chord(d.pairing, s))
        assert D.delete_points(grown.pairing, s) == d.pairing
        sign = 1 if s % 2 == 0 else -1
        assert D.euler_class(d) == D.euler_class(grown) - sign
