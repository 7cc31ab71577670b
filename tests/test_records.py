"""The record types keep their value semantics: equal fields make equal
records with equal hashes, a field that differs makes them unequal, the
shared ones cannot be changed, and BoundedCategory, AttachingArc,
WordInterval and CheckResult keep their own rules (index is not
compared; the signature is compared but not shown; members default to
empty; a result is mutable, so it has no hash)."""

import pytest

from sutura import arcs, sfh, stacking, verify
from sutura import diagram as D
from sutura.words import WordInterval, interval, word


def _equal(a, b):
    assert a == b and hash(a) == hash(b)


def test_region():
    d = D.parse("0-5,1-4,2-3")
    first, again = D.regions(d), D.regions(d)
    for r, s in zip(first, again):
        assert r is not s
        _equal(r, s)
    assert len(set(first)) == len(first)
    r = first[0]  # the region of arc 0, which is positive
    assert (r.id, r.sign) == (0, 1)
    assert r == D.Region(0, 1, r.boundary_arcs, r.boundary_chords)
    assert r != D.Region(0, -1, r.boundary_arcs, r.boundary_chords)


def test_word_interval():
    lo, hi = word("--+"), word("+--")
    iv = interval(lo, hi)
    _equal(iv, interval(lo, hi))
    assert iv == WordInterval(lo, hi, iv.members)
    assert WordInterval(lo, hi).members == frozenset()
    assert WordInterval(lo, hi) != iv
    _equal(WordInterval(lo, hi), WordInterval(lo, hi, frozenset()))


def test_graded_operator():
    op = sfh.creation("west", 1)
    _equal(op, sfh.GradedOperator(op.name, op.word_action, op.on_diagram))
    assert op != sfh.GradedOperator(op.name, lambda w: frozenset(), op.on_diagram)
    with pytest.raises(AttributeError):
        sfh.B_MINUS.name = "B+"
    x = sfh.SfhElement.basis(word("-+"))
    assert op(x) == sfh.SfhElement.sum([op.word_action(word("-+"))])


def test_bounded_category_ignores_index():
    low, high = (sfh.basis_diagram(word(w)) for w in ("--++", "++--"))
    cat = stacking.bounded_category(low, high)
    again = stacking.bounded_category(low, high)
    assert cat is not again
    _equal(cat, again)
    reindexed = stacking.BoundedCategory(cat.bottom, cat.top, cat.objects, {}, cat.edges, cat.above)
    _equal(cat, reindexed)
    fewer = stacking.BoundedCategory(cat.bottom, cat.top, cat.objects, cat.index, cat.edges, cat.above[:-1])
    assert cat != fewer


def test_attaching_arc():
    d = D.parse("0-7,1-4,2-3,5-6")
    classes = arcs.find_attaching_arcs(d)
    for c, again in zip(classes, arcs.find_attaching_arcs(d)):
        _equal(c, again)
    c = classes[0]
    fields = ("diagram", "end1", "middle", "end2", "triviality", "direction", "super_kind")
    assert repr(c) == "AttachingArc(" + ", ".join(f"{f}={getattr(c, f)!r}" for f in fields) + ")"
    assert "signature" not in repr(c)
    other = arcs.AttachingArc(*(getattr(c, f) for f in fields), signature=c.signature + ("x",))
    assert repr(other) == repr(c) and other != c
    bare = arcs.AttachingArc(d, c.end1, c.middle, c.end2, c.triviality)
    assert (bare.direction, bare.super_kind, bare.signature) == (None, None, ())


def test_generalised_arc_is_shared_and_immutable():
    w = word("-+-+")
    arc = arcs.generalised_arc(w, "FA", 1, 1)
    assert arcs.generalised_arc(w, "FA", 1, 1) is arc
    _equal(arc, arcs.GeneralisedArc(w, "FA", 1, 1, arc.path_edges, arc.outward))
    assert arc.crossings == len(arc.path_edges)
    with pytest.raises(AttributeError):
        arc.path_edges = ()


def test_check_result():
    result = verify.CheckResult("counting", True, "all cases pass", 0.5)
    assert result == verify.CheckResult("counting", True, "all cases pass", 0.5)
    assert result != verify.CheckResult("counting", False, "all cases pass", 0.5)
    result.seconds = 0.25
    assert result.seconds == 0.25
    with pytest.raises(TypeError):
        hash(result)

