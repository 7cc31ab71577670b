"""The record types keep their value semantics: equal fields make equal
records with equal hashes, a field that differs makes them unequal, the
shared ones cannot be changed, and each holds only what it is built
from.  BoundedCategory builds its index from its objects, so the index
is not compared; an AttachingArc is its diagram and signature, with its
triviality and direction read off the signature; a CheckResult is
mutable, so it has no hash."""

import pytest

from sutura import arcs, sfh, stacking, verify
from sutura import diagram as D
from sutura.words import word


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
    rebuilt = stacking.BoundedCategory(cat.bottom, cat.top, cat.objects, cat.edges, cat.above)
    _equal(cat, rebuilt)
    assert rebuilt.index == cat.index == {d: i for i, d in enumerate(cat.objects)}
    assert all(rebuilt.leq(a, b) == cat.leq(a, b) for a in cat.objects for b in cat.objects)
    assert rebuilt.leq(low, high)
    fewer = stacking.BoundedCategory(cat.bottom, cat.top, cat.objects, cat.edges, cat.above[:-1])
    assert cat != fewer


def test_attaching_arc():
    d = D.parse("0-7,1-4,2-3,5-6")
    classes = arcs.find_attaching_arcs(d)
    for c, again in zip(classes, arcs.find_attaching_arcs(d)):
        _equal(c, again)
    assert arcs.AttachingArc._fields == ("diagram", "signature")
    c = next(c for c in classes if c.triviality == "nontrivial")
    _equal(c, arcs.AttachingArc(d, c.signature))
    assert repr(c) == f"AttachingArc(diagram={d!r}, signature={c.signature!r})"
    with pytest.raises(AttributeError):
        c.triviality = "supertrivial"
    # nothing read off the signature can be given beside it
    with pytest.raises(TypeError):
        arcs.AttachingArc(d)
    with pytest.raises(TypeError):
        arcs.AttachingArc(d, c.signature, "supertrivial")


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

