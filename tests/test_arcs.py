import hashlib
import json
import random
from collections import Counter, deque

import pytest

from sutura import arcs
from sutura import diagram as D
from sutura import oracles, sfh
from sutura.errors import (
    ArcNotDefined,
    ArcNotOnDiagram,
    BadArgument,
    BrokenInvariant,
    MoveUndefined,
    TrivialArc,
    ZeroElement,
)
from sutura.words import MINUS, PLUS, all_words, comparable_pairs, word

from strategies import arc_descriptor, gradings, single_arc_system, strands, super_kind, system_json


def nontrivial_arcs(d):
    return [c for c in arcs.find_attaching_arcs(d) if c.triviality == "nontrivial"]


def basis_reading(c):
    """(forwards, fa_indices) of a nontrivial arc on a basis diagram, and
    (None, None) for any other arc.

    The arc is forwards when the outer region of its prior chord (the
    earlier of its end chords in the base fold's order, sfh.base_chords),
    that chord's face away from the arc, is negative.  fa_indices are
    the (i, j) of the move FE(i, j) or BE(i, j) it realises: the i of
    the minus (the j of the plus, when backwards) that created the
    prior chord in the base fold, and the j of the plus (i of the
    minus) that created the latter chord in the root fold.  A chord
    that no letter of the wanted sign created would make the reading
    wrong, so it raises BrokenInvariant.
    """
    dec = sfh.decompose(c.diagram) if c.triviality == "nontrivial" else None
    if dec is None or len(dec.words) != 1:
        return None, None
    (w,) = dec.words
    base, faces, chords = sfh.base_chords(w), arcs.Faces(c.diagram), c.diagram.chords()
    end1, _middle, end2 = arc_descriptor(c)
    (prior_si, arc_face), (latter_si, _) = sorted(
        (end1, end2), key=lambda end: base.index(chords[end[0]])
    )
    outer_face = faces.face_of(prior_si, arcs.LEFT)
    if outer_face == arc_face:
        outer_face = faces.face_of(prior_si, arcs.RIGHT)
    forwards = D.orbit_sign(faces.cycles[outer_face]) == -1
    want_prior, want_latter = (MINUS, PLUS) if forwards else (PLUS, MINUS)
    try:
        i = w.positions(want_prior).index(base.index(chords[prior_si])) + 1
        j = w.positions(want_latter).index(sfh.root_chords(w).index(chords[latter_si])) + 1
    except ValueError:
        raise BrokenInvariant(f"a nontrivial arc on {w} realises no elementary move") from None
    return forwards, ((i, j) if forwards else (j, i))


def test_elementary_move_paper_examples():
    assert str(arcs.elementary_move(word("---++++"), "FE", 3, 2)) == "--++-++"
    assert str(arcs.elementary_move(word("---++++"), "FE", 2, 2)) == "-++--++"
    assert str(arcs.elementary_move(word("--++--++"), "FE", 1, 4)) == "++++----"
    with pytest.raises(MoveUndefined):
        arcs.elementary_move(word("+-"), "FE", 1, 1)
    with pytest.raises(MoveUndefined):
        arcs.elementary_move(word("-+"), "BE", 1, 1)


def test_elementary_moves_preserve_grading_and_direction():
    from sutura.words import partial_leq

    for n in range(1, 6):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                for i in range(1, nm + 1):
                    for j in range(1, np_ + 1):
                        if arcs.move_exists(w, "FE", i, j):
                            out = arcs.elementary_move(w, "FE", i, j)
                            assert out.grading == w.grading
                            assert partial_leq(w, out)
                        else:
                            out = arcs.elementary_move(w, "BE", i, j)
                            assert partial_leq(out, w)


def test_vacuum_classes_supertrivial():
    classes = arcs.find_attaching_arcs(D.VACUUM)
    assert classes
    assert all(c.triviality == "supertrivial" for c in classes)
    assert all(c.direction in ("upwards", "downwards") for c in classes)
    assert all(super_kind(c) in ("direct", "indirect") for c in classes)


def test_minimal_nontrivial_class_and_triple():
    g = sfh.basis_diagram(word("-+"))
    nontriv = nontrivial_arcs(g)
    # one unordered homotopy class meets three distinct chords here; its two
    # surgeries generate the full triple
    assert len(nontriv) == 1
    c = nontriv[0]
    assert basis_reading(c) == (True, (1, 1))
    triple = arcs.bypass_triple(g, c)
    assert {D.serialize(x) for x in triple} == {
        "0-5,1-4,2-3", "0-1,2-5,3-4", "0-3,1-2,4-5",
    }


def test_word_arc_dictionary():
    for n in range(1, 6):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                g = sfh.basis_diagram(w)
                readings = [basis_reading(c) for c in nontrivial_arcs(g)]
                fwd = {ij for forwards, ij in readings if forwards}
                bwd = {ij for forwards, ij in readings if not forwards}
                fe = {
                    (i, j)
                    for i in range(1, nm + 1)
                    for j in range(1, np_ + 1)
                    if arcs.strict_move_exists(w, "FE", i, j)
                }
                be = {
                    (i, j)
                    for i in range(1, nm + 1)
                    for j in range(1, np_ + 1)
                    if arcs.strict_move_exists(w, "BE", i, j)
                }
                assert fwd == fe and bwd == be, w


def test_single_surgery_realizes_moves():
    for n in range(1, 5):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                g = sfh.basis_diagram(w)
                for c in nontrivial_arcs(g):
                    forwards, (i, j) = basis_reading(c)
                    if forwards:
                        out = arcs.surgery(g, c, "up")
                        assert out == sfh.basis_diagram(arcs.elementary_move(w, "FE", i, j))
                        down = arcs.surgery(g, c, "down")
                        assert sfh.decompose(down).words == {
                            w, arcs.elementary_move(w, "FE", i, j)
                        }
                    else:
                        out = arcs.surgery(g, c, "down")
                        assert out == sfh.basis_diagram(arcs.elementary_move(w, "BE", i, j))


def test_trivial_arc_surgery():
    for n in range(1, 5):
        for d in D.enumerate_diagrams(n):
            for c in arcs.find_attaching_arcs(d):
                if c.triviality == "nontrivial":
                    continue
                up = arcs.surgery(d, c, "up")
                down = arcs.surgery(d, c, "down")
                if c.direction == "upwards":
                    assert up == d and D.is_zero(down)
                else:
                    assert down == d and D.is_zero(up)


def test_the_arc_layer_rejects_zero_and_negative_arc_counts():
    # zero has no chords, faces or arcs: each entry point says so with a
    # SuturaError rather than an AttributeError off the zero marker
    rng = random.Random(0)
    for call in (
        lambda: arcs.find_attaching_arcs(D.ZERO),
        lambda: arcs.up_moves(D.ZERO),
        lambda: arcs.random_system(D.ZERO, 1, rng),
        lambda: arcs.BypassSystem.bare(D.ZERO),
        lambda: arcs.Faces(D.ZERO),
    ):
        with pytest.raises(ZeroElement):
            call()
    with pytest.raises(BadArgument):
        arcs.random_system(D.parse("0-1,2-3"), -1, rng)


def test_surgery_absorbs_zero_and_checks_diagram():
    g = sfh.basis_diagram(word("-+"))
    c = nontrivial_arcs(g)[0]
    assert D.is_zero(arcs.surgery(D.ZERO, c, "up"))
    with pytest.raises(ArcNotOnDiagram):
        arcs.surgery(sfh.basis_diagram(word("+-")), c, "up")
    with pytest.raises(BadArgument):
        arcs.surgery(g, c, "sideways")
    # four outermost chords have no nontrivial class (each chord's inner
    # face holds that chord alone), so a signature naming three of them
    # is no class, and surgery must not rewire chords no bypass joins
    four = D.parse("0-1,2-3,4-5,6-7")
    fake = arcs.AttachingArc(four, (0, 1, 2, (1,)))
    for direction in ("up", "down"):
        with pytest.raises(ArcNotOnDiagram):
            arcs.surgery(four, fake, direction)
    with pytest.raises(TrivialArc):
        trivial = next(
            x for x in arcs.find_attaching_arcs(g) if x.triviality != "nontrivial"
        )
        arcs.bypass_triple(g, trivial)


def test_broken_triple_is_an_error_not_an_assert(monkeypatch):
    # the guard must survive python -O, so it cannot be an assert
    g = sfh.basis_diagram(word("-+"))
    c = nontrivial_arcs(g)[0]
    monkeypatch.setattr(arcs, "surgery", lambda d, arc, direction: d)
    with pytest.raises(BrokenInvariant):
        arcs.bypass_triple(g, c)


def test_triples_sum_to_zero():
    for n in range(1, 6):
        for d in D.enumerate_diagrams(n):
            for c in nontrivial_arcs(d):
                a, b, cc = arcs.bypass_triple(d, c)
                assert len({a, b, cc}) == 3
                assert D.euler_class(a) == D.euler_class(b) == D.euler_class(cc)
                total = sfh.decompose(a) + sfh.decompose(b) + sfh.decompose(cc)
                assert total.is_zero()


def _induced_arc(diagram, arc, direction):
    """On the surgered diagram, the arc continuing the triple cycle: the
    class whose same-direction surgery moves one more step around the
    bypass triple, found by search."""
    back = "down" if direction == "up" else "up"
    first = arcs.surgery(diagram, arc, direction)
    other = arcs.surgery(diagram, arc, back)
    for cand in nontrivial_arcs(first):
        if arcs.surgery(first, cand, direction) == other and arcs.surgery(first, cand, back) == diagram:
            return cand
    raise AssertionError("no continuation arc found")


def test_triple_cycle_via_induced_arcs():
    for w in (word("-+"), word("+-+"), word("--+")):
        g = sfh.basis_diagram(w)
        for c in nontrivial_arcs(g)[:2]:
            cur_d, cur_c = g, c
            for _ in range(3):
                nxt = arcs.surgery(cur_d, cur_c, "up")
                cur_c = _induced_arc(cur_d, cur_c, "up")
                cur_d = nxt
            assert cur_d == g


def _chord_index(d, point):
    """Index into d.chords() of the chord through a point."""
    low = min(point, d.pairing[point])
    return next(k for k, (a, _b) in enumerate(d.chords()) if a == low)


def test_generic_engine_matches_decompose_split():
    for n in range(2, 6):
        for d in D.enumerate_diagrams(n):
            q = d.pairing[0]
            if q in (1, 2 * n - 1):
                continue
            want = {sfh.bypass_rewire(d.pairing, (2 * n - 1, 0, 1), step) for step in (1, -1)}
            si2 = _chord_index(d, 0)
            ends = {_chord_index(d, 2 * n - 1), _chord_index(d, 1)}
            found = False
            for c in nontrivial_arcs(d):
                crossed, first, second, _order = c.signature
                if crossed != si2 or {first, second} != ends:
                    continue
                up = arcs.surgery(d, c, "up")
                down = arcs.surgery(d, c, "down")
                if {up.pairing, down.pairing} == want:
                    found = True
                    break
            assert found, d


def test_generalised_arc_existence_matches_words():
    for n in range(1, 6):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                for i in range(1, nm + 1):
                    for j in range(1, np_ + 1):
                        fa = arcs.move_exists(w, "FE", i, j)
                        assert fa != arcs.move_exists(w, "BE", i, j)
                        kind = "FA" if fa else "BA"
                        g = arcs.generalised_arc(w, kind, i, j)
                        assert g.crossings % 2 == 1
                        with pytest.raises(ArcNotDefined):
                            arcs.generalised_arc(w, "BA" if fa else "FA", i, j)


def test_generalised_arc_out_of_range_is_arc_not_defined():
    # an index 0 or one past the count of its sign is a SuturaError, not a
    # read of a chord list at a wrapped or missing position
    for n in range(1, 6):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                bad = [(i, j) for i in (0, nm + 1) for j in range(np_ + 2)]
                bad += [(i, j) for i in range(1, nm + 1) for j in (0, np_ + 1)]
                for kind in ("FA", "BA"):
                    for i, j in bad:
                        with pytest.raises(ArcNotDefined):
                            arcs.generalised_arc(w, kind, i, j)


def test_block_adjacent_generalised_arc_is_single():
    for n in range(1, 6):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                for i in range(1, nm + 1):
                    for j in range(1, np_ + 1):
                        if arcs.strict_move_exists(w, "FE", i, j):
                            g = arcs.generalised_arc(w, "FA", i, j)
                            assert g.crossings == 3
                            assert len(arcs.nicely_ordered_system(w, [g]).arc_ids) == 1


def test_triple_relation_is_symmetric():
    # three same-direction surgeries return the start: equivalently, the
    # unordered triple found from one member is found from all three
    for n in range(1, 6):
        triples_from = {}
        for d in D.enumerate_diagrams(n):
            triples_from[d] = {
                frozenset(x.pairing for x in arcs.bypass_triple(d, c))
                for c in nontrivial_arcs(d)
            }
        for d, triples in triples_from.items():
            for triple in triples:
                for pairing in triple:
                    other = D.ChordDiagram(pairing)
                    assert triple in triples_from[other], (d, triple)


def test_single_arc_route_matches_planar_map_route():
    # single arcs are classified and surgered on the pairing; the
    # BypassSystem realisation stays the reference, planarity included
    for n in range(1, 7):
        for d in D.enumerate_diagrams(n):
            for c in arcs.find_attaching_arcs(d):
                system = single_arc_system(c)
                system.validate()
                for direction in ("up", "down"):
                    want = arcs.surgery_along_system(system, direction)
                    assert arcs.surgery(d, c, direction) == want, (d, c, direction)
                if c.triviality == "supertrivial":
                    _ends, order = strands(system)[c.signature[0]]  # arc 0: site = index
                    assert (order[1] == 1) == (super_kind(c) == "direct"), (d, c)


def test_bypass_rewire_needs_three_chords():
    with pytest.raises(TrivialArc):
        sfh.bypass_rewire(D.parse("0-1,2-5,3-4").pairing, (0, 1, 2), 1)


def test_basis_reading_only_on_nontrivial_arcs_of_basis_diagrams():
    # forwards and fa_indices are read off the basis word; every other arc
    # reads None for both
    off_basis = 0
    for n in range(1, 6):
        for d in D.enumerate_diagrams(n):
            basis = sfh.is_basis(d)
            for c in arcs.find_attaching_arcs(d):
                forwards, fa_indices = basis_reading(c)
                if basis and c.triviality == "nontrivial":
                    assert isinstance(forwards, bool), (d, c)
                    assert isinstance(fa_indices, tuple) and len(fa_indices) == 2, (d, c)
                else:
                    assert forwards is None and fa_indices is None, (d, c)
                    off_basis += not basis and c.triviality == "nontrivial"
    assert off_basis > 0


def test_cached_arc_routes_match_the_classification():
    # a class is its memoised signature; its triviality, read off how many
    # of its sites lie on the crossed chord, agrees with how many distinct
    # chords it meets, and only a trivial class has a direction
    kinds = {3: "nontrivial", 2: "slightly_trivial", 1: "supertrivial"}
    for n in range(1, 7):
        for d in D.enumerate_diagrams(n):
            classes = arcs.find_attaching_arcs(d)
            assert arcs._arc_signatures(d) == tuple(c.signature for c in classes)
            for c in classes:
                assert c.triviality == kinds[len(set(c.signature[:3]))], c
                assert (c.direction is None) == (c.triviality == "nontrivial"), c


def test_arc_classes_are_pinned():
    # every class of every diagram with N <= 6, in find_attaching_arcs
    # order: its descriptor and classification, and its realisation as a
    # one-arc system; the digest reads no signature, so it pins the
    # enumeration order and the classification whatever the encoding
    digest = hashlib.sha256()
    for n in range(1, 7):
        for d in D.enumerate_diagrams(n):
            for c in arcs.find_attaching_arcs(d):
                cls = (*arc_descriptor(c), c.triviality, c.direction, super_kind(c))
                digest.update(repr(cls).encode())
                digest.update(json.dumps(system_json(single_arc_system(c))).encode())
    assert digest.hexdigest() == "09dfaa22dedf75bf911f1957ae5c15e3588b447eccc04c12c3d391125acc654f"


def test_distinct_arc_classes_are_unequal():
    # classes that differ only in the order of their sites are distinct
    for n in range(1, 7):
        for d in D.enumerate_diagrams(n):
            classes = arcs.find_attaching_arcs(d)
            assert len(set(classes)) == len(classes)


def test_unknown_move_kind_is_rejected():
    w = word("-+-+")
    for call in (
        lambda: arcs.move_exists(w, "fe", 1, 1),
        lambda: arcs.move_exists(w, "xx", 0, 0),
        lambda: arcs.strict_move_exists(w, "be", 2, 1),
        lambda: arcs.elementary_move(w, "xx", 2, 1),
        lambda: arcs.generalised_arc(w, "fa", 2, 1),
        lambda: arcs.generalised_arc(w, "FE", 1, 1),
    ):
        with pytest.raises(BadArgument):
            call()


def test_up_moves_match_the_arc_route():
    # one chord-triple rewire per nontrivial class: the same successors,
    # with multiplicity, as upward surgery along each classified arc
    for n in range(1, 9):
        for d in D.enumerate_diagrams(n):
            assert Counter(arcs.up_moves(d)) == Counter(oracles.up_moves_by_arcs(d)), d


def _generalised_arcs(nm, np_):
    """Every generalised arc on the words of one grading: for each i and j
    exactly one of FA(i, j) and BA(i, j) exists."""
    for w in all_words(nm, np_):
        for i in range(1, nm + 1):
            for j in range(1, np_ + 1):
                kind = "FA" if arcs.move_exists(w, "FE", i, j) else "BA"
                yield arcs.generalised_arc(w, kind, i, j)


def test_placed_systems_are_pinned():
    # the chord, order and side of every site, over the coarse and minimal
    # systems of each comparable pair and the split of each generalised arc
    digest = hashlib.sha256()
    for n in range(1, 7):
        for nm, np_ in gradings(n):
            systems = [
                build(w1, w2)
                for w1, w2 in comparable_pairs(nm, np_)
                for build in (arcs.cfbs, arcs.cbbs, arcs.fbs, arcs.bbs)
            ]
            systems += [arcs.nicely_ordered_system(g.word, [g]) for g in _generalised_arcs(nm, np_)]
            for s in systems:
                digest.update(repr((s.m, s.mate, s.darts, s.arc_ids)).encode())
    assert digest.hexdigest() == "f76d9dce3c78714e98b1ceeca117e864ee42b6527518abf8b0a8cb3c74a8b6cd"


def _tree_path(faces, start, goal):
    """(chord, face before it) along the path from region start to region
    goal in the region tree, by BFS: the tree's edges are the chords."""
    prev = {start: None}
    queue = deque([start])
    while queue:
        f = queue.popleft()
        for si in faces.strands_around(f):
            g = faces.face_of(si, arcs.LEFT) + faces.face_of(si, arcs.RIGHT) - f
            if g not in prev:
                prev[g] = (si, f)
                queue.append(g)
    path, f = [], goal
    while prev[f] is not None:
        si, f = prev[f]
        path.append((si, f))
    return path[::-1]


def test_generalised_arc_path_is_the_region_tree_path():
    # the region-tree BFS between the two outer regions is the oracle for
    # the chords an arc meets and the side it leaves each from
    for n in range(1, 8):
        for nm, np_ in gradings(n):
            for g in _generalised_arcs(nm, np_):
                w, d = g.word, sfh.basis_diagram(g.word)
                faces, chords = arcs.Faces(d), d.chords()
                minus, plus = w.positions(MINUS)[g.i - 1], w.positions(PLUS)[g.j - 1]
                if g.kind == "FA":
                    ends = ((sfh.base_chords(w)[minus], -1), (sfh.root_chords(w)[plus], 1))
                else:
                    ends = ((sfh.base_chords(w)[plus], 1), (sfh.root_chords(w)[minus], -1))
                # each end chord's outer region: its face of the given sign
                sides = (arcs.LEFT, arcs.RIGHT)
                start, goal = (
                    next(
                        f
                        for f in (faces.face_of(chords.index(c), side) for side in sides)
                        if D.orbit_sign(faces.cycles[f]) == sign
                    )
                    for c, sign in ends
                )
                path = _tree_path(faces, start, goal)
                assert g.path_edges == tuple(si for si, _f in path), g
                assert g.outward == tuple(faces.face_of(si, arcs.LEFT) == f for si, f in path), g
