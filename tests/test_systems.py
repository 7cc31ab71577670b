import hashlib
import itertools
import json
import random
import signal
from collections import Counter

import pytest

from sutura import arcs
from sutura import diagram as D
from sutura import oracles, sfh
from sutura.errors import (
    BadArgument,
    BrokenInvariant,
    NotComparable,
    NotNicelyOrdered,
    NotPlanar,
    SuturaError,
)
from sutura.words import all_words, comparable_pairs, word

from strategies import (
    GLUES,
    LEFT,
    RIGHT,
    Faces,
    build_system,
    bypass_draws,
    gradings,
    hexagon_handles,
    single_arc_system,
    strands,
    surgery_step,
    system_diagram,
    system_json,
)


def test_generalised_arc_systems_realize_moves():
    for n in range(1, 6):
        for nm, np_ in gradings(n):
            for w in all_words(nm, np_):
                for i in range(1, nm + 1):
                    for j in range(1, np_ + 1):
                        if arcs.move_exists(w, "FE", i, j):
                            g = arcs.generalised_arc(w, "FA", i, j)
                            system = arcs.nicely_ordered_system(w, [g])
                            got = arcs.surgery_along_system(system, "up")
                            assert got == sfh.basis_diagram(arcs.elementary_move(w, "FE", i, j))
                        else:
                            g = arcs.generalised_arc(w, "BA", i, j)
                            system = arcs.nicely_ordered_system(w, [g])
                            got = arcs.surgery_along_system(system, "down")
                            assert got == sfh.basis_diagram(arcs.elementary_move(w, "BE", i, j))


def test_fa_1_4_paper_example():
    g = arcs.generalised_arc(word("--++--++"), "FA", 1, 4)
    system = arcs.nicely_ordered_system(g.word, [g])
    assert len(system.arc_ids) == 2
    got = arcs.surgery_along_system(system, "up")
    assert sfh.decompose(got).words == {word("++++----")}


def test_two_arc_nicely_ordered_example():
    w = word("--++--++")
    gens = [arcs.generalised_arc(w, "FA", 1, 2), arcs.generalised_arc(w, "FA", 3, 4)]
    system = arcs.nicely_ordered_system(w, gens)
    got = arcs.surgery_along_system(system, "up")
    assert got == sfh.basis_diagram(word("++--++--"))


def test_nicely_ordered_validation():
    w = word("--++")
    g1 = arcs.generalised_arc(w, "FA", 1, 2)
    g2 = arcs.generalised_arc(w, "FA", 2, 1)
    with pytest.raises(NotNicelyOrdered):
        arcs.nicely_ordered_system(w, [g1, g2])  # j must be non-decreasing
    single = arcs.nicely_ordered_system(w, [g1])
    assert arcs.surgery_along_system(single, "up") == sfh.basis_diagram(
        arcs.elementary_move(w, "FE", 1, 2)
    )


def test_hexagon_rule_gives_the_splice_glues():
    # the walk turns each hexagon handle to its partner in the literal
    # glues of the splice route, one step round from the sites, which
    # join handle j to handle 5 - j
    system = arcs.cfbs(word("--++--++"), word("++++----"))
    assert len(system.arc_ids) > 1
    mate = system.mate
    for direction, glues in GLUES.items():
        onward = arcs._onward(system, direction)
        for aid in system.arc_ids:
            handles = hexagon_handles(system, aid)
            assert [h ^ 1 for h in handles] == list(reversed(handles))
            for a, b in glues:
                x, y = handles[a], handles[b]
                assert (onward[x], onward[y]) == (mate[y], mate[x])


def test_surgery_order_commutes():
    rng = random.Random(7)
    for n in range(2, 6):
        for nm, np_ in gradings(n):
            pairs = comparable_pairs(nm, np_)
            for (w1, w2) in pairs:
                system = arcs.cfbs(w1, w2)
                ids = system.arc_ids
                if not 2 <= len(ids) <= 4:
                    continue
                base = arcs.surgery_along_system(system, "up")
                for perm in itertools.permutations(ids):
                    pm = system
                    for aid in perm:
                        pm = surgery_step(pm, aid, "up")
                        assert not D.is_zero(pm)
                    assert system_diagram(pm) == base


def test_cfbs_and_cbbs_effects():
    for n in range(1, 6):
        for nm, np_ in gradings(n):
            for (w1, w2) in comparable_pairs(nm, np_):
                assert arcs.surgery_along_system(arcs.cfbs(w1, w2), "up") == sfh.basis_diagram(w2)
                assert arcs.surgery_along_system(arcs.cbbs(w1, w2), "down") == sfh.basis_diagram(w1)
    with pytest.raises(NotComparable):
        arcs.cfbs(word("+-"), word("-+"))


def test_minimal_subsystem_unreachable_target_is_an_error():
    # checked explicitly, so it holds under -O as well
    w1, w2 = word("--+"), word("+--")
    with pytest.raises(BrokenInvariant):
        oracles.minimal_subsystem_by_deletion(arcs.cfbs(w1, w2), "up", sfh.basis_diagram(w1))


def test_fbs_bbs_keep_the_arcs_the_deletion_search_keeps():
    # the keep rule (first member of each run of equal j for fbs, last of
    # each run of equal i for bbs) lands on the arcs that greedy reverse
    # deletion keeps, on every comparable pair of length <= 7
    for n in range(8):
        for nm, np_ in gradings(n):
            for (w1, w2) in comparable_pairs(nm, np_):
                up = oracles.minimal_subsystem_by_deletion(
                    arcs.cfbs(w1, w2), "up", sfh.basis_diagram(w2)
                )
                down = oracles.minimal_subsystem_by_deletion(
                    arcs.cbbs(w1, w2), "down", sfh.basis_diagram(w1)
                )
                assert arcs.fbs(w1, w2).arc_ids == up.arc_ids, (w1, w2)
                assert arcs.bbs(w1, w2).arc_ids == down.arc_ids, (w1, w2)


def test_kept_members_missing_their_target_is_an_error(monkeypatch):
    # checked explicitly, so it holds under -O as well: each system is
    # made to aim at the other word's diagram
    w1, w2 = word("--+"), word("+--")
    real = sfh.basis_diagram
    for build, target, instead in ((arcs.fbs, w2, w1), (arcs.bbs, w1, w2)):
        monkeypatch.setattr(arcs.sfh, "basis_diagram", lambda w: real(instead if w == target else w))
        with pytest.raises(BrokenInvariant):
            build(w1, w2)
    monkeypatch.undo()
    assert arcs.surgery_along_system(arcs.fbs(w1, w2), "up") == sfh.basis_diagram(w2)


def test_fbs_bbs_minimality_and_pair_diagram():
    for n in range(1, 6):
        for nm, np_ in gradings(n):
            for (w1, w2) in comparable_pairs(nm, np_):
                fsys = arcs.fbs(w1, w2)
                bsys = arcs.bbs(w1, w2)
                assert arcs.surgery_along_system(fsys, "up") == sfh.basis_diagram(w2)
                assert arcs.surgery_along_system(bsys, "down") == sfh.basis_diagram(w1)
                if w1 == w2:
                    assert fsys.arc_ids == bsys.arc_ids == ()
                    continue
                # minimality: no single arc can be dropped
                for aid in fsys.arc_ids:
                    rest = [x for x in fsys.arc_ids if x != aid]
                    assert arcs.surgery_along_system(fsys.subsystem(rest), "up") != sfh.basis_diagram(w2)
                down = arcs.surgery_along_system(fsys, "down")
                up = arcs.surgery_along_system(bsys, "up")
                assert down == up == sfh.from_pair(w1, w2)
                assert sfh.phi(down) == (w1, w2)


def test_stability_of_basis_diagrams():
    for n in range(1, 6):
        for nm, np_ in gradings(n):
            for (w1, w2) in comparable_pairs(nm, np_):
                system = arcs.cfbs(w1, w2)
                ids = system.arc_ids
                for r in range(len(ids) + 1):
                    for sub in itertools.combinations(ids, r):
                        out = arcs.surgery_along_system(system.subsystem(sub), "up")
                        assert not D.is_zero(out) and sfh.is_basis(out)


def test_arcs_remain_of_the_three_types_during_surgery():
    # conclusion of the preservation lemma, asserted exhaustively: peel a
    # coarse forwards system one arc at a time; after each step the diagram
    # is still a basis diagram and the remaining arcs are nontrivial
    # forwards, quasi-forwards upwards, or direct upwards supertrivial
    for n in range(1, 5):
        for nm, np_ in gradings(n):
            for (w1, w2) in comparable_pairs(nm, np_):
                system = arcs.cfbs(w1, w2)
                pm = system
                for aid in list(system.arc_ids):
                    pm2 = surgery_step(pm, aid, "up")
                    assert not D.is_zero(pm2)
                    current = system_diagram(pm2)
                    dec = sfh.decompose(current)
                    assert len(dec.words) == 1
                    cw = next(iter(dec.words))
                    for other in pm2.arc_ids:
                        _assert_arc_type(pm2, other, cw)
                    pm = pm2


def _assert_arc_type(pm, arc_id, current_word):
    own = range(3 * arc_id, 3 * arc_id + 3)  # the arc's sites 0, 1, 2
    chord_of = {s: ends for ends, sites in strands(pm) for s in sites if s in own}
    chords_met = set(chord_of.values())
    up = surgery_step(pm, arc_id, "up")
    same_up = (not D.is_zero(up)) and system_diagram(up) == system_diagram(pm)
    if len(chords_met) == 3:
        # nontrivial: must be forwards (negative prior outer region)
        base, chords = sfh.base_chords(current_word), system_diagram(pm).chords()
        faces = Faces(system_diagram(pm))
        arc = system_json(pm)["arcs"][pm.arc_ids.index(arc_id)]
        # the end on the prior chord, with the face its segment runs in;
        # the outer region is that chord's other face
        si, face = min(arc["end1"], arc["end2"], key=lambda end: base.index(chords[end[0]]))
        outer = faces.face_of(si, LEFT) + faces.face_of(si, RIGHT) - face
        assert D.orbit_sign(faces.cycles[outer]) == -1, "nontrivial arc stopped being forwards"
    elif len(chords_met) == 2:
        assert same_up, "slightly trivial arc is not upwards"
    else:
        assert same_up, "supertrivial arc is not upwards"
        (sites,) = [sites for _ends, sites in strands(pm) if own[0] in sites]
        assert [s - own[0] for s in sites if s in own][1] == 1, "supertrivial arc is not direct"


def test_expand_subsets_identity():
    assert arcs.expand_subsets(
        arcs.BypassSystem.bare(D.VACUUM), "up"
    ) == [D.VACUUM]
    for n in range(1, 5):
        for nm, np_ in gradings(n):
            for (w1, w2) in comparable_pairs(nm, np_):
                system = arcs.fbs(w1, w2)
                if len(system.arc_ids) > 5:
                    continue
                for direction, opposite in (("up", "down"), ("down", "up")):
                    total = sfh.SfhElement.zero()
                    for out in arcs.expand_subsets(system, opposite):
                        total = total + sfh.decompose(out)
                    full = arcs.surgery_along_system(system, direction)
                    assert total == sfh.decompose(full)


def test_single_nontrivial_arc_expand():
    g = sfh.basis_diagram(word("-+"))
    c = [x for x in arcs.find_attaching_arcs(g) if x.triviality == "nontrivial"][0]
    system = single_arc_system(c)
    outs = arcs.expand_subsets(system, "up")
    assert {x.pairing for x in outs} == {g.pairing, arcs.surgery(g, c, "up").pairing}


def test_pinwheels():
    empty = arcs.BypassSystem.bare(D.VACUUM)
    assert not arcs.has_pinwheel(empty, "up")
    assert not arcs.has_pinwheel(empty, "down")
    for n in range(1, 5):
        for d in D.enumerate_diagrams(n):
            for c in arcs.find_attaching_arcs(d):
                system = single_arc_system(c)
                pw_up = arcs.has_pinwheel(system, "up")
                pw_down = arcs.has_pinwheel(system, "down")
                if c.triviality == "nontrivial":
                    assert not pw_up and not pw_down
                elif c.direction == "upwards":
                    assert pw_down and not pw_up
                else:
                    assert pw_up and not pw_down


def test_fbs_pinwheel_free():
    for n in range(1, 6):
        for nm, np_ in gradings(n):
            for (w1, w2) in comparable_pairs(nm, np_):
                system = arcs.fbs(w1, w2)
                assert not arcs.has_pinwheel(system, "up")
                assert not arcs.has_pinwheel(system, "down")


def test_readers_leave_a_shared_system_unchanged():
    # no reader may change a system's matching, darts or arc ids
    for n in range(6):
        for nm, np_ in gradings(n):
            for (w1, w2) in comparable_pairs(nm, np_):
                system = arcs.fbs(w1, w2)
                before = (system.mate, system.darts, system.arc_ids)
                ids = system.arc_ids
                for direction in ("up", "down"):
                    for r in range(len(ids) + 1):
                        for sub in itertools.combinations(ids, r):
                            arcs.surgery_along_system(system.subsystem(sub), direction)
                    for aid in ids:
                        surgery_step(system, aid, direction)
                    arcs.has_pinwheel(system, direction)
                    arcs.expand_subsets(system, direction)
                system_json(system)
                assert (system.mate, system.darts, system.arc_ids) == before, (w1, w2)


def test_planar_map_euler_formula():
    for n in range(1, 5):
        for nm, np_ in gradings(n):
            for (w1, w2) in comparable_pairs(nm, np_):
                arcs.cfbs(w1, w2).validate()


def test_crossing_segments_are_not_planar():
    # two supertrivial arcs on chord (2, 3) of 0-1,2-3: nested, they are
    # planar; interleaved, their segments cross inside one face, a trial
    # that random_system draws and rejects
    d = D.parse("0-1,2-3")
    bits = (0, 0, 1, 0, 0, 1)
    build_system(d, {2: [2, 0, 1, 5, 3, 4]}, bits).validate()
    with pytest.raises(NotPlanar):
        build_system(d, {2: [2, 0, 3, 1, 4, 5]}, bits).validate()


def test_segment_joining_two_faces_is_not_planar():
    # the planar pair above with one end site of arc 1 turned to the
    # chord's other face; random_system never draws such a trial, since a
    # class's first segment runs in the walk of its crossed chord's high
    # end and its second in that of its low end, each end site facing
    # its segment's face
    d = D.parse("0-1,2-3")
    with pytest.raises(NotPlanar):
        build_system(d, {2: [2, 0, 1, 5, 3, 4]}, (0, 0, 1, 1, 0, 1)).validate()


def test_only_the_second_segment_crossing_is_not_planar():
    # arc 0 and arc 1 lie side by side on chord (2, 3), except that arc
    # 1's second segment ends beyond arc 0's: its first segment crosses
    # nothing, and each arc alone is planar
    d = D.parse("0-1,2-3")
    bits = (0, 0, 1, 0, 0, 1)
    system = build_system(d, {2: [0, 1, 3, 4, 2, 5]}, bits)
    assert all(oracles.planar_by_euler_count(system.subsystem([a])) for a in (0, 1))
    assert not oracles.planar_by_euler_count(system)
    with pytest.raises(NotPlanar, match="segment 1 of arc 1"):
        system.validate()


def test_a_matching_that_is_no_involution_is_refused_in_bounded_time():
    # boundary point 1 matched to itself: the region walk from the arc's
    # first end never comes back, so only its bound stops it
    good = build_system(D.parse("0-1,2-3"), {2: [0, 1, 2]}, (0, 0, 1))
    mate = list(good.mate)
    mate[1] = 1
    bad = arcs.BypassSystem(good.m, mate, good.darts, good.arc_ids)

    def hung(signum, frame):
        raise TimeoutError("validate did not return")

    before = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(SuturaError):
            bad.validate()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, before)


def _list_sampler(diagram, n_arcs, rng, trials):
    """random_system by per-chord site lists, the route the splice
    sampler replaced: each trial is built whole and appended to trials,
    and kept when the Euler count of its regions says it is planar."""
    signatures, pairing = arcs._arc_signatures(diagram), diagram.pairing
    strand_sites, bits, placed = {a: [] for a, _b in diagram.chords()}, (), 0
    system = arcs.BypassSystem.bare(diagram)
    for _ in range(40 * n_arcs):
        if placed == n_arcs:
            break
        sites, arc_bits = arcs._single_arc_sites(pairing, signatures[rng.randrange(len(signatures))])
        trial = {a: list(lst) for a, lst in strand_sites.items()}
        for a in sorted(sites):
            for i in sites[a]:
                lst = trial[a]
                lst.insert(rng.randrange(len(lst) + 1), 3 * placed + i)
        trials.append(build_system(diagram, trial, bits + arc_bits))
        if oracles.planar_by_euler_count(trials[-1]):
            strand_sites, bits, system = trial, bits + arc_bits, trials[-1]
            placed += 1
    return system if placed == n_arcs else None


def _planar_by_split_test(system):
    try:
        system.validate()
    except NotPlanar:
        return False
    return True


def test_split_test_is_the_euler_count():
    # on every trial that seeded draws build, kept or not, and on the
    # coarse systems: the sampler makes the same random calls and keeps
    # the same trials as the list route, which keeps them by the count
    by_size = {n: D.enumerate_diagrams(n) for n in range(2, 7)}
    trials = []
    for seed in (0, 1):
        rng, replay = random.Random(seed), random.Random()
        for _ in range(600):
            ds = by_size[rng.randrange(2, 7)]
            d, n_arcs = ds[rng.randrange(len(ds))], rng.randrange(1, 5)
            replay.setstate(rng.getstate())
            system = arcs.random_system(d, n_arcs, rng)
            want = _list_sampler(d, n_arcs, replay, trials)
            assert rng.getstate() == replay.getstate()
            assert (system is None) == (want is None)
            if system is not None:
                assert (system.mate, system.darts, system.arc_ids) == (want.mate, want.darts, want.arc_ids)
    for n in range(7):
        for nm, np_ in gradings(n):
            for (w1, w2) in comparable_pairs(nm, np_):
                trials += (arcs.cfbs(w1, w2), arcs.cbbs(w1, w2))
    counts = Counter(oracles.planar_by_euler_count(t) for t in trials)
    assert counts[False] >= 1000
    for t in trials:
        assert _planar_by_split_test(t) == oracles.planar_by_euler_count(t), system_json(t)


def test_nicely_ordered_systems_are_pinned():
    # every coarse and minimal system of the comparable pairs with at most
    # six letters, as (mate, darts, arc_ids): pinned from the route that
    # sorted each chord's sites and built the matching whole
    digest = hashlib.sha256()
    for n in range(7):
        for nm, np_ in gradings(n):
            for (w1, w2) in comparable_pairs(nm, np_):
                for make in (arcs.cfbs, arcs.cbbs, arcs.fbs, arcs.bbs):
                    system = make(w1, w2)
                    digest.update(repr((system.mate, system.darts, system.arc_ids)).encode())
    assert digest.hexdigest() == "38780c153412604eecd03775c25c4c22d973741afc17168160bf3b0e8acd67fa"


def test_random_system_builds_one_system_per_draw(monkeypatch):
    # trials are spliced into a copy of the matching and split-tested;
    # only the drawn system is built
    real_init, built = arcs.BypassSystem.__init__, [0]

    def counted(self, *args):
        built[0] += 1
        real_init(self, *args)

    monkeypatch.setattr(arcs.BypassSystem, "__init__", counted)
    rng = random.Random(3)
    by_size = {n: D.enumerate_diagrams(n) for n in range(2, 7)}
    for _ in range(1000):
        ds = by_size[rng.randrange(2, 7)]
        built[0] = 0
        system = arcs.random_system(ds[rng.randrange(len(ds))], rng.randrange(1, 5), rng)
        assert built[0] == (system is not None)
    assert not hasattr(arcs.BypassSystem, "regions")


def test_random_multi_arc_pinwheels_are_pinned():
    # the digest of the drawn systems also pins which trials validate
    # rejects, since each rejection steers the random stream
    rng = random.Random(7)
    by_size = {n: D.enumerate_diagrams(n) for n in range(2, 7)}
    digest = hashlib.sha256()
    up = down = done = 0
    while done < 1000:
        ds = by_size[rng.randrange(2, 7)]
        system = arcs.random_system(ds[rng.randrange(len(ds))], rng.randrange(1, 5), rng)
        if system is None:
            continue
        done += 1
        digest.update(json.dumps(system_json(system)).encode())
        up += arcs.has_pinwheel(system, "up")
        down += arcs.has_pinwheel(system, "down")
    assert (up, down) == (733, 740)
    assert digest.hexdigest() == "84f034478c5529118bace65b752a4c46c071fbb6cc4efaede249cec4325bc5d8"


def test_system_json():
    system = arcs.fbs(word("--+"), word("+--"))
    payload = system_json(system)
    assert payload["diagram"] == D.serialize(sfh.basis_diagram(word("--+")))
    for arc in payload["arcs"]:
        assert set(arc) == {"end1", "middle", "end2"}
        assert arc["middle"][1] != arc["middle"][2]


def test_expand_subsets_on_random_systems():
    # the bypass-system relation holds on every system that verify's
    # full level draws, pinwheels or not: surgery one way is the mod-2
    # sum of the surgeries the other way along every subset
    for seed in range(3):
        for system in bypass_draws(seed, 1000, 6):
            for direction, opposite in (("up", "down"), ("down", "up")):
                outs = arcs.expand_subsets(system, opposite)
                total = sfh.SfhElement.sum(sfh.decompose(out).words for out in outs)
                want = sfh.decompose(arcs.surgery_along_system(system, direction))
                assert total == want, (seed, system_json(system))


def _relabelled(system, order):
    """The system with arc order[k] renamed k: its site ends and darts moved."""
    m, new = system.m, {a: k for k, a in enumerate(order)}

    def end(x):
        return x if x < m else m + 6 * new[(x - m) // 6] + (x - m) % 6

    mate = [0] * len(system.mate)
    for x, y in enumerate(system.mate):
        mate[end(x)] = end(y)
    darts = [end(x) for a in order for x in system.darts[4 * a : 4 * a + 4]]
    return arcs.BypassSystem(m, mate, darts, range(len(order)))


def test_surgery_along_a_system_is_order_free():
    # every relabelling of the arcs of every multi-arc system that
    # verify's full level draws gives one surgery each way
    cases = 0
    for seed in range(3):
        for system in bypass_draws(seed, 1000, 6):
            if len(system.arc_ids) < 2:
                continue
            for direction in ("up", "down"):
                cases += 1
                got = {
                    arcs.surgery_along_system(_relabelled(system, order), direction)
                    for order in itertools.permutations(system.arc_ids)
                }
                assert len(got) == 1, (seed, direction, system_json(system))
    assert cases == 4442


def test_unknown_direction_is_rejected():
    # surgery along a system checks its direction once, so a system with
    # no arcs, which turns no strand, rejects it too
    system = arcs.fbs(word("--++"), word("+-+-"))
    bare = arcs.BypassSystem.bare(D.VACUUM)
    for call in (
        lambda: arcs.surgery_along_system(system, "sideways"),
        lambda: arcs.has_pinwheel(system, "sideways"),
        lambda: arcs.surgery_along_system(bare, "sideways"),
        lambda: arcs.expand_subsets(bare, "sideways"),
        lambda: arcs.has_pinwheel(bare, "sideways"),
    ):
        with pytest.raises(BadArgument):
            call()


def test_pinwheels_by_loops_and_by_regions_agree():
    # a pinwheel is a subset whose surgery closes a loop, and a region of
    # the subsystem of its sides
    systems = [
        single_arc_system(c)
        for n in range(1, 5)
        for d in D.enumerate_diagrams(n)
        for c in arcs.find_attaching_arcs(d)
    ]
    for n in range(6):
        for nm, np_ in gradings(n):
            for (w1, w2) in comparable_pairs(nm, np_):
                systems += (make(w1, w2) for make in (arcs.fbs, arcs.bbs, arcs.cfbs, arcs.cbbs))
    found = 0
    for system in systems:
        for direction in ("up", "down"):
            loop = arcs.has_pinwheel(system, direction)
            assert loop == oracles.has_pinwheel_by_regions(system, direction), system_json(system)
            found += loop
    assert found > 0
