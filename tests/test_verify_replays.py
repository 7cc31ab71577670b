"""Each paper statement that verify replays is live: when the function it
replays gives a wrong answer, the check that replays it reports a
problem.  The checks run at small sizes, with few random systems."""

from collections import Counter

import pytest

from sutura import arcs, oracles, sfh, simplicial, stacking, verify
from sutura.words import catalan, word


def _problems_with(prefix, problems):
    return [p for p in problems if p.startswith(prefix)]


def test_a_wrong_elementary_move_is_reported(monkeypatch):
    monkeypatch.setattr(arcs, "elementary_move", lambda w, kind, i, j: w)
    problems = verify.check_bypass_systems(3, 0, 2)
    assert _problems_with("FA(", problems) and _problems_with("BA(", problems)


def test_a_wrong_strict_move_test_is_reported(monkeypatch):
    real = arcs.strict_move_exists
    monkeypatch.setattr(arcs, "strict_move_exists", lambda w, kind, i, j: not real(w, kind, i, j))
    assert _problems_with("strict ", verify.check_bypass_systems(3, 0, 2))


def test_a_wrong_subset_expansion_is_reported(monkeypatch):
    monkeypatch.setattr(arcs, "expand_subsets", lambda system, direction: [])
    assert _problems_with("fbs subset relation", verify.check_bypass_systems(3, 0, 2))


def test_a_wrong_downward_surgery_along_fbs_is_reported(monkeypatch):
    # surgery along a system fbs built always goes upwards; the check reads
    # the pair off the result with phi, not by surgering along fbs once more
    real_fbs, real_surgery = arcs.fbs, arcs.surgery_along_system
    made = []

    def fbs(w1, w2):
        made.append(real_fbs(w1, w2))
        return made[-1]

    def surgery(system, direction):
        return real_surgery(system, "up" if any(system is s for s in made) else direction)

    monkeypatch.setattr(arcs, "fbs", fbs)
    monkeypatch.setattr(arcs, "surgery_along_system", surgery)
    assert _problems_with("fbs down", verify.check_bypass_systems(3, 0, 2))


def test_a_category_with_a_non_basis_object_is_reported(monkeypatch):
    # the first object of each category is swapped for a diagram whose
    # decomposition has two words
    real = stacking.bounded_category
    other = sfh.from_pair(word("-+"), word("+-"))

    def with_other(bottom, top):
        cat = real(bottom, top)
        objects = (other, *cat.objects[1:])
        return stacking.BoundedCategory(cat.bottom, cat.top, objects, cat.edges, cat.above)

    monkeypatch.setattr(stacking, "bounded_category", with_other)
    assert _problems_with("non-basis object in", verify.check_categories(2, 0))


def test_a_pinwheel_test_that_misses_a_loop_is_reported(monkeypatch):
    # the first upward loop that a random system's subsets close goes unseen
    real = arcs.has_pinwheel
    missed = []

    def missing_one(system, direction):
        found = real(system, direction)
        if found and direction == "up" and not missed:
            missed.append(system)
            return False
        return found

    monkeypatch.setattr(arcs, "has_pinwheel", missing_one)
    problems = verify.check_bypass_systems(0, 200, 6)
    assert missed and _problems_with("pinwheel routes differ up", problems)


def test_a_wrong_surgery_on_a_pinwheel_free_system_is_reported(monkeypatch):
    # the first downward surgery along a whole random system goes upwards;
    # only systems with no pinwheel either way are surgered downwards whole
    real = arcs.surgery_along_system
    wrong = []

    def wrong_once(system, direction):
        if direction == "down" and system.arc_ids and not wrong:
            wrong.append(system)
            direction = "up"
        return real(system, direction)

    monkeypatch.setattr(arcs, "surgery_along_system", wrong_once)
    problems = verify.check_bypass_systems(0, 200, 6)
    assert wrong and _problems_with("subset relation down on pinwheel-free", problems)


def test_a_walk_that_takes_the_wrong_half_at_one_split_is_reported(monkeypatch):
    # the first path walked from a split, decompose's - half, takes the +
    # half there, so one word is lost; with at most three chords a
    # decomposition has at most two words, so that path meets no other
    # split.
    real = sfh._path
    wrong = []

    def wrong_once(p, lo, hi, at_hi, mask, take, splits):
        if splits and not wrong:
            wrong.append(take)
            take = 1 - take
        return real(p, lo, hi, at_hi, mask, take, splits)

    monkeypatch.setattr(sfh, "_path", wrong_once)
    problems = verify.check_parity(3, 0)
    assert wrong and _problems_with("phi or is_basis off the decomposition", problems)


def test_an_unshifted_root_numbering_is_reported(monkeypatch):
    # the base numbering as it is, not shifted by one letter
    monkeypatch.setattr(sfh, "root_chords", sfh.base_chords)
    assert _problems_with("root-point walk of", verify.check_basis_and_triples(3, 1))


@pytest.mark.parametrize("name", ["pair_to_monotone", "monotone_to_pair"])
def test_a_wrong_staircase_is_reported(monkeypatch, name):
    real = getattr(verify, name)
    if name == "pair_to_monotone":
        # the staircase of (w1, w1), which decodes to the wrong pair
        wrong = lambda w1, w2: real(w1, w1)
    else:
        wrong = lambda f: real(f)[::-1]
    monkeypatch.setattr(verify, name, wrong)
    assert _problems_with("staircase roundtrip", verify.check_main_theorem(3))


def test_a_wrong_outermost_cancellation_is_reported(monkeypatch):
    real = stacking.cancel_outermost
    monkeypatch.setattr(stacking, "cancel_outermost", lambda a, b: real(a, b)[::-1])
    assert _problems_with("outermost cancellation", verify.check_stackability(1, 4))


def test_a_form_of_the_wrong_parity_is_reported(monkeypatch):
    # m_algebraic is the form on two decompositions, so a diagram stacked
    # on itself is reported as well as the pairs of the table
    real = stacking.form
    monkeypatch.setattr(stacking, "form", lambda x, y: 1 - real(x, y))
    problems = verify.check_stackability(3, 1)
    assert _problems_with("m mismatch", problems) and _problems_with("self-stacking", problems)


@pytest.mark.parametrize("check, sizes", [("check_stackability", (6, 5)), ("check_parity", (7, 6))])
def test_a_check_decomposes_each_diagram_once(check, sizes, monkeypatch):
    # decompose keeps no memo, so the checks keep each size's decompositions
    # themselves; m_algebraic, which the stackability check calls on each
    # diagram stacked on itself, decomposes that diagram once more, and once
    real_decompose, real_m = sfh.decompose, stacking.m_algebraic
    outside, inside, depth = Counter(), Counter(), [0]

    def counted(d):
        (inside if depth[0] else outside)[d.pairing] += 1
        return real_decompose(d)

    def m_algebraic(bottom, top):
        depth[0] += 1
        try:
            return real_m(bottom, top)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(sfh, "decompose", counted)
    monkeypatch.setattr(stacking, "m_algebraic", m_algebraic)
    assert getattr(verify, check)(*sizes) == []
    assert len(outside) == sum(catalan(n) for n in range(1, sizes[0] + 1))
    assert set(outside.values()) == {1}
    assert set(inside.values()) == ({1} if check == "check_stackability" else set())
    assert inside.keys() <= outside.keys()


def _without_word_action(make):
    """The operator maker with each operator's word rule sending every word to 0."""

    def make_without(side, i):
        op = make(side, i)
        return sfh.GradedOperator(op.name, lambda w: frozenset(), op.on_diagram)

    return make_without


@pytest.mark.parametrize(
    "patch, names",
    [("creation", ("B-^", "B+^")), ("annihilation", ("A+^", "A-^")), ("diagram_action", ("B-", "A+"))],
)
def test_a_wrong_operator_action_is_reported(monkeypatch, patch, names):
    if patch == "diagram_action":
        monkeypatch.setattr(sfh.GradedOperator, "diagram_action", lambda op, d: d)
    else:
        monkeypatch.setattr(sfh, patch, _without_word_action(getattr(sfh, patch)))
    problems = verify.check_operator_algebra(3)
    for name in names:
        assert _problems_with(name, problems), name


def test_a_wrong_element_merge_is_reported(monkeypatch):
    monkeypatch.setattr(sfh, "merge_elements", lambda x1, x2: sfh.SfhElement.zero())
    assert _problems_with("merge of", verify.check_operator_algebra(3))


def test_a_wrong_creation_word_is_reported(monkeypatch):
    # every degeneracy puts its sign in front of the word
    monkeypatch.setattr(sfh, "creation_word", lambda w, sign, i: frozenset((w.insert(0, sign),)))
    assert _problems_with("face/degeneracy table", verify.check_simplicial(3, 3, 3))


def test_a_wrong_boundary_oracle_is_reported(monkeypatch):
    monkeypatch.setattr(oracles, "boundary_closed_form", lambda side, w: sfh.SfhElement.zero())
    problems = verify.check_simplicial(3, 3, 3)
    assert _problems_with("west boundary closed form", problems)
    assert _problems_with("east boundary closed form", problems)


def test_a_boundary_that_drops_a_face_is_reported(monkeypatch):
    # the sum of the faces d_1, d_2, ...: adding d_0 mod 2 takes it away
    real = simplicial.boundary
    monkeypatch.setattr(
        simplicial, "boundary", lambda side, x: real(side, x) + sfh.annihilation(side, 0)(x)
    )
    problems = verify.check_simplicial(3, 3, 3)
    for side in ("west", "east"):
        assert _problems_with(f"{side} boundary is not the sum of the faces", problems), side
