"""Exhaustive verification sweeps behind the `verify` CLI command.

Each check replays one family of structural facts at small size and
reports pass/fail with its runtime.  `quick` keeps every sweep below a
few seconds; `full` runs the bounds used by the acceptance suite.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from collections.abc import Callable

from . import arcs, sfh, simplicial, stacking
from . import diagram as dg
from .errors import BadArgument, NoCommonOutermost
from .words import (
    all_words,
    catalan,
    comparable_pairs,
    interval,
    monotone_to_pair,
    narayana,
    pair_to_monotone,
    partial_leq,
    word,
)

# The five checks that compare against an independent route import
# `oracles` when they run, so importing verify, as the `sutura` command
# does, does not load it.


class CheckResult:
    """One check's outcome: its name, whether it passed, the first
    problems (or "all cases pass") and its runtime."""

    __slots__ = ("name", "passed", "detail", "seconds")

    def __init__(self, name: str, passed: bool, detail: str, seconds: float):
        self.name = name
        self.passed = passed
        self.detail = detail
        self.seconds = seconds

    def __eq__(self, other) -> bool:
        return isinstance(other, CheckResult) and (
            (self.name, self.passed, self.detail, self.seconds)
            == (other.name, other.passed, other.detail, other.seconds)
        )


def _gradings(n: int):
    for nm in range(n + 1):
        yield nm, n - nm


def check_counting(n_max: int) -> list[str]:
    from . import oracles

    problems = []
    for n in range(1, n_max + 1):
        diagrams = dg.enumerate_diagrams(n)
        if len(diagrams) != catalan(n):
            problems.append(f"count at N={n}")
        by_e: dict[int, int] = {}
        for d in diagrams:
            e = dg.euler_class(d)
            by_e[e] = by_e.get(e, 0) + 1
        for e, cnt in by_e.items():
            if cnt != narayana(n, e) or cnt != oracles.narayana_recursive(n, e):
                problems.append(f"narayana at N={n}, e={e}")
    row5 = [narayana(5, e) for e in (-4, -2, 0, 2, 4)]
    if row5 != [1, 10, 20, 10, 1]:
        problems.append("row 5 of the triangle")
    return problems


def check_basis_and_triples(word_n_max: int, triple_n_max: int) -> list[str]:
    from . import oracles

    problems = []
    for n in range(0, word_n_max + 1):
        for nm, np_ in _gradings(n):
            for w in all_words(nm, np_):
                if sfh.decompose(sfh.basis_diagram(w)).words != frozenset([w]):
                    problems.append(f"basis decomposition of {w}")
                # the paper's root-point walk draws the basis diagram, one
                # chord per letter in the root numbering
                walked, chords = oracles.root_walk(w)
                if walked != sfh.basis_diagram(w) or list(sfh.root_chords(w)[:n]) != chords:
                    problems.append(f"root-point walk of {w}")
    for n in range(1, triple_n_max + 1):
        for d in dg.enumerate_diagrams(n):
            if oracles.decompose_from_root(d) != sfh.decompose(d):
                problems.append(f"root decomposition of {dg.serialize(d)}")
            for c in arcs.find_attaching_arcs(d):
                if c.triviality != "nontrivial":
                    continue
                a, b, cc = arcs.bypass_triple(d, c)
                total = sfh.decompose(a) + sfh.decompose(b) + sfh.decompose(cc)
                if not total.is_zero():
                    problems.append(f"triple on {dg.serialize(d)}")
    return problems


def check_operator_algebra(n_max: int, seed: int = 0) -> list[str]:
    problems = []
    rng = random.Random(seed)
    for n in range(0, n_max + 1):
        for nm, np_ in _gradings(n):
            words = all_words(nm, np_)
            elements = [sfh.SfhElement.basis(w) for w in words]
            for _ in range(3):
                elements.append(
                    sfh.SfhElement(w for w in words if rng.random() < 0.5)
                )
            for x in elements:
                if sfh.apply_operator(sfh.A_PLUS, sfh.apply_operator(sfh.B_MINUS, x)) != x:
                    problems.append(f"A+B- at {(nm, np_)}")
                if sfh.apply_operator(sfh.A_MINUS, sfh.apply_operator(sfh.B_PLUS, x)) != x:
                    problems.append(f"A-B+ at {(nm, np_)}")
                if not sfh.apply_operator(sfh.A_PLUS, sfh.apply_operator(sfh.B_PLUS, x)).is_zero():
                    problems.append(f"A+B+ at {(nm, np_)}")
                if not sfh.apply_operator(sfh.A_MINUS, sfh.apply_operator(sfh.B_MINUS, x)).is_zero():
                    problems.append(f"A-B- at {(nm, np_)}")
    # each operator acts on a diagram as it acts on the diagram's
    # decomposition, on diagrams whose images have words of length < n_max
    for n in range(1, n_max):
        for d in dg.enumerate_diagrams(n):
            x = sfh.decompose(d)
            nm, np_ = x.grading()
            ops = [sfh.B_MINUS, sfh.B_PLUS, sfh.A_PLUS, sfh.A_MINUS]
            for side, top in (("west", nm), ("east", np_)):
                ops += [make(side, i) for make in (sfh.creation, sfh.annihilation) for i in range(top + 1)]
            for op in ops:
                if sfh.decompose(op.diagram_action(d)) != op(x):
                    problems.append(f"{op.name} on {dg.serialize(d)}")
    # merge is bilinear: a merged diagram decomposes as the merge of the
    # decompositions of its halves (None is the empty half)
    for n1 in range(n_max):
        for n2 in range(n_max - n1):
            for a in dg.enumerate_diagrams(n1) if n1 else [None]:
                for b in dg.enumerate_diagrams(n2) if n2 else [None]:
                    halves = [None if h is None else sfh.decompose(h) for h in (a, b)]
                    if sfh.decompose(dg.merge(a, b)) != sfh.merge_elements(*halves):
                        problems.append(f"merge of {n1} and {n2} chords")
    return problems


def check_main_theorem(n_max: int) -> list[str]:
    problems = []
    for n in range(0, n_max + 1):
        by_class: dict[int, set] = {}
        for x in dg.enumerate_diagrams(n + 1):
            by_class.setdefault(dg.euler_class(x), set()).add(x)
        for nm, np_ in _gradings(n):
            pairs = comparable_pairs(nm, np_)
            e = np_ - nm
            if len(pairs) != narayana(n + 1, e):
                problems.append(f"pair count at {(nm, np_)}")
            seen = {}
            for (w1, w2) in pairs:
                d = sfh.from_pair(w1, w2)
                if sfh.phi(d) != (w1, w2):
                    problems.append(f"phi roundtrip {w1},{w2}")
                if d in seen:
                    problems.append(f"from_pair collision {w1},{w2}")
                # the staircase of the pair takes n+ + 1 values and gives the pair back
                f = pair_to_monotone(w1, w2)
                if len(set(f)) != np_ + 1 or monotone_to_pair(f) != (w1, w2):
                    problems.append(f"staircase roundtrip {w1},{w2}")
                seen[d] = (w1, w2)
                for w in sfh.decompose(d).words:
                    if not (partial_leq(w1, w) and partial_leq(w, w2)):
                        problems.append(f"sandwich fails inside [{w1},{w2}]")
            if set(seen) != by_class[e]:
                problems.append(f"phi not onto at {(nm, np_)}")
    # the concrete instances
    decs = {
        frozenset(str(x) for x in sfh.decompose(d).words)
        for d in dg.enumerate_diagrams(4)
        if dg.euler_class(d) == -1
    }
    expected = {
        frozenset(s)
        for s in (
            {"--+"}, {"-+-"}, {"+--"}, {"--+", "-+-"}, {"--+", "+--"}, {"-+-", "+--"},
        )
    }
    if decs != expected:
        problems.append("the (4,-1) table")
    fig15 = sfh.from_pair(word("--++"), word("+-+-"))
    if {str(x) for x in sfh.decompose(fig15).words} != {"--++", "-++-", "+--+", "+-+-"}:
        problems.append("the four-term decomposition")
    return problems


def check_parity(n_max: int, tangled_n_max: int) -> list[str]:
    problems = []
    for n in range(1, n_max + 1):
        for d in dg.enumerate_diagrams(n):
            words = sfh.decompose(d).sorted_words()
            if len(words) != 1 and len(words) % 2 != 0:
                problems.append(f"odd non-basis decomposition {dg.serialize(d)}")
            # phi and is_basis walk paths of the same rule with no word set
            if sfh.phi(d) != (words[0], words[-1]) or sfh.is_basis(d) != (len(words) == 1):
                problems.append(f"phi or is_basis off the decomposition at {dg.serialize(d)}")
    for n in range(1, tangled_n_max + 1):
        for d in dg.enumerate_diagrams(n):
            words = sfh.decompose(d).words
            if len(words) == 1:
                continue
            lo, hi = sfh.phi(d)
            for w in words:
                if w in (lo, hi):
                    continue
                pre = sum(1 for v in words if partial_leq(v, w))
                post = sum(1 for v in words if partial_leq(w, v))
                if pre % 2 or post % 2:
                    problems.append(f"prec/follow parity at {dg.serialize(d)}")
                if all(partial_leq(v, w) or partial_leq(w, v) for v in words):
                    problems.append(f"middle word comparable to all in {dg.serialize(d)}")
    return problems


def check_stackability(pair_n_max: int, table_n_max: int) -> list[str]:
    problems = []
    for n in range(1, pair_n_max + 1):
        diagrams = dg.enumerate_diagrams(n)
        for a in diagrams:
            if stacking.m_geometric(a, a) != 1:
                problems.append(f"self-stacking {dg.serialize(a)}")
            for b in diagrams:
                if stacking.m_geometric(a, b) != stacking.m_algebraic(a, b):
                    problems.append(f"m mismatch {dg.serialize(a)} / {dg.serialize(b)}")
    for n in range(0, table_n_max):
        for nm, np_ in _gradings(n):
            for w0 in all_words(nm, np_):
                for w1 in all_words(nm, np_):
                    geo = stacking.m_geometric(sfh.basis_diagram(w0), sfh.basis_diagram(w1))
                    if geo != int(partial_leq(w0, w1)):
                        problems.append(f"basis m vs order {w0},{w1}")
    # cancelling a shared outermost chord keeps stackability; pairs of two
    # euler classes are skipped, as both of their stackings are 0
    for n in range(2, table_n_max + 1):
        e = {d: dg.euler_class(d) for d in dg.enumerate_diagrams(n)}
        for a in e:
            for b in e:
                if e[a] != e[b]:
                    continue
                try:
                    a2, b2 = stacking.cancel_outermost(a, b)
                except NoCommonOutermost:
                    continue
                if stacking.m_geometric(a2, b2) != stacking.m_geometric(a, b):
                    problems.append(f"outermost cancellation {dg.serialize(a)} / {dg.serialize(b)}")
    for n in range(1, table_n_max + 1):
        for d in dg.enumerate_diagrams(n):
            for c in arcs.find_attaching_arcs(d):
                if c.triviality != "nontrivial":
                    continue
                up = arcs.surgery(d, c, "up")
                down = arcs.surgery(d, c, "down")
                table = (
                    stacking.m_geometric(d, up),
                    stacking.m_geometric(up, down),
                    stacking.m_geometric(down, d),
                    stacking.m_geometric(up, d),
                    stacking.m_geometric(down, up),
                    stacking.m_geometric(d, down),
                )
                if table != (1, 1, 1, 0, 0, 0):
                    problems.append(f"direction table {dg.serialize(d)}")
    return problems


def check_categories(word_n_max: int, arc_n_max: int) -> list[str]:
    problems = []
    for n in range(0, word_n_max + 1):
        for nm, np_ in _gradings(n):
            for (w1, w2) in comparable_pairs(nm, np_):
                cat = stacking.bounded_category(sfh.basis_diagram(w1), sfh.basis_diagram(w2))
                members = interval(w1, w2)
                mapping = {}
                for obj in cat.objects:
                    dec = sfh.decompose(obj).words
                    if len(dec) != 1:
                        problems.append(f"non-basis object in [{w1},{w2}]")
                        continue
                    mapping[obj] = next(iter(dec))
                if set(mapping.values()) != set(members):
                    problems.append(f"objects differ from interval [{w1},{w2}]")
                for a in cat.objects:
                    for b in cat.objects:
                        if cat.leq(a, b) != partial_leq(mapping[a], mapping[b]):
                            problems.append(f"order differs in [{w1},{w2}]")
    for n in range(1, arc_n_max + 1):
        for d in dg.enumerate_diagrams(n):
            cat = stacking.bounded_category(d, d)
            if cat.objects != (d,):
                problems.append(f"self category of {dg.serialize(d)}")
            # the arc route: each nontrivial class's category tops out at
            # its upward surgery
            tops = Counter()
            for c in arcs.find_attaching_arcs(d):
                if c.triviality != "nontrivial":
                    continue
                nm_, np2, cat = stacking.bypass_cobordism_category(d, c)
                tops[cat.top] += 1
                ws = all_words(nm_, np2)
                if len(cat.objects) != len(ws):
                    problems.append(f"bypass cobordism size {dg.serialize(d)}")
                    continue
                prof = sorted(
                    (
                        sum(cat.leq(a, b) for b in cat.objects),
                        sum(cat.leq(b, a) for b in cat.objects),
                    )
                    for a in cat.objects
                )
                wprof = sorted(
                    (
                        sum(partial_leq(a, b) for b in ws),
                        sum(partial_leq(b, a) for b in ws),
                    )
                    for a in ws
                )
                if prof != wprof:
                    problems.append(f"bypass cobordism shape {dg.serialize(d)}")
            if Counter(arcs.up_moves(d)) != tops:
                problems.append(f"up moves differ from the arc route on {dg.serialize(d)}")
    return problems


def check_bypass_systems(
    word_n_max: int, random_cases: int, random_n_max: int, seed: int = 0
) -> list[str]:
    from . import oracles

    problems = []
    search = oracles.minimal_subsystem_by_deletion
    for n in range(0, word_n_max + 1):
        for nm, np_ in _gradings(n):
            for w in all_words(nm, np_):
                # the generalised arc FA(i, j) realises the move FE(i, j)
                # upwards, BA(i, j) the move BE(i, j) downwards, and the move
                # is strict exactly when its arc is one bypass (three chords)
                for i in range(1, nm + 1):
                    for j in range(1, np_ + 1):
                        forwards = arcs.move_exists(w, "FE", i, j)
                        kind, move, direction = ("FA", "FE", "up") if forwards else ("BA", "BE", "down")
                        g = arcs.generalised_arc(w, kind, i, j)
                        moved = arcs.surgery_along_system(arcs.nicely_ordered_system(w, [g]), direction)
                        if moved != sfh.basis_diagram(arcs.elementary_move(w, move, i, j)):
                            problems.append(f"{kind}({i},{j}) on {w}")
                        if arcs.strict_move_exists(w, move, i, j) != (g.crossings == 3):
                            problems.append(f"strict {move}({i},{j}) on {w}")
            for (w1, w2) in comparable_pairs(nm, np_):
                lower, upper = sfh.basis_diagram(w1), sfh.basis_diagram(w2)
                system = arcs.fbs(w1, w2)
                ends = {way: arcs.surgery_along_system(system, way) for way in ("up", "down")}
                if ends["up"] != upper:
                    problems.append(f"fbs up {w1},{w2}")
                if w1 != w2:
                    down = ends["down"]
                    if dg.is_zero(down) or down != sfh.from_pair(w1, w2):
                        problems.append(f"fbs down {w1},{w2}")
                for direction in _relation_breaks(system, ends):
                    problems.append(f"fbs subset relation {direction} {w1},{w2}")
                # neither route finds a pinwheel: no subset's surgery closes
                # a loop, and no region of a subsystem is one
                for way in ("up", "down"):
                    if arcs.has_pinwheel(system, way) or oracles.has_pinwheel_by_regions(system, way):
                        problems.append(f"fbs pinwheel {way} {w1},{w2}")
                # the keep rules land on the arcs that the deletion search keeps
                if system.arc_ids != search(arcs.cfbs(w1, w2), "up", upper).arc_ids:
                    problems.append(f"fbs keeps other arcs than the search {w1},{w2}")
                if arcs.bbs(w1, w2).arc_ids != search(arcs.cbbs(w1, w2), "down", lower).arc_ids:
                    problems.append(f"bbs keeps other arcs than the search {w1},{w2}")
    by_size = {n: dg.enumerate_diagrams(n) for n in range(2, random_n_max + 1)}
    rng = random.Random(seed)
    done = 0
    while done < random_cases:
        diagrams = by_size[rng.randrange(2, random_n_max + 1)]
        d = diagrams[rng.randrange(len(diagrams))]
        system = arcs.random_system(d, rng.randrange(1, 5), rng)
        if system is None:
            continue
        done += 1
        up = arcs.has_pinwheel(system, "up")
        if up != oracles.has_pinwheel_by_regions(system, "up"):
            problems.append(f"pinwheel routes differ up on {dg.serialize(d)}")
        if up:
            continue
        ends = {"up": arcs.surgery_along_system(system, "up")}
        if dg.is_zero(ends["up"]):
            problems.append(f"pinwheel-free surgery died on {dg.serialize(d)}")
        elif stacking.m_geometric(d, ends["up"]) != 1:
            problems.append(f"pinwheel-free but overtwisted on {dg.serialize(d)}")
        # the relation holds with pinwheels too (the tests replay it on
        # every draw); here only the draws with none either way pay for it
        if not arcs.has_pinwheel(system, "down"):
            ends["down"] = arcs.surgery_along_system(system, "down")
            for direction in _relation_breaks(system, ends):
                problems.append(f"subset relation {direction} on pinwheel-free {dg.serialize(d)}")
    return problems


def _relation_breaks(system, ends: dict) -> list[str]:
    """The directions in which the bypass-system relation fails, given
    the surgery along the whole system each way: surgery one way is the
    mod-2 sum of surgeries the other way along every subset."""
    return [
        direction
        for direction, opposite in (("up", "down"), ("down", "up"))
        if sfh.SfhElement.sum(
            sfh.decompose(out).words for out in arcs.expand_subsets(system, opposite)
        )
        != sfh.decompose(ends[direction])
    ]


_R53 = (
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 1, 0, 0, 0),
    (0, 0, 1, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 1, 0),
    (0, 0, 0, 1, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
)


def check_rotation(n_max: int, m_n_max: int) -> list[str]:
    from . import oracles

    problems = []
    displayed = {
        (2, 1): ((0, 1), (1, 1)),
        (3, 1): ((0, 1, 0), (0, 0, 1), (1, 1, 1)),
        (3, 2): ((0, 1, 0), (0, 0, 1), (1, 1, 1)),
        (4, 1): ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)),
        (4, 3): ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)),
        (5, 3): _R53,
    }
    for (n, k), want in displayed.items():
        if oracles.rotation_matrix(n, k) != want:
            problems.append(f"matrix ({n},{k})")
    if oracles.rotation_matrix(5, 2) == oracles.rotation_matrix(5, 3):
        problems.append("R_{5,2} equals R_{5,3}")
    for n in range(0, n_max + 1):
        for nm, np_ in _gradings(n):
            for w in all_words(nm, np_):
                x = sfh.SfhElement.basis(w)
                a = oracles.rotation_closed_form(x)
                b = oracles.rotation_by_matrix(x)
                c = sfh.rotation(x)
                if not (a == b == c):
                    problems.append(f"rotation implementations differ at {w}")
                y = x
                for _ in range(n + 1):
                    y = sfh.rotation(y)
                if y != x:
                    problems.append(f"rotation order at {w}")
    for n in range(1, m_n_max + 1):
        diagrams = dg.enumerate_diagrams(n)
        rotated = {d: dg.rotate_points(d, -2) for d in diagrams}
        for a in diagrams:
            for b in diagrams:
                if stacking.m_geometric(a, b) != stacking.m_geometric(rotated[a], rotated[b]):
                    problems.append(f"m not rotation invariant {dg.serialize(a)}")
    return problems


def check_simplicial(n_max: int, rank_n_max: int, ident_n_max: int) -> list[str]:
    from . import oracles

    problems = simplicial.verify_double_complex(n_max)
    problems += simplicial.verify_homology_trivial(n_max, rank_n_max)
    for n in range(0, n_max + 1):
        for nm, np_ in _gradings(n):
            for w in all_words(nm, np_):
                x = sfh.SfhElement.basis(w)
                for side in ("west", "east"):
                    if simplicial.boundary(side, x) != oracles.boundary_closed_form(side, w):
                        problems.append(f"{side} boundary closed form at {w}")
    # a side's faces d_i and degeneracies s_j are sfh's annihilation and
    # creation operators at slot i and j; these reach the slots of the
    # grading one sign above
    for n in range(0, ident_n_max + 1):
        for nm, np_ in _gradings(n):
            for side, top in (("west", nm), ("east", np_)):
                d = [sfh.annihilation(side, i) for i in range(top + 2)]
                s = [sfh.creation(side, j) for j in range(top + 2)]
                for w in all_words(nm, np_):
                    x = sfh.SfhElement.basis(w)
                    dx = [d[i](x) for i in range(top + 1)]
                    sx = [s[j](x) for j in range(top + 1)]
                    if simplicial.boundary(side, x) != sfh.SfhElement.sum(f.words for f in dx):
                        problems.append(f"{side} boundary is not the sum of the faces at {w}")
                    for j in range(top + 1):
                        for i in range(top + 2):
                            if i < j:
                                want = s[j - 1](dx[i])
                            elif i in (j, j + 1):
                                want = x
                            else:
                                want = s[j](dx[i - 1])
                            if d[i](sx[j]) != want:
                                problems.append(f"face/degeneracy table at {w}")
                        for i in range(j):
                            if d[i](dx[j]) != d[j - 1](dx[i]):
                                problems.append(f"face/face identity at {w}")
                        for i in range(j + 1):
                            if s[i](sx[j]) != s[j + 1](sx[i]):
                                problems.append(f"degeneracy identity at {w}")
    return problems


# The sizes every check runs at, by level: its arguments before the seed.
SIZES: dict[str, dict[str, tuple[int, ...]]] = {
    "quick": {
        "counting": (6,),
        "basis_and_bypass": (5, 4),
        "operator_algebra": (5,),
        "main_theorem": (5,),
        "parity": (5, 5),
        "stackability": (4, 4),
        "categories": (4, 4),
        "bypass_systems": (4, 100, 5),
        "rotation": (5, 4),
        "simplicial": (6, 5, 5),
    },
    "full": {
        "counting": (8,),
        "basis_and_bypass": (7, 6),
        "operator_algebra": (6,),
        "main_theorem": (7,),
        "parity": (7, 6),
        "stackability": (6, 5),
        "categories": (5, 5),
        "bypass_systems": (5, 1000, 6),
        "rotation": (6, 5),
        "simplicial": (8, 6, 6),
    },
}


def _criteria(level: str, seed: int) -> list[tuple[str, Callable[[], list[str]], float]]:
    if level not in SIZES:
        raise BadArgument(f"unknown level {level!r}; choose one of {', '.join(SIZES)}")
    s = SIZES[level]
    # each check is looked up by name when it runs, so a wrapped check is the one timed
    return [
        ("counting", lambda: check_counting(*s["counting"]), 5.0),
        ("basis_and_bypass", lambda: check_basis_and_triples(*s["basis_and_bypass"]), 60.0),
        ("operator_algebra", lambda: check_operator_algebra(*s["operator_algebra"], seed), 30.0),
        ("main_theorem", lambda: check_main_theorem(*s["main_theorem"]), 120.0),
        ("parity", lambda: check_parity(*s["parity"]), 60.0),
        ("stackability", lambda: check_stackability(*s["stackability"]), 300.0),
        ("categories", lambda: check_categories(*s["categories"]), 300.0),
        ("bypass_systems", lambda: check_bypass_systems(*s["bypass_systems"], seed), 300.0),
        ("rotation", lambda: check_rotation(*s["rotation"]), 120.0),
        ("simplicial", lambda: check_simplicial(*s["simplicial"]), 30.0),
    ]


def run_verification(level: str = "quick", seed: int = 0) -> list[CheckResult]:
    results = []
    for name, fn, _budget in _criteria(level, seed):
        start = time.perf_counter()
        problems = fn()
        elapsed = time.perf_counter() - start
        detail = "; ".join(str(p) for p in problems[:5]) if problems else "all cases pass"
        results.append(CheckResult(name, not problems, detail, elapsed))
    return results

