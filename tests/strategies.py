"""Hypothesis strategies, word gradings, diagram shapes and the
test-only builders and readers shared by the test modules."""

import itertools
import random

from hypothesis import strategies as st

from sutura import arcs
from sutura import diagram as D
from sutura.words import MINUS, PLUS, Word


def matching(draw, n):
    """A non-crossing matching on 2n points, one chord from each run's first point."""
    pairing = [0] * (2 * n)
    runs = [(0, 2 * n)]
    while runs:
        lo, hi = runs.pop()
        if lo == hi:
            continue
        mate = lo + 2 * draw(st.integers(0, (hi - lo) // 2 - 1)) + 1
        pairing[lo], pairing[mate] = mate, lo
        runs += [(lo + 1, mate), (mate + 1, hi)]
    return D.ChordDiagram(pairing)


@st.composite
def diagrams(draw, n_max=12):
    return matching(draw, draw(st.integers(1, n_max)))


def gradings(n):
    """Every (minus count, plus count) with n letters in all."""
    for nm in range(n + 1):
        yield nm, n - nm


def deep_split_diagram(k: int, j: int) -> D.ChordDiagram:
    """Chord (0, 2k+1) over a comb of k chords, then two nested chords
    over a comb of j: the decomposition walk's bypass splits nest deeper
    as k and j grow."""
    chords = [(0, 2 * k + 1)] + [(2 * i - 1, 2 * i) for i in range(1, k + 1)]
    b, e = 2 * k + 2, 2 * k + 2 * j + 5
    chords += [(b, e), (b + 1, e - 1)] + [(b + 2 + 2 * i, b + 3 + 2 * i) for i in range(j)]
    return D.from_pairing(chords)


def uniform_diagram(n: int, rng) -> D.ChordDiagram:
    """A diagram drawn uniformly among those with n chords.  Of the
    rotations of a shuffled run of n opening and n + 1 closing brackets,
    the one that starts after the first lowest prefix sum keeps every
    proper prefix sum at or above zero (the cycle lemma); without its
    final closing bracket it is a uniform bracket word, read as chords."""
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    sums = list(itertools.accumulate(steps))
    start = sums.index(min(sums)) + 1
    pairing, opened = [0] * (2 * n), []
    for i, step in enumerate((steps[start:] + steps[:start])[:-1]):
        if step > 0:
            opened.append(i)
        else:
            j = opened.pop()
            pairing[i], pairing[j] = j, i
    return D.ChordDiagram(pairing)


def bypass_draws(seed: int, cases: int, n_max: int):
    """The random systems that verify.check_bypass_systems(_, cases,
    n_max, seed) draws, in its order: a diagram of 2..n_max chords, then
    1..4 arcs placed on it, skipping the draws random_system gives up on."""
    by_size = {n: D.enumerate_diagrams(n) for n in range(2, n_max + 1)}
    rng = random.Random(seed)
    done = 0
    while done < cases:
        ds = by_size[rng.randrange(2, n_max + 1)]
        system = arcs.random_system(ds[rng.randrange(len(ds))], rng.randrange(1, 5), rng)
        if system is not None:
            done += 1
            yield system


def minimum_word(n_minus: int, n_plus: int) -> Word:
    """(-)^n- (+)^n+, the unique minimum of W(n-, n+)."""
    return Word((MINUS,) * n_minus + (PLUS,) * n_plus)


def maximum_word(n_minus: int, n_plus: int) -> Word:
    """(+)^n+ (-)^n-, the unique maximum of W(n-, n+)."""
    return Word((PLUS,) * n_plus + (MINUS,) * n_minus)


# The chord-index reading of faces, the table the arc layer kept before
# it named each chord by its points: chord si is diagram.chords()[si],
# its LEFT face the walk of its low end and its RIGHT face that of its
# high end.
LEFT, RIGHT = 1, -1


class Faces:
    """Faces of a bare diagram by chord index: face f is the walk
    cycles[f] (diagram.region_orbits), whose chord after arc k is the
    one leaving point k."""

    def __init__(self, diagram: D.ChordDiagram):
        self.cycles = D.regions(diagram)
        self._chords = diagram.chords()
        self._chord_at = [0] * (2 * diagram.n)
        for si, (a, b) in enumerate(self._chords):
            self._chord_at[a] = self._chord_at[b] = si
        self._face_at = [0] * (2 * diagram.n)
        for f, orbit in enumerate(self.cycles):
            for k in orbit:
                self._face_at[k] = f

    def face_of(self, si: int, side: int) -> int:
        a, b = self._chords[si]
        return self._face_at[a if side == LEFT else b]

    def strands_around(self, face: int) -> list[int]:
        """Chord indices along the face's boundary walk, in traversal order."""
        return [self._chord_at[k] for k in self.cycles[face]]


def chord_index_signatures(diagram: D.ChordDiagram) -> tuple:
    """Every arc class as (crossed, first, second, order) by chord index:
    the arc crosses chord crossed from its RIGHT face, where its first end
    rests on chord first, to its LEFT face, where its second end rests on
    chord second; the end chords run through each face's chord indices in
    ascending order, the first slowest.  The reference for
    arcs._arc_signatures, read through chord_signature."""
    faces = Faces(diagram)
    firsts = arcs._placements((1,), 0)
    seconds = {first: arcs._placements(first, 2) for first in ((1,), *firsts)}
    out = []
    for crossed in range(diagram.n):
        right = sorted(faces.strands_around(faces.face_of(crossed, RIGHT)))
        left = sorted(faces.strands_around(faces.face_of(crossed, LEFT)))
        for first in right:
            for o1 in firsts if first == crossed else ((1,),):
                for second in left:
                    for order in seconds[o1] if second == crossed else (o1,):
                        out.append((crossed, first, second, order))
    return tuple(out)


def chord_signature(diagram: D.ChordDiagram, signature: tuple) -> tuple:
    """A point signature (arcs._arc_signatures) with each point replaced
    by the index of its chord in diagram.chords()."""
    index = {a: si for si, (a, _b) in enumerate(diagram.chords())}
    *points, order = signature
    return (*(index[min(k, diagram.pairing[k])] for k in points), order)


def build_system(diagram: D.ChordDiagram, strand_sites: dict, bits) -> arcs.BypassSystem:
    """Place sites on the chords of a diagram.

    strand_sites maps a chord's low end to its sites in order from that
    end.  bits[s] picks the end of site s facing its segment (segment 0
    at the crossing): 1 for the second end, whose side is the walk of the
    low end, the chord's LEFT face.  bits holds three per arc, so the arc
    ids are 0..len(bits) // 3 - 1."""
    m, n_arcs = 2 * diagram.n, len(bits) // 3
    mate = list(diagram.pairing) + [-1] * (6 * n_arcs)
    for a, sites in strand_sites.items():
        for s in reversed(sites):
            arcs._splice(mate, a, m + 2 * s)
    darts = [x for s in range(0, 3 * n_arcs, 3) for x in arcs._arc_darts(m, s, bits[s : s + 3])]
    return arcs.BypassSystem(m, mate, darts, range(n_arcs))


def arc_descriptor(arc: arcs.AttachingArc) -> tuple:
    """(end1, middle, end2) of an arc class: (chord, face) for each
    endpoint and (chord, face before, face after) for the crossing, with
    chord ids the positions in diagram.chords() and face ids those of
    Faces.  The arc crosses from its crossed chord's RIGHT face, where
    its first end rests, to the LEFT face, where its second does."""
    crossed, first, second, _order = chord_signature(arc.diagram, arc.signature)
    faces = Faces(arc.diagram)
    f1, f2 = faces.face_of(crossed, RIGHT), faces.face_of(crossed, LEFT)
    return (first, f1), (crossed, f1, f2), (second, f2)


def super_kind(arc: arcs.AttachingArc) -> str | None:
    """"direct" when the crossing is the middle one of a supertrivial
    arc's three sites on its crossed chord, else "indirect"; None for an
    arc that is not supertrivial."""
    order = arc.signature[3]
    if len(order) != 3:
        return None
    return "direct" if order[1] == 1 else "indirect"


def single_arc_system(arc: arcs.AttachingArc) -> arcs.BypassSystem:
    """One attaching arc realised as a bypass system of arc 0, its sites
    placed as random_system places a drawn class."""
    sites, bits = arcs._single_arc_sites(arc.diagram.pairing, arc.signature)
    return build_system(arc.diagram, sites, bits)


def system_diagram(system: arcs.BypassSystem) -> D.ChordDiagram:
    """The diagram the strands join, which the sites leave unchanged: the
    strand walk with no arc surgered, that of the system of no arcs."""
    return arcs.surgery_along_system(system.subsystem(()), "up")


# The glues of the splice route, as literal data: each direction joins
# three pairs of an arc's six hexagon handles (in the order of
# arcs._onward), one step round from the pairs (0, 5), (1, 4), (2, 3)
# that the sites themselves join.
GLUES = {"up": ((1, 2), (0, 3), (4, 5)), "down": ((0, 1), (2, 5), (3, 4))}


def hexagon_handles(system: arcs.BypassSystem, arc_id: int) -> tuple[int, ...]:
    """The six handles of an arc's hexagon, in cyclic order."""
    x0, x1, y0, y1 = system.darts[4 * arc_id : 4 * arc_id + 4]
    return (x0, y0, y1 ^ 1, y1, x1, x0 ^ 1)


def surgery_step(system: arcs.BypassSystem, arc_id: int, direction: str):
    """One bypass surgery along arc arc_id by splicing a copy of the
    matching, the route the strand walk is checked against: the system
    of the other arcs on the surgered diagram, or ZERO when a glue
    closes a loop.  Each glue (a, b) splices the mates of handles a and
    b together and drops both; a glue closes a loop when it joins the
    two ends of one piece, or when the walk on from a new junction
    through the other arcs' sites comes back to it."""
    m, mate = system.m, list(system.mate)
    handles = hexagon_handles(system, arc_id)
    joined = []
    for a, b in GLUES[direction]:
        x, y = handles[a], handles[b]
        p, q = mate[x], mate[y]
        if p == y:
            return D.ZERO
        mate[p], mate[q] = q, p
        joined += (p, q)
    for p in joined:
        if p < m or p in handles:
            continue
        x = p
        while (z := mate[x]) >= m:
            x = z ^ 1
            if x == p:
                return D.ZERO
    return arcs.BypassSystem(m, mate, system.darts, [a for a in system.arc_ids if a != arc_id])


def system_json(system: arcs.BypassSystem) -> dict:
    """Per arc, the chord of each site and the faces its segments run
    in.  Walked from its strand's low end, a site is reached at the end
    facing the chord's RIGHT face and left at the LEFT one: build_system
    puts the even end first, but surgery may reverse a piece."""
    diagram = system_diagram(system)
    faces, m, mate = Faces(diagram), system.m, system.mate
    at = {}  # site end -> (chord index, face on its side)
    for si, (a, _b) in enumerate(diagram.chords()):
        right, left = (si, faces.face_of(si, RIGHT)), (si, faces.face_of(si, LEFT))
        z = mate[a]
        while z >= m:
            at[z], at[z ^ 1] = right, left
            z = mate[z ^ 1]
    arcs_out = []
    for aid in system.arc_ids:
        x0, x1, _y0, y1 = system.darts[4 * aid : 4 * aid + 4]
        (si0, f1), (si1, _f), (si2, f2) = at[x0], at[x1], at[y1]
        arcs_out.append({"end1": [si0, f1], "middle": [si1, f1, f2], "end2": [si2, f2]})
    return {"diagram": D.serialize(diagram), "arcs": arcs_out}


def strands(system: arcs.BypassSystem) -> list[tuple[tuple[int, int], list[int]]]:
    """Each strand of a system as ((low end, high end), its sites from the
    low end), ascending in the low end as ChordDiagram.chords()."""
    m, mate = system.m, system.mate
    out = []
    for a in range(m):
        sites, z = [], mate[a]
        while z >= m:
            sites.append((z - m) >> 1)
            z = mate[z ^ 1]
        if a < z:
            out.append(((a, z), sites))
    return out
