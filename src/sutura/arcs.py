"""Attaching arcs, bypass surgery, bypass systems, and pinwheels.

An attaching arc meets the diagram in three points: two endpoints resting
on chords and one transversal crossing.  Up to homotopy it is recorded by
which chords it touches, which complementary faces it passes through, and
the order of its contact points along any chord it meets more than once.

Bypass surgery re-matches the six ends cut at an arc's three contact
points one step around the surrounding hexagon; the two nontrivial
re-matchings are the two surgery directions.  A single arc is classified
and surgered on the bare pairing (sfh.bypass_rewire; the split of the
decomposition walk is its two steps on the arc hugging the base point).  A
BypassSystem realises a set of disjoint arcs as one perfect matching on
integer ends: the 2N boundary points, and two ends
for each contact site, one on each strand piece the site separates.
Surgery along a set of its arcs is one read-only walk of the strands:
a strand crosses a site to its other end, except at a surgered arc's
site end, where it turns to the end that the arc's hexagon, re-matched
by the same bypass_rewire step, joins it to.  The result is the
diagram the walks from the boundary points join, or ZERO when they
leave a site end uncrossed (a closed curve).  It is the final strands,
so no order of the arcs enters, and the bypass-system relation holds
under it.  A system has a pinwheel in a direction exactly when surgery
that way along some subset of its arcs closes a curve; a pinwheel
makes the layer overtwisted.  The regions of a system, the faces cut
along the arc segments, are the orbits of one permutation on its ends,
the face step of diagram.region_orbits followed by a jump across each
segment: planarity is an Euler count of them.  A generalised arc is the
chords that separate its two outer regions, read off the pairing with
no face walked.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import sfh
from .diagram import (
    ChordDiagram,
    ZERO,
    _face_cycles,
    is_zero,
    serialize,
)
from .errors import (
    ArcNotDefined,
    ArcNotOnDiagram,
    BadArgument,
    BrokenInvariant,
    MoveUndefined,
    NotComparable,
    NotNicelyOrdered,
    NotPlanar,
    TrivialArc,
)
from .words import MINUS, PLUS, Word, partial_leq

LEFT, RIGHT = 1, -1

# Which hexagon rotation is the upwards surgery, by direction, as a
# bypass_rewire step: pinned by the word-level effect of single bypass
# moves on basis diagrams (tests assert the anchoring examples; swapping
# the "up" and "down" entries makes those fail).
#
# The six handles of an arc's hexagon, in cyclic order, are its site ends
# (see _onward), and the sites themselves join handle j to handle
# 5 - j (_HEXAGON).  A direction re-matches them by bypass_rewire's
# opposite step: _GLUE holds the handles' pairing after surgery, by
# direction (a test pins the three pairs each way).
_HEXAGON = (5, 4, 3, 2, 1, 0)
_STEPS = {"up": 1, "down": -1}
_GLUE = {way: sfh.bypass_rewire(_HEXAGON, (0, 1, 2), -step) for way, step in _STEPS.items()}
_FORWARDS = {"FE": True, "BE": False}  # whether each move kind is forwards
_MOVE = {"FA": "FE", "BA": "BE"}  # the move each kind of generalised arc realises


def _entry(table: dict, key: str, what: str):
    """The table's entry for key; a key it lacks is rejected, naming its keys."""
    try:
        return table[key]
    except KeyError:
        raise BadArgument(f"{what} must be {' or '.join(map(repr, table))}, not {key!r}") from None


class BypassSystem:
    """Disjoint attaching arcs realised on one diagram, as a matching on ends.

    Ends 0..m-1 are the boundary points.  Site i of arc a is site
    s = 3a + i: an endpoint for i = 0, 2 and the crossing for i = 1.  Its
    two ends m + 2s and m + 2s + 1 lie on the two strand pieces it
    separates, the second towards the high end of the chord it was
    placed on.  mate[x] is the other end of the piece at x.  Segment 0
    of arc a runs from site 0 to site 1, segment 1 from site 1 to site 2;
    darts[4a:4a+4] holds, segment by segment, the end of each of its two
    sites on whose side it leaves (at the crossing these are the site's
    two ends).  Those side bits are relative to the site's own pair of
    ends, so reading a strand backwards flips nothing.  The live ends
    are the boundary points and both ends of every site of arc_ids; the
    ends of dropped sites are never reached from them.

    The sites leave the faces of the diagram as they are (Faces); the
    regions are the orbits of one walk on the live ends, the face step
    followed by a jump across a segment wherever one leaves.

    No method changes a system (subsystem builds a new one), so a
    system can be handed to any number of readers.
    """

    __slots__ = ("m", "mate", "darts", "arc_ids")

    def __init__(self, m: int, mate, darts, arc_ids):
        self.m = m
        self.mate = tuple(mate)
        self.darts = tuple(darts)
        self.arc_ids = tuple(arc_ids)

    @classmethod
    def build(cls, diagram: ChordDiagram, strand_sites: dict, bits) -> "BypassSystem":
        """Place sites on the chords of a diagram.

        strand_sites maps a chord index (into diagram.chords()) to its
        sites in order from the chord's low end.  bits[s] picks the end of
        site s facing its segment (segment 0 at the crossing): 1 for the
        second end, whose side is the chord's LEFT face (Faces.face_of).
        bits holds three per arc, so the arc ids are 0..len(bits) // 3 - 1.
        """
        m = 2 * diagram.n
        arc_ids = range(len(bits) // 3)
        mate = list(diagram.pairing) + [-1] * (6 * len(arc_ids))
        for si, (a, b) in enumerate(diagram.chords()):
            prev = a
            for s in strand_sites.get(si, ()):
                x = m + 2 * s
                mate[prev], mate[x] = x, prev
                prev = x + 1
            mate[prev], mate[b] = b, prev
        darts = []
        for aid in arc_ids:
            x0, x1, x2 = (m + 2 * s + bits[s] for s in range(3 * aid, 3 * aid + 3))
            darts += (x0, x1, x1 ^ 1, x2)
        return cls(m, mate, darts, arc_ids)

    @classmethod
    def bare(cls, diagram: ChordDiagram) -> "BypassSystem":
        return cls.build(diagram, {}, ())

    def regions(self) -> list[list[int]]:
        """The regions the arc segments cut the faces into, boundary points
        first: the orbits over the live ends of the face step (an end x
        leads along its piece to mate[x], a site is crossed to its other
        end, and boundary point p leads on to p - 1, as in
        diagram.region_orbits) followed by a jump along the segment
        leaving, if one does, to its other end.  Walked with the region on
        its left, an orbit holds the end each of its sides lands on.  A
        region inside a face may meet no boundary point, so orbits start
        from site ends too.
        """
        m, mate = self.m, self.mate
        jump = {}
        for aid in self.arc_ids:
            x0, x1, y0, y1 = self.darts[4 * aid : 4 * aid + 4]
            jump[x0], jump[x1], jump[y0], jump[y1] = x1, x0, y1, y0
        seen = [False] * len(mate)
        site_ends = (x for aid in self.arc_ids for x in range(m + 6 * aid, m + 6 * aid + 6))
        orbits = []
        for start in (*range(m), *site_ends):
            orbit, x = [], start
            while not seen[x]:
                seen[x] = True
                orbit.append(x)
                y = mate[x]
                x = (y - 1) % m if y < m else y ^ 1
                x = jump.get(x, x)
            if orbit:
                orbits.append(orbit)
        return orbits

    def validate(self) -> None:
        """Check planarity by the Euler count of the disc map.

        The N + 1 faces are the orbits of the face step alone, and each of
        the 2·#arcs segment jumps composes it with a transposition, which
        splits one orbit in two or joins two into one.  So there are
        N + 1 + 2·#arcs regions exactly when the two ends of every segment
        share a face and no two segments cross.  Raises NotPlanar; the
        check is explicit, so it holds under -O.
        """
        want = self.m // 2 + 1 + 2 * len(self.arc_ids)
        got = len(self.regions())
        if got != want:
            raise NotPlanar(f"{got} regions, not {want}: segments cross or join two faces")

    def subsystem(self, keep_ids) -> "BypassSystem":
        """The system of the given arcs: the others' sites spliced out of
        their strands."""
        keep = set(keep_ids)
        mate = list(self.mate)
        for aid in self.arc_ids:
            if aid not in keep:
                for x in range(self.m + 6 * aid, self.m + 6 * aid + 6, 2):
                    p, q = mate[x], mate[x + 1]
                    mate[p], mate[q] = q, p
        return BypassSystem(self.m, mate, self.darts, [a for a in self.arc_ids if a in keep])


class Faces:
    """Faces of a bare diagram.

    Face f is the orbit cycles[f] of boundary arcs (diagram.region_orbits);
    the chord after arc k in the walk is the one leaving point k.  A
    chord's LEFT face is walked from its low end, its RIGHT face from its
    high end.
    """

    def __init__(self, diagram: ChordDiagram):
        self.cycles = _face_cycles(diagram.pairing)
        self._chords = diagram.chords()
        self._chord_at = [0] * (2 * diagram.n)
        for si, (a, b) in enumerate(self._chords):
            self._chord_at[a] = self._chord_at[b] = si
        self._face_at = [0] * (2 * diagram.n)
        for f, orbit in enumerate(self.cycles):
            for k in orbit:
                self._face_at[k] = f

    def face_of(self, strand_index: int, side: int) -> int:
        a, b = self._chords[strand_index]
        return self._face_at[a if side == LEFT else b]

    def strands_around(self, face: int) -> list[int]:
        """Chord indices along the face's boundary walk, in traversal order."""
        return [self._chord_at[k] for k in self.cycles[face]]


def _facing(faces: Faces, si: int, f: int) -> int:
    """Site bit (see BypassSystem.build) of a site on chord si facing face f."""
    if faces.face_of(si, LEFT) == f:
        return 1
    if faces.face_of(si, RIGHT) == f:
        return 0
    raise NotPlanar(f"chord {si} does not bound face {f}")


# -- elementary moves on words ---------------------------------------------------


def _move_ends(w: Word, i: int, j: int) -> tuple[int, int] | None:
    """Positions of the i'th minus and the j'th plus (1-based), or None."""
    if not (1 <= i <= w.n_minus and 1 <= j <= w.n_plus):
        return None
    return w.positions(MINUS)[i - 1], w.positions(PLUS)[j - 1]


def move_exists(w: Word, kind: str, i: int, j: int) -> bool:
    """Existence of the generalised move: FE needs the i'th minus left of
    the j'th plus, BE the j'th plus left of the i'th minus; any other
    kind is rejected."""
    forwards = _entry(_FORWARDS, kind, "kind")
    ends = _move_ends(w, i, j)
    return ends is not None and (ends[0] < ends[1]) == forwards


def strict_move_exists(w: Word, kind: str, i: int, j: int) -> bool:
    """Existence of the single-bypass move: the two signs must sit in
    adjacent blocks."""
    if not move_exists(w, kind, i, j):
        return False
    pm, pp = _move_ends(w, i, j)
    lo, hi, first = (pm, pp, MINUS) if kind == "FE" else (pp, pm, PLUS)
    # between must be -...-+...+ for FE and +...+-...- for BE: the signs
    # of the first kind strictly between fill lo+1, lo+2, ... with no gap
    inside = [p for p in w.positions(first) if lo < p < hi]
    return all(p == lo + 1 + k for k, p in enumerate(inside))


def elementary_move(w: Word, kind: str, i: int, j: int) -> Word:
    """Generalised elementary move FE(i,j) or BE(i,j) applied to w."""
    if not move_exists(w, kind, i, j):
        raise MoveUndefined(f"{kind}({i},{j}) does not exist on {w}")
    pm, pp = _move_ends(w, i, j)
    # FE moves the minuses in [pm, pp) to just after the j'th plus (at pp),
    # BE the pluses in [pp, pm) to just after the i'th minus (at pm)
    sign, lo, hi = (MINUS, pm, pp) if kind == "FE" else (PLUS, pp, pm)
    moved = [p for p in w.positions(sign) if lo <= p < hi]
    out = w
    for p in reversed(moved):
        out = out.delete(p)
    anchor = hi - len(moved)  # every moved sign sat left of the anchor
    for _ in moved:
        out = out.insert(anchor + 1, sign)
    return out


# -- attaching-arc classes on a bare diagram ----------------------------------


_TRIVIALITY = {1: "nontrivial", 2: "slightly_trivial", 3: "supertrivial"}


class AttachingArc(namedtuple("AttachingArc", "diagram signature")):
    """One homotopy class of attaching arc on a bare diagram, held as its
    signature: its three chords and the order of its sites on the
    crossed chord (see _arc_signatures).  _single_arc_sites places its
    sites, and classes differing in the order alone are unequal.

    An arc is nontrivial, slightly trivial or supertrivial as one, two or
    three of its sites lie on the crossed chord.  A trivial arc is
    downwards exactly when that order is an even permutation (for a
    slightly trivial arc: end 1 before the crossing, or end 2 after it).
    """

    __slots__ = ()

    @property
    def triviality(self) -> str:
        """One of "nontrivial", "slightly_trivial" and "supertrivial"."""
        return _TRIVIALITY[len(self.signature[3])]

    @property
    def direction(self) -> str | None:
        """For a trivial arc "upwards" or "downwards", for a nontrivial one None."""
        order = self.signature[3]
        if len(order) == 1:
            return None
        inversions = sum(a > b for k, a in enumerate(order) for b in order[k + 1 :])
        return "upwards" if inversions % 2 else "downwards"


def _single_arc_sites(faces: Faces, signature):
    """One arc's site indices by chord, from the low end, and their bits.

    The crossed chord si2 holds the sites in the signature's order; an
    end chord other than si2 holds its one end.  The first segment runs
    in si2's RIGHT face and the second in its LEFT face, so the crossing
    faces the first (bit 0).
    """
    si2, si1, si3, order = signature
    sites = {si2: list(order)}
    if si1 != si2:
        sites[si1] = [0]
    if si3 != si2:
        sites[si3] = [2]
    f1, f2 = faces.face_of(si2, RIGHT), faces.face_of(si2, LEFT)
    return sites, (_facing(faces, si1, f1), 0, _facing(faces, si3, f2))


def find_attaching_arcs(diagram: ChordDiagram) -> list[AttachingArc]:
    """One class per homotopy class of attaching arc, in the order of the
    memo of _arc_signatures."""
    return [AttachingArc(diagram, signature) for signature in _arc_signatures(diagram)]


def up_moves(diagram: ChordDiagram) -> list[ChordDiagram]:
    """The diagrams one upwards bypass reaches, one per nontrivial arc class.

    A nontrivial class is fixed by its crossed chord (a, b) and one other
    chord on each of its faces (_arc_signatures enumerates the classes
    so), and upward surgery along it is bypass_rewire on the
    three, whatever the faces or the end order.  A face's walk meets each
    chord bounding it once, so each x != a on the walk of arc a and y != b
    on that of arc b give one class.
    """
    pairing, step = diagram.pairing, _STEPS["up"]
    walk_of = {k: walk for walk in _face_cycles(pairing) for k in walk}
    return [
        ChordDiagram._of(sfh.bypass_rewire(pairing, (x, a, y), step))
        for a, b in diagram.chords()
        for x in walk_of[a]
        if x != a
        for y in walk_of[b]
        if y != b
    ]


@lru_cache(maxsize=None)
def _arc_signatures(diagram: ChordDiagram) -> tuple[tuple, ...]:
    """The signature (si2, si1, si3, order) of every arc class.

    The arc crosses chord si2 from its RIGHT face, where its first end
    rests on chord si1, to its LEFT face, where its second end rests on
    chord si3; order is its sites on si2 from the low end (0 the first
    end, 1 the crossing, 2 the second end).  The end chords run through
    each face's chords in ascending order, the first slowest.  An end on
    si2 itself takes each slot after the crossing, nearest first, then
    each slot before it, nearest first.

    Memoised: find_attaching_arcs and random_system ask for the same
    diagrams again and again, and a signature is three chord indices and
    at most three sites, so keeping them costs little memory.
    """
    faces = Faces(diagram)
    firsts = _placements((1,), 0)
    seconds = {first: _placements(first, 2) for first in ((1,), *firsts)}
    out = []
    for si2 in range(diagram.n):
        right = sorted(faces.strands_around(faces.face_of(si2, RIGHT)))
        left = sorted(faces.strands_around(faces.face_of(si2, LEFT)))
        for si1 in right:
            for first in firsts if si1 == si2 else ((1,),):
                for si3 in left:
                    for order in seconds[first] if si3 == si2 else (first,):
                        out.append((si2, si1, si3, order))
    return tuple(out)


def _placements(order: tuple[int, ...], site: int) -> tuple[tuple[int, ...], ...]:
    """order with site put in each slot after the crossing (site 1), nearest
    first, then in each slot before it, nearest first."""
    c = order.index(1)
    slots = (*range(c + 1, len(order) + 1), *range(c, -1, -1))
    return tuple(order[:k] + (site,) + order[k:] for k in slots)


def surgery(diagram_or_zero, arc: AttachingArc, direction: str):
    """Single bypass surgery on the pairing; ZERO absorbs.

    Along a nontrivial arc it is bypass_rewire on the arc's three chords,
    one step round the hexagon per direction.  A trivial arc gives the
    diagram back in its own direction and closes a loop (ZERO) in the
    other.
    """
    if is_zero(diagram_or_zero):
        return ZERO
    if arc.diagram != diagram_or_zero:
        raise ArcNotOnDiagram("arc realised on a different diagram")
    step = _entry(_STEPS, direction, "direction")
    diagram = arc.diagram
    if arc.signature not in _arc_signatures(diagram):
        raise ArcNotOnDiagram(f"{arc.signature} is no arc class of {serialize(diagram)}")
    if arc.triviality != "nontrivial":
        return diagram if arc.direction == direction + "wards" else ZERO
    chords = diagram.chords()
    points = [chords[si][0] for si in arc.signature[:3]]
    return ChordDiagram._of(sfh.bypass_rewire(diagram.pairing, points, step))


def bypass_triple(diagram: ChordDiagram, arc: AttachingArc):
    """(diagram, up, down) for a nontrivial arc."""
    if arc.triviality != "nontrivial":
        raise TrivialArc("bypass triples need a nontrivial arc")
    up = surgery(diagram, arc, "up")
    down = surgery(diagram, arc, "down")
    if is_zero(up) or is_zero(down) or len({diagram, up, down}) != 3:
        raise BrokenInvariant("a nontrivial arc must give three distinct diagrams")
    return diagram, up, down


# -- generalised arcs and bypass systems ---------------------------------------


class GeneralisedArc(namedtuple("GeneralisedArc", "word kind i j path_edges outward")):
    """A nontrivial generalised attaching arc FA(i,j)/BA(i,j) on a basis diagram.

    kind is "FA" or "BA".  The arc runs from the outer region of its
    prior chord to that of its latter chord, crossing each chord that
    separates the two once: path_edges lists those chord indices in the
    order it meets them, and outward[t] is True when it leaves chord
    path_edges[t] from its inside, the chord's LEFT face (see Faces),
    and False when it enters.
    """

    __slots__ = ()

    @property
    def crossings(self) -> int:
        return len(self.path_edges)


@lru_cache(maxsize=None)
def generalised_arc(w: Word, kind: str, i: int, j: int) -> GeneralisedArc:
    """The generalised attaching arc realising the move of the same name.

    Its prior chord is the one the i'th minus (FA) or the j'th plus (BA)
    creates in the base fold, sfh.base_chords; its latter chord is the
    one the j'th plus (FA) or the i'th minus (BA) creates in the root
    fold, sfh.root_chords.  The prior chord's outer region is negative
    for FA and positive for BA, the latter's the other way round.

    Boundary arc k has the sign of k's parity and lies inside chord
    (a, b), a < b, exactly when a <= k < b.  So the outer regions hold
    the arcs k1 and k2 at the ends of their chords of their parity, and
    the arc leaves the chords holding k1 but not k2, innermost first,
    then enters those holding k2 but not k1, outermost first.
    Memoised: the coarse systems of many pairs share their arcs, and a
    GeneralisedArc is frozen, so one instance serves every caller.
    """
    if not move_exists(w, _entry(_MOVE, kind, "kind"), i, j):
        raise ArcNotDefined(f"{kind}({i},{j}) does not exist on {w}")
    minus, plus = _move_ends(w, i, j)
    if kind == "FA":
        prior_c, latter_c, parity = sfh.base_chords(w)[minus], sfh.root_chords(w)[plus], 1
    else:
        prior_c, latter_c, parity = sfh.base_chords(w)[plus], sfh.root_chords(w)[minus], 0
    k1 = next(k for k in prior_c if k % 2 == parity)
    k2 = next(k for k in latter_c if k % 2 != parity)
    chords = sfh.basis_diagram(w).chords()
    out, into = [], []
    for si, (a, b) in enumerate(chords):
        holds1, holds2 = a <= k1 < b, a <= k2 < b
        if holds1 != holds2:
            (out if holds1 else into).append(si)
    # chords() is ascending in the low end, so nested chords run outermost first
    path = (*reversed(out), *into)
    if not path or (chords[path[0]], chords[path[-1]]) != (prior_c, latter_c):
        raise ArcNotDefined(f"{kind}({i},{j}): outer regions not joined through the chords")
    if len(path) % 2 != 1:
        raise BrokenInvariant(f"{kind}({i},{j}): a generalised arc must meet an odd number of chords")
    return GeneralisedArc(w, kind, i, j, path, (True,) * len(out) + (False,) * len(into))


# split perturbation: (offset of the earlier arc's endpoint, offset of the
# later arc's endpoint) at a chord shared by two pieces of one split arc
_SPLIT_OFFSETS = {"FA": (-1, 1), "BA": (1, -1)}


def surgery_along_system(system: BypassSystem, direction: str):
    """Surger every arc of the system at once: the diagram its final
    strands join, or ZERO when they close a curve."""
    pairing = _strands(system, _onward(system, direction))
    return ZERO if pairing is None else ChordDiagram(pairing)


def _onward(system: BypassSystem, direction: str) -> list[int]:
    """For each site end z of the arcs, the end that a strand arriving at
    z reaches next after surgery in the direction along every arc: it
    turns to the end that the arc's re-matched hexagon joins z to, and
    runs along that piece to its mate.

    The hexagon's handles in cyclic order are: site 0's end facing
    segment 0, site 1's end facing segment 1, site 2's other end, site
    2's end facing segment 1, site 1's end facing segment 0, site 0's
    other end.
    """
    mate, glue = system.mate, _entry(_GLUE, direction, "direction")
    onward = list(mate)
    for aid in system.arc_ids:
        x0, x1, y0, y1 = system.darts[4 * aid : 4 * aid + 4]
        handles = (x0, y0, y1 ^ 1, y1, x1, x0 ^ 1)
        for h, g in zip(handles, glue):
            onward[h] = mate[handles[g]]
    return onward


def _strands(system: BypassSystem, onward: list[int]) -> list[int] | None:
    """The pairing of boundary points that the strands join, a strand
    arriving at site end z going on to onward[z] (see _onward), or None
    for a closed curve.

    Every live site end lies on a strand or on a closed curve, and a
    walk crosses two ends at a step, so a closed curve is there exactly
    when the walks take fewer than three steps per arc.
    """
    m, mate = system.m, system.mate
    pairing, steps = [-1] * m, 0
    for p in range(m):
        if pairing[p] < 0:
            z = mate[p]
            while z >= m:
                z = onward[z]
                steps += 1
            pairing[p], pairing[z] = z, p
    return pairing if steps == 3 * len(system.arc_ids) else None


def _subset_strands(system: BypassSystem, direction: str, first: int = 0):
    """_strands after surgery along each subset of the system's arcs, in
    the binary order of their masks from first on (0: the empty subset).
    A subset sets each arc's six entries as with no surgery, crossing
    from z to z ^ 1, or as with surgery along every arc."""
    m, mate = system.m, system.mate
    onward = _onward(system, direction)
    ways = [
        (lo, ([mate[z ^ 1] for z in range(lo, lo + 6)], onward[lo : lo + 6]))
        for lo in (m + 6 * aid for aid in system.arc_ids)
    ]
    for mask in range(first, 1 << len(ways)):
        for bit, (lo, way) in enumerate(ways):
            onward[lo : lo + 6] = way[(mask >> bit) & 1]
        yield _strands(system, onward)


def expand_subsets(system: BypassSystem, direction: str):
    """Mod-2 multiset of surgeries over all subsets of the system."""
    odd: dict = {}  # result -> odd multiplicity so far, in first-seen order
    for pairing in _subset_strands(system, direction):
        result = ZERO if pairing is None else ChordDiagram(pairing)
        odd[result] = not odd.get(result, False)
    return [result for result, keep in odd.items() if keep]


def has_pinwheel(system: BypassSystem, direction: str) -> bool:
    """Whether the system has a pinwheel of the given direction: surgery
    that way along some subset of its arcs closes a curve.  The empty
    subset closes none, so the walk starts after it."""
    return any(pairing is None for pairing in _subset_strands(system, direction, 1))


def _place_generalised(w: Word, gens: list[GeneralisedArc], kind: str) -> BypassSystem:
    """Realise a nicely ordered family, splitting each generalised arc.

    A member meeting chords E splits into the arcs (E[2k], E[2k+1],
    E[2k+2]).  A start site faces the region after its chord, the RIGHT
    face (bit 0) when the arc leaves it outwards; crossing and end sites
    face the region before theirs, the LEFT face (bit 1) when outwards.

    Every later member lies on the same side (the 'southwest' or
    'northwest' choice) of all earlier ones: its sites come nearer each
    chord's west end, point 0 for the chord through the base point and
    the high end for every other.  At a chord shared by two pieces of
    one split arc, the split offset (_SPLIT_OFFSETS) orders their
    endpoints.  So a chord's sites run in (-member, offset) order from
    its west end.
    """
    diagram = sfh.basis_diagram(w)
    chords = diagram.chords()
    placed: dict[int, list[tuple[int, int, int]]] = {si: [] for si in range(len(chords))}
    bits: list[int] = []
    off_first, off_second = _SPLIT_OFFSETS[kind]

    for v, g in enumerate(gens):
        E, out = g.path_edges, g.outward
        n_arcs = (len(E) - 1) // 2
        for k in range(n_arcs):
            s, t = len(bits), 2 * k
            bits += (int(not out[t]), int(out[t + 1]), int(out[t + 2]))
            placed[E[t]].append((-v, off_second if k > 0 else 0, s))
            placed[E[t + 1]].append((-v, 0, s + 1))
            placed[E[t + 2]].append((-v, off_first if k < n_arcs - 1 else 0, s + 2))

    # sorted (-member, offset, site) runs from the west end, the low end only at 0
    strand_sites = {
        si: [s for *_key, s in sorted(placed[si], reverse=a != 0)]
        for si, (a, _b) in enumerate(chords)
    }
    system = BypassSystem.build(diagram, strand_sites, bits)
    system.validate()
    return system


def nicely_ordered_system(w: Word, gens: list[GeneralisedArc]) -> BypassSystem:
    """Joint realisation of a nicely ordered family of generalised arcs."""
    if not gens:
        return BypassSystem.bare(sfh.basis_diagram(w))
    kinds = {g.kind for g in gens}
    if len(kinds) != 1:
        raise NotNicelyOrdered("mixed forwards/backwards arcs")
    kind = kinds.pop()
    if any(g.word != w for g in gens):
        raise NotNicelyOrdered("arcs on different base words")
    iis = [g.i for g in gens]
    jjs = [g.j for g in gens]
    if kind == "FA":
        ok = all(a < b for a, b in zip(iis, iis[1:])) and all(
            a <= b for a, b in zip(jjs, jjs[1:])
        )
    else:
        ok = all(a > b for a, b in zip(jjs, jjs[1:])) and all(
            a >= b for a, b in zip(iis, iis[1:])
        )
    if not ok:
        raise NotNicelyOrdered(f"indices not nicely ordered for {kind}")
    return _place_generalised(w, gens, kind)


def _forwards_members(w1: Word, w2: Word) -> list[GeneralisedArc]:
    """The members FA(i, j) of cfbs: i ascending, j never decreasing."""
    if not partial_leq(w1, w2):
        raise NotComparable(f"{w1} is not below {w2}")
    minus = w2.positions(MINUS)
    gens = []
    for i in range(1, w1.n_minus + 1):
        j = minus[i - 1] - (i - 1)  # the pluses of w2 before its i'th minus
        if j >= 1 and move_exists(w1, "FE", i, j):
            gens.append(generalised_arc(w1, "FA", i, j))
    return gens


def _backwards_members(w1: Word, w2: Word) -> list[GeneralisedArc]:
    """The members BA(i, j) of cbbs: j descending, i never increasing."""
    if not partial_leq(w1, w2):
        raise NotComparable(f"{w1} is not below {w2}")
    plus = w1.positions(PLUS)
    gens = []
    for j in range(w2.n_plus, 0, -1):
        i = plus[j - 1] - (j - 1)  # the minuses of w1 before its j'th plus
        if i >= 1 and move_exists(w2, "BE", i, j):
            gens.append(generalised_arc(w2, "BA", i, j))
    return gens


def cfbs(w1: Word, w2: Word) -> BypassSystem:
    """Coarse forwards bypass system of a comparable pair, on the lower diagram."""
    return nicely_ordered_system(w1, _forwards_members(w1, w2))


def cbbs(w1: Word, w2: Word) -> BypassSystem:
    """Coarse backwards bypass system of a comparable pair, on the upper diagram."""
    return nicely_ordered_system(w2, _backwards_members(w1, w2))


def _kept_members(w: Word, gens, keep, direction: str, target: ChordDiagram) -> BypassSystem:
    """The nicely ordered system of gens cut down to the pieces of each
    member k with keep[k] (member k's (crossings - 1) // 2 pieces are
    contiguous); surgery along it must reach target."""
    ids, start = [], 0
    for g, kept in zip(gens, keep):
        pieces = (g.crossings - 1) // 2
        ids += range(start, start + pieces) if kept else ()
        start += pieces
    system = nicely_ordered_system(w, gens).subsystem(ids)
    if surgery_along_system(system, direction) != target:
        raise BrokenInvariant(f"{direction}wards surgery along the kept members misses its target")
    return system


# Keeps nothing; decorated only because bench/tracer.py:147 reads its cache_info().
@lru_cache(maxsize=0)
def fbs(w1: Word, w2: Word) -> BypassSystem:
    """The minimal forwards bypass system, upwards onto the upper diagram: of
    the members FA(i, j) of cfbs, the first of each run of equal j (least i).
    Each call builds a new system."""
    gens = _forwards_members(w1, w2)
    keep = [k == 0 or g.j != gens[k - 1].j for k, g in enumerate(gens)]
    return _kept_members(w1, gens, keep, "up", sfh.basis_diagram(w2))


def bbs(w1: Word, w2: Word) -> BypassSystem:
    """The minimal backwards bypass system, downwards onto the lower diagram: of
    the members BA(i, j) of cbbs, the last of each run of equal i (least j)."""
    gens = _backwards_members(w1, w2)
    keep = [k == len(gens) - 1 or g.i != gens[k + 1].i for k, g in enumerate(gens)]
    return _kept_members(w2, gens, keep, "down", sfh.basis_diagram(w1))


def random_system(diagram: ChordDiagram, n_arcs: int, rng) -> BypassSystem | None:
    """Randomly realise a system of disjoint attaching arcs, or give up.

    Draws class signatures (_arc_signatures, in find_attaching_arcs
    order) and inserts their sites at random slots, those on the crossed
    chord in the signature's order, retrying until the joint system is
    planar.
    """
    signatures = _arc_signatures(diagram)
    faces = Faces(diagram)
    strand_sites: dict[int, list[int]] = {si: [] for si in range(diagram.n)}
    bits: tuple[int, ...] = ()
    system = BypassSystem.bare(diagram)
    placed = 0
    for _ in range(40 * n_arcs):
        if placed == n_arcs:
            break
        signature = signatures[rng.randrange(len(signatures))]
        sites, cls_bits = _single_arc_sites(faces, signature)
        trial = {si: list(lst) for si, lst in strand_sites.items()}
        for si in sorted(sites):
            for idx in sites[si]:
                lst = trial[si]
                lst.insert(rng.randrange(len(lst) + 1), 3 * placed + idx)
        trial_system = BypassSystem.build(diagram, trial, bits + cls_bits)
        try:
            trial_system.validate()
        except NotPlanar:
            continue
        strand_sites, bits, system = trial, bits + cls_bits, trial_system
        placed += 1
    if placed < n_arcs:
        return None
    return system
