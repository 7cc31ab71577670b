"""Stackability of chord diagrams and bounded contact categories.

Stacking two diagrams on the ends of a cylinder and rounding the corners
glues their chords through 2N boundary connectors; the result is tight
exactly when the glued curve is a single loop.  The connector joining
bottom point k to top point k-1 is the calibration choice: it makes
every diagram stackable on itself and reproduces the direction table of
single bypass attachments (the opposite shift fails both, which the
tests keep as a negative check).  From bottom point k the curve crosses
to the top, follows a top chord, crosses back and follows a bottom chord
to sigma(k) = bottom[(top[(k + shift) mod 2N] - shift) mod 2N]; each loop
is two orbits of sigma, one per direction of travel.
"""

from __future__ import annotations

from functools import lru_cache
from graphlib import CycleError, TopologicalSorter

from . import arcs as _arcs
from . import sfh
from .diagram import ChordDiagram, delete_points, euler_class, orbit_sign
from .errors import BrokenInvariant, NoCommonOutermost, NotTight, SizeMismatch, TrivialArc
from .words import partial_leq


# Bottom point k is joined to top point k + shift; loop_count reads it on each call.
_CONNECTOR_SHIFT = -1


def loop_count(bottom: ChordDiagram, top: ChordDiagram) -> int:
    """Loops of the rounded suture: half the number of orbits of sigma."""
    if bottom.n != top.n:
        raise SizeMismatch("stacking needs equal chord counts")
    b, t = bottom.pairing, top.pairing
    m, shift = len(b), _CONNECTOR_SHIFT
    sigma = [b[(t[(k + shift) % m] - shift) % m] for k in range(m)]
    seen = [False] * m
    orbits = 0
    for k in range(m):
        if not seen[k]:
            orbits += 1
            while not seen[k]:
                seen[k] = True
                k = sigma[k]
    return orbits // 2


def m_geometric(bottom: ChordDiagram, top: ChordDiagram) -> int:
    """1 when the rounded suture is a single loop (the stacking is tight)."""
    return 1 if loop_count(bottom, top) == 1 else 0


def m_algebraic(bottom: ChordDiagram, top: ChordDiagram) -> int:
    """Parity of comparable pairs between the two basis decompositions.

    Every word of a diagram's decomposition has the grading its chord
    count and euler class fix, and words of two gradings are never
    comparable; within one, each pair is one words.partial_leq test on
    the two words' stored letters.
    """
    if bottom.n != top.n:
        raise SizeMismatch("stacking needs equal chord counts")
    if euler_class(bottom) != euler_class(top):
        return 0
    tops = sfh.decompose(top).words
    return sum(partial_leq(a, b) for a in sfh.decompose(bottom).words for b in tops) % 2


def cancel_outermost(bottom: ChordDiagram, top: ChordDiagram):
    """Remove a shared outermost chord; stackability is unchanged.

    Both diagrams are renumbered by diagram.delete_points.
    """
    if bottom.n != top.n:
        raise SizeMismatch("stacking needs equal chord counts")
    if bottom.n <= 1:
        raise NoCommonOutermost("refusing to reduce past one chord")
    b, t = bottom.pairing, top.pairing
    m = len(b)
    for u in range(m):
        if b[u] == t[u] == (u + 1) % m:
            return ChordDiagram(delete_points(b, u)), ChordDiagram(delete_points(t, u))
    raise NoCommonOutermost("no outermost chord shared at the same position")


@lru_cache(maxsize=None)
def _reachable(
    bottom: ChordDiagram, top: ChordDiagram
) -> dict[ChordDiagram, tuple[ChordDiagram, ...]]:
    """Diagrams reachable from the bottom by inner upwards bypasses.

    Each key maps to the diagrams its inner upwards bypasses (the
    arcs.up_moves that keep the stacking on the top tight) reach, so the
    keys are the diagrams inside the cylinder and the values the edges.
    """
    moves: dict[ChordDiagram, tuple[ChordDiagram, ...]] = {}
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        g = frontier.pop()
        out = []
        for nxt in _arcs.up_moves(g):
            if nxt not in seen:
                if m_geometric(nxt, top) != 1:
                    continue
                seen.add(nxt)
                frontier.append(nxt)
            out.append(nxt)
        moves[g] = tuple(out)
    return moves


class BoundedCategory:
    """Poset of diagrams existing inside a tight cobordism.

    Objects are sorted by pairing, at the positions index gives; edges[i]
    lists the positions one inner upwards bypass reaches from object i,
    and bit j of above[i] is set when object i <= object j.  index is
    built from the objects, so it is not compared.
    """

    __slots__ = ("bottom", "top", "objects", "index", "edges", "above")

    def __init__(
        self,
        bottom: ChordDiagram,
        top: ChordDiagram,
        objects: tuple[ChordDiagram, ...],
        edges: tuple[tuple[int, ...], ...],
        above: tuple[int, ...],
    ):
        self.bottom = bottom
        self.top = top
        self.objects = objects
        self.index = {d: i for i, d in enumerate(objects)}
        self.edges = edges
        self.above = above

    def _compared(self) -> tuple:
        return self.bottom, self.top, self.objects, self.edges, self.above

    def __eq__(self, other) -> bool:
        return isinstance(other, BoundedCategory) and self._compared() == other._compared()

    def __hash__(self) -> int:
        return hash(self._compared())

    def leq(self, a: ChordDiagram, b: ChordDiagram) -> bool:
        i, j = self.index.get(a), self.index.get(b)
        return i is not None and j is not None and bool(self.above[i] >> j & 1)

    def hasse(self) -> list[tuple[int, int]]:
        """Covers i -> j: the search edges (the order is their closure) with
        j above no other successor of i."""
        return [
            (i, j)
            for i, succ in enumerate(self.edges)
            for j in succ
            if not any(self.above[k] >> j & 1 for k in succ if k != j)
        ]

    def to_json(self) -> dict:
        from .diagram import serialize

        return {
            "objects": [serialize(d) for d in self.objects],
            "hasse": self.hasse(),
        }


def bounded_category(bottom: ChordDiagram, top: ChordDiagram) -> BoundedCategory:
    """Objects and one-morphism poset of the tight cobordism.

    a <= b when a chain of inner upwards bypasses leads from a to b: the
    reflexive-transitive closure of the edges of one search from the
    bottom, built over the objects in successors-first order.
    """
    if m_geometric(bottom, top) != 1:
        raise NotTight("the stacked pair is not tight")
    moves = _reachable(bottom, top)
    objects = tuple(sorted(moves, key=lambda d: d.pairing))
    index = {d: i for i, d in enumerate(objects)}
    edges = tuple(tuple(sorted({index[b] for b in moves[a]})) for a in objects)
    above = [0] * len(objects)
    try:
        for i in TopologicalSorter(dict(enumerate(edges))).static_order():
            bits = 1 << i
            for j in edges[i]:
                bits |= above[j]
            above[i] = bits
    except CycleError as exc:
        raise BrokenInvariant("inner upwards bypasses lead back to a diagram") from exc
    return BoundedCategory(bottom, top, objects, edges, tuple(above))


def bypass_cobordism_category(bottom: ChordDiagram, arc) -> tuple[int, int, BoundedCategory]:
    """The category of a single bypass attachment, with its word grading.

    The counts (n-, n+) come from the chords bounding the two inner
    regions of the arc, read between the crossed chord and the endpoint
    chord on each side; the resulting category is the full word poset
    W(n-, n+).
    """
    if arc.triviality != "nontrivial":
        raise TrivialArc("bypass cobordisms attach along nontrivial arcs")
    top = _arcs.surgery(bottom, arc, "up")
    faces = _arcs.Faces(bottom)
    si1, si0, si2, _order = arc.signature  # the crossed chord, then the end chords
    f1, f2 = faces.face_of(si1, _arcs.RIGHT), faces.face_of(si1, _arcs.LEFT)
    # the inner + region (with its endpoint chord) first, then the inner -
    if orbit_sign(faces.cycles[f1]) != 1:
        (si0, f1), (si2, f2) = (si2, f2), (si0, f1)
    n_minus = 1 + _chords_between(faces, f1, si0, si1)
    n_plus = 1 + _chords_between(faces, f2, si2, si1)
    category = bounded_category(bottom, top)
    return n_minus, n_plus, category


def _chords_between(faces, face: int, end_si: int, cross_si: int) -> int:
    """Number of other chords on the inner region between the arc's two chords.

    Walking the face boundary from the endpoint chord to the crossed
    chord on the side away from the outer region counts the chords whose
    bypasses survive inside the attachment.
    """
    strand_seq = faces.strands_around(face)
    k = len(strand_seq)
    i_end = strand_seq.index(end_si)
    i_cross = strand_seq.index(cross_si)
    # walk forward from the endpoint chord to the crossed chord
    count = (i_cross - i_end) % k - 1
    return count
