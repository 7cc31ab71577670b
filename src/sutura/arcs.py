"""Attaching arcs, bypass surgery, bypass systems, and pinwheels.

An attaching arc meets the diagram in three points: two endpoints resting
on chords and one transversal crossing.  Up to homotopy it is recorded by
which chords it touches, which complementary faces it passes through, and
the order of its contact points along any chord it meets more than once.

Bypass surgery re-matches the six ends cut at an arc's three contact
points one step around the surrounding hexagon; the two nontrivial
re-matchings are the two surgery directions.  A single arc is classified
and surgered on the bare pairing (sfh.bypass_rewire, shared with
decompose).  A configuration (PlanarMap) realises a system of disjoint
arcs: every strand carries an ordered list of contact sites, each
knowing on which side of the strand its arc segment lives, and the
other arcs ride along on the strand pieces, so systems of arcs can be
surgered sequentially in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import sfh
from .basis import base_construction, root_construction, root_point
from .diagram import ChordDiagram, ZERO, _face_cycles, is_zero, orbit_sign, region_orbits
from .errors import (
    ArcNotDefined,
    ArcNotOnDiagram,
    BrokenInvariant,
    MoveUndefined,
    NotComparable,
    NotNicelyOrdered,
    NotPlanar,
    TrivialArc,
)
from .words import MINUS, PLUS, Word, partial_leq

LEFT, RIGHT = 1, -1

# Which hexagon rotation is the upwards surgery, and which pinwheel
# chirality obstructs it.  Both bits are pinned by the word-level effect
# of single bypass moves on basis diagrams (tests assert the anchoring
# examples; flipping either constant makes those fail).  UP_STEP is the
# upwards rotation as a bypass_rewire step; a test pins it to UP_MATCHING.
UP_MATCHING = 2
DOWN_MATCHING = 1
UP_STEP = 1
PINWHEEL_UP_TRAVERSAL = "CE"


class Site:
    """A contact point of an arc on a strand.

    side_prev/side_next give the side (LEFT/RIGHT of the strand's stored
    direction) on which the previous/next segment of the arc leaves.
    """

    __slots__ = ("arc", "idx", "kind", "side_prev", "side_next")

    def __init__(self, arc, idx, kind, side_prev, side_next):
        self.arc = arc
        self.idx = idx
        self.kind = kind
        self.side_prev = side_prev
        self.side_next = side_next

    def reversed(self) -> "Site":
        flip = lambda s: None if s is None else -s
        return Site(self.arc, self.idx, self.kind, flip(self.side_prev), flip(self.side_next))

    def key(self):
        return (self.arc, self.idx, self.kind, self.side_prev, self.side_next)

    def __repr__(self):
        return f"Site(a{self.arc}.{self.idx} {self.kind} {self.side_prev}/{self.side_next})"


class Strand:
    __slots__ = ("ends", "sites")

    def __init__(self, ends, sites=()):
        self.ends = tuple(ends)
        self.sites = list(sites)

    def __repr__(self):
        return f"Strand({self.ends}, {self.sites})"


class PlanarMap:
    """A chord diagram together with disjoint realised arcs."""

    def __init__(self, strands, arc_ids=()):
        self.strands: list[Strand] = strands
        self.arc_ids: list[int] = list(arc_ids)

    # -- basic queries ------------------------------------------------------

    def point_count(self) -> int:
        return 2 * len(self.strands)

    def pairing(self) -> tuple[int, ...]:
        m = self.point_count()
        pairing = [-1] * m
        for s in self.strands:
            a, b = s.ends
            pairing[a], pairing[b] = b, a
        return tuple(pairing)

    def diagram(self) -> ChordDiagram:
        return ChordDiagram(self.pairing())

    def clone(self) -> "PlanarMap":
        return PlanarMap(
            [Strand(s.ends, [Site(*x.key()) for x in s.sites]) for s in self.strands],
            list(self.arc_ids),
        )

    def site_locations(self, arc_id: int) -> list[tuple[int, int]]:
        """(strand index, site index) of the arc's sites 0, 1, 2."""
        locs: dict[int, tuple[int, int]] = {}
        for si, s in enumerate(self.strands):
            for pi, site in enumerate(s.sites):
                if site.arc == arc_id:
                    locs[site.idx] = (si, pi)
        return [locs[i] for i in sorted(locs)]

    # -- face bookkeeping ---------------------------------------------------

    def faces(self) -> "_Faces":
        return _Faces(self)

    def validate(self) -> None:
        """Check planarity: segment faces consistent, non-crossing, Euler.

        Raises NotPlanar; the checks are explicit, so they hold under -O.
        """
        faces = self.faces()
        total_sites = sum(len(s.sites) for s in self.strands)
        n_arcs = len(self.arc_ids)
        if total_sites != 3 * n_arcs:
            raise NotPlanar("each arc needs exactly three sites")
        segments = [self.segment_face(aid, k, faces) for aid in self.arc_ids for k in (0, 1)]
        sub_face_count = 0
        for f in range(faces.count):
            order = {id(site): pos for pos, (site, _si) in enumerate(faces.boundary_sites(f))}
            segs = [
                sorted((order[id(s1)], order[id(s2)])) for face, s1, s2 in segments if face == f
            ]
            for i, (a, b) in enumerate(segs):
                for c, d in segs[i + 1 :]:
                    if (a < c < b) != (a < d < b):
                        raise NotPlanar(f"segments cross in face {f}")
            sub_face_count += len(segs) + 1
        m = self.point_count()
        V = m + total_sites
        E = m + sum(len(s.sites) + 1 for s in self.strands) + 2 * n_arcs
        F = sub_face_count
        if V - E + F != 1:
            raise NotPlanar("Euler formula fails for the disc map")

    def segment_face(self, arc_id: int, k: int, faces: "_Faces"):
        """(face, from_site, to_site) of segment k -> k+1 of the arc."""
        locs = self.site_locations(arc_id)
        (si1, pi1), (si2, pi2) = locs[k], locs[k + 1]
        s1 = self.strands[si1].sites[pi1]
        s2 = self.strands[si2].sites[pi2]
        f1 = faces.face_of(si1, s1.side_next)
        f2 = faces.face_of(si2, s2.side_prev)
        if f1 != f2:
            raise NotPlanar(f"segment of arc {arc_id} has inconsistent faces")
        return (f1, s1, s2)


class _Faces:
    """Face structure of the underlying diagram of a configuration.

    Face f is the orbit cycles[f] of boundary arcs (diagram.region_orbits);
    the strand after arc k in the walk is the one leaving point k.
    """

    def __init__(self, pm: PlanarMap):
        self.pm = pm
        self.cycles = _face_cycles(pm.pairing())
        self.count = len(self.cycles)
        # circle point -> (strand index, +1 from its first end / -1 from its second)
        self._strand_at: dict[int, tuple[int, int]] = {}
        for si, s in enumerate(pm.strands):
            self._strand_at[s.ends[0]] = (si, 1)
            self._strand_at[s.ends[1]] = (si, -1)
        self._face_of: dict[tuple[int, int], int] = {}
        self._dir: dict[tuple[int, int], int] = {}
        for f, orbit in enumerate(self.cycles):
            for k in orbit:
                si, d = self._strand_at[k]
                self._face_of[(si, LEFT if d == 1 else RIGHT)] = f
                self._dir[(f, si)] = d

    def face_of(self, strand_index: int, side: int) -> int:
        return self._face_of[(strand_index, side)]

    def direction(self, face: int, strand_index: int) -> int:
        return self._dir[(face, strand_index)]

    def signs(self) -> list[int]:
        return [orbit_sign(orbit) for orbit in self.cycles]

    def strands_around(self, face: int) -> list[int]:
        """Strand indices along the face's boundary walk, in traversal order."""
        return [self._strand_at[k][0] for k in self.cycles[face]]

    def boundary_sites(self, face: int) -> list[tuple[Site, int]]:
        """Visible sites around the face, in traversal order."""
        out = []
        for si in self.strands_around(face):
            out.extend((s, si) for s in self._visible_sites(face, si))
        return out

    def _visible_sites(self, face: int, si: int) -> list[Site]:
        d = self._dir[(face, si)]
        face_side = LEFT if d == 1 else RIGHT
        sites = self.pm.strands[si].sites
        ordered = sites if d == 1 else list(reversed(sites))
        vis = []
        for s in ordered:
            if s.kind == "cross":
                vis.append(s)
            else:
                side = s.side_next if s.idx == 0 else s.side_prev
                if side == face_side:
                    vis.append(s)
        return vis

    def boundary_tokens(self, face: int):
        """Full token walk: ('circle', k) / ('piece', si) / ('site', Site)."""
        out = []
        for k in self.cycles[face]:
            si = self._strand_at[k][0]
            out.append(("circle", k))
            out.append(("piece", si))
            for s in self._visible_sites(face, si):
                out.append(("site", s))
                out.append(("piece", si))
        return out


# -- single-arc surgery --------------------------------------------------------


class _Piece:
    """A maximal run of a strand between cut points and/or circle ends."""

    __slots__ = ("strand_index", "sites", "left", "right")

    def __init__(self, strand_index, sites, left, right):
        self.strand_index = strand_index
        self.sites = sites            # non-cut sites, in stored direction
        self.left = left              # ("circle", point) or ("cut", Site)
        self.right = right

    def end(self, which):
        return self.left if which == 0 else self.right


def _cut_strand(si: int, strand: Strand, cut_sites: list[Site]) -> list[_Piece]:
    positions = [strand.sites.index(s) for s in cut_sites]
    positions.sort()
    pieces = []
    prev_end = ("circle", strand.ends[0])
    prev_pos = -1
    for pos in positions:
        pieces.append(
            _Piece(si, strand.sites[prev_pos + 1 : pos], prev_end, ("cut", strand.sites[pos]))
        )
        prev_end = ("cut", strand.sites[pos])
        prev_pos = pos
    pieces.append(_Piece(si, strand.sites[prev_pos + 1 :], prev_end, ("circle", strand.ends[1])))
    return pieces


def _surgery_once(pm: PlanarMap, arc_id: int, direction: str):
    """Perform one bypass surgery; returns the new PlanarMap or ZERO."""
    faces = pm.faces()
    locs = pm.site_locations(arc_id)
    (si0, pi0), (si1, pi1), (si2, pi2) = locs
    s0 = pm.strands[si0].sites[pi0]
    s1 = pm.strands[si1].sites[pi1]
    s2 = pm.strands[si2].sites[pi2]
    f1 = faces.face_of(si0, s0.side_next)
    assert faces.face_of(si1, s1.side_prev) == f1
    f2 = faces.face_of(si1, s1.side_next)
    assert faces.face_of(si2, s2.side_prev) == f2

    # cut the involved strands at the arc's sites
    cuts: dict[int, list[Site]] = {}
    for si, site in ((si0, s0), (si1, s1), (si2, s2)):
        cuts.setdefault(si, []).append(site)
    pieces: list[_Piece] = []
    piece_of_cut: dict[tuple[int, int], _Piece] = {}  # (id(site), lr) -> piece
    for si, s in enumerate(pm.strands):
        if si not in cuts:
            pieces.append(_Piece(si, list(s.sites), ("circle", s.ends[0]), ("circle", s.ends[1])))
            continue
        for p in _cut_strand(si, s, cuts[si]):
            pieces.append(p)
            if p.left[0] == "cut":
                piece_of_cut[(id(p.left[1]), 1)] = p  # piece after the cut
            if p.right[0] == "cut":
                piece_of_cut[(id(p.right[1]), 0)] = p  # piece before the cut

    def adjacent(site: Site, after: bool) -> _Piece:
        return piece_of_cut[(id(site), 1 if after else 0)]

    # hexagon corner pieces on side A (the consistent side of the arc)
    d0 = faces.direction(f1, si0)
    g1A = adjacent(s0, after=(d0 == 1))          # next piece after s0 in f1
    d1 = faces.direction(f1, si1)
    g2A = adjacent(s1, after=(d1 != 1))          # piece before s1 in f1
    d1b = faces.direction(f2, si1)
    next_in_f2_at_s1 = adjacent(s1, after=(d1b == 1))
    d2 = faces.direction(f2, si2)
    if next_in_f2_at_s1 is g2A:
        g3A = adjacent(s2, after=(d2 != 1))      # piece before s2 in f2
    else:
        g3A = adjacent(s2, after=(d2 == 1))      # piece after s2 in f2
    g1B = adjacent(s0, after=(d0 != 1))
    g2B = adjacent(s1, after=(d1 == 1))
    g3B = adjacent(s2, after=(g3A is adjacent(s2, after=False)))

    # hexagon slots: handles (piece, cut site), cyclically
    slots = [(g1A, s0), (g2A, s1), (g3A, s2), (g3B, s2), (g2B, s1), (g1B, s0)]
    matching = UP_MATCHING if direction == "up" else DOWN_MATCHING
    if matching == 1:
        pairs = [(0, 1), (2, 5), (3, 4)]
    else:
        pairs = [(1, 2), (0, 3), (4, 5)]

    glue: dict[tuple[int, int], tuple[int, int]] = {}

    def handle_key(piece, site):
        return (pieces.index(piece), id(site))

    for a, b in pairs:
        ka, kb = handle_key(*slots[a]), handle_key(*slots[b])
        glue[ka] = kb
        glue[kb] = ka

    # walk chains between circle ends; sites ride along on the pieces
    new_strands: list[Strand] = []
    visited: set[int] = set()
    starts = []
    for i, p in enumerate(pieces):
        if p.left[0] == "circle":
            starts.append((i, 0))
        if p.right[0] == "circle":
            starts.append((i, 1))
    for start_piece, start_entry in starts:
        if start_piece in visited:
            continue
        chain_sites: list[Site] = []
        a_end = pieces[start_piece].end(start_entry)[1]
        cur, entry = start_piece, start_entry
        while True:
            visited.add(cur)
            piece = pieces[cur]
            if entry == 0:
                chain_sites.extend(piece.sites)
                out_end = piece.right
            else:
                chain_sites.extend(s.reversed() for s in reversed(piece.sites))
                out_end = piece.left
            if out_end[0] == "circle":
                b_end = out_end[1]
                break
            nxt_key = glue[(cur, id(out_end[1]))]
            cur = nxt_key[0]
            nxt = pieces[cur]
            entry = 0 if (nxt.left[0] == "cut" and id(nxt.left[1]) == nxt_key[1]) else 1
        new_strands.append(Strand((a_end, b_end), chain_sites))
    if len(visited) != len(pieces):
        return ZERO  # a closed loop swallowed some pieces
    arc_ids = [a for a in pm.arc_ids if a != arc_id]
    return PlanarMap(new_strands, arc_ids)


# -- elementary moves on words ---------------------------------------------------


def move_exists(w: Word, kind: str, i: int, j: int) -> bool:
    """Existence of the generalised move: FE needs the i'th minus left of
    the j'th plus, BE the j'th plus left of the i'th minus."""
    if not (1 <= i <= w.n_minus and 1 <= j <= w.n_plus):
        return False
    pm = w.minus_positions()[i - 1]
    pp = w.plus_positions()[j - 1]
    return pm < pp if kind == "FE" else pp < pm


def strict_move_exists(w: Word, kind: str, i: int, j: int) -> bool:
    """Existence of the single-bypass move: the two signs must sit in
    adjacent blocks."""
    if not move_exists(w, kind, i, j):
        return False
    pm = w.minus_positions()[i - 1]
    pp = w.plus_positions()[j - 1]
    lo, hi = (pm, pp) if kind == "FE" else (pp, pm)
    between = w.bits[lo + 1 : hi]
    if kind == "FE":
        # no '+' before the block of the j'th plus, i.e. between must be -...-+...+
        switched = False
        for b in between:
            if b == PLUS:
                switched = True
            elif switched:
                return False
        return True
    switched = False
    for b in between:
        if b == MINUS:
            switched = True
        elif switched:
            return False
    return True


def elementary_move(w: Word, kind: str, i: int, j: int) -> Word:
    """Generalised elementary move FE(i,j) or BE(i,j) applied to w."""
    if not move_exists(w, kind, i, j):
        raise MoveUndefined(f"{kind}({i},{j}) does not exist on {w}")
    bits = list(w.bits)
    if kind == "FE":
        pm = w.minus_positions()[i - 1]
        pp = w.plus_positions()[j - 1]
        moved = [p for p in range(pm, pp) if bits[p] == MINUS]
        kept = [bits[p] for p in range(len(bits)) if not (pm <= p < pp and bits[p] == MINUS)]
        # after removal the j'th plus ends one slot after its prefix pluses
        out, plus_seen, inserted = [], 0, False
        for b in kept:
            out.append(b)
            if b == PLUS:
                plus_seen += 1
                if plus_seen == j and not inserted:
                    out.extend([MINUS] * len(moved))
                    inserted = True
        assert inserted
        return Word(out)
    pm = w.minus_positions()[i - 1]
    pp = w.plus_positions()[j - 1]
    moved = [p for p in range(pp, pm) if bits[p] == PLUS]
    kept = [bits[p] for p in range(len(bits)) if not (pp <= p < pm and bits[p] == PLUS)]
    out, minus_seen, inserted = [], 0, False
    for b in kept:
        out.append(b)
        if b == MINUS:
            minus_seen += 1
            if minus_seen == i and not inserted:
                out.extend([PLUS] * len(moved))
                inserted = True
    assert inserted
    return Word(out)


# -- attaching-arc classes on a bare diagram ----------------------------------


def faces_of(diagram: ChordDiagram) -> _Faces:
    """Face structure of the bare diagram, one strand per chord of chords()."""
    return _Faces(PlanarMap([Strand(c) for c in diagram.chords()]))


@dataclass(frozen=True)
class AttachingArc:
    """One homotopy class of attaching arc on a bare diagram.

    end1, middle and end2 are the public descriptor: (chord, face) for
    each endpoint and (chord, face_before, face_after) for the middle
    crossing, written with canonical chord ids (position in the
    serialized pair list) and region ids (position in regions()).
    signature is the class as find_attaching_arcs enumerates it (see
    _single_arc_map); planar_map() realises it on demand.
    """

    diagram: ChordDiagram
    end1: tuple[int, int]
    middle: tuple[int, int, int]
    end2: tuple[int, int]
    triviality: str               # "nontrivial" | "slightly_trivial" | "supertrivial"
    direction: str | None = None  # for trivial arcs: "upwards" | "downwards"
    super_kind: str | None = None  # for supertrivial arcs: "direct" | "indirect"
    forwards: bool | None = None  # for nontrivial arcs on basis diagrams
    fa_indices: tuple[int, int] | None = None
    signature: tuple = field(default=(), compare=False, repr=False)

    def planar_map(self) -> PlanarMap:
        return _single_arc_map(self.diagram, self.signature)


def _single_arc_map(diagram, signature) -> PlanarMap:
    """Realise one arc: ends on strands si1/si3, crossing strand si2.

    signature is (si2, f1_side, si1, bit1, si3, bit3, nest).  f1_side is
    the side of strand si2 carrying the first segment; bit1 (resp. bit3)
    orders the end site against the crossing when it sits on the crossed
    strand itself (True = before in stored direction); nest
    (supertrivial, both ends on one side) puts the first end closer to
    the crossing when True.
    """
    si2, f1_side, si1, bit1, si3, bit3, nest = signature
    strands = [Strand(c) for c in diagram.chords()]
    s0 = Site(0, 0, "end", None, None)
    s1 = Site(0, 1, "cross", None, None)
    s2 = Site(0, 2, "end", None, None)
    faces = faces_of(diagram)
    f1 = faces.face_of(si2, f1_side)
    f2 = faces.face_of(si2, -f1_side)

    def side_facing(si, f):
        return LEFT if faces.face_of(si, LEFT) == f else RIGHT

    s0.side_next = side_facing(si1, f1)
    s1.side_prev = f1_side
    s1.side_next = -f1_side
    s2.side_prev = side_facing(si3, f2)

    if si1 == si2 and si3 == si2:
        if bit1 == bit3:
            # nesting bit: first end closer to the crossing when True
            closer_first = nest if nest is not None else True
            if bit1:  # both before the crossing
                seq = ([s2, s0] if closer_first else [s0, s2]) + [s1]
            else:
                seq = [s1] + ([s0, s2] if closer_first else [s2, s0])
        else:
            seq = [s0, s1, s2] if bit1 else [s2, s1, s0]
        strands[si2].sites = seq
    else:
        strands[si2].sites.append(s1)
        if si1 == si2:
            strands[si2].sites.insert(0 if bit1 else len(strands[si2].sites), s0)
        else:
            strands[si1].sites.append(s0)
        if si3 == si2:
            strands[si3].sites.insert(0 if bit3 else len(strands[si3].sites), s2)
        else:
            strands[si3].sites.append(s2)
    return PlanarMap(strands, [0])


def _classify(diagram: ChordDiagram, faces: _Faces, signature) -> AttachingArc:
    """The class of one signature, read off the pairing and its faces."""
    si2, f1_side, si1, b1, si3, b3, nest = signature
    f1 = faces.face_of(si2, f1_side)
    f2 = faces.face_of(si2, -f1_side)
    distinct = len({si1, si2, si3})
    triviality = {3: "nontrivial", 2: "slightly_trivial", 1: "supertrivial"}[distinct]
    direction = super_kind = None
    forwards = fa = None
    if triviality != "nontrivial":
        # An end on the crossed chord before the crossing (end1) or after
        # it (end2) makes the arc downwards; when both ends lie on one
        # side of the crossing (indirect), the nesting decides instead.
        indirect = si1 == si3 == si2 and b1 == b3
        if indirect:
            downwards = nest == b1
        else:
            downwards = b1 if si1 == si2 else not b3
        direction = "downwards" if downwards else "upwards"
        if triviality == "supertrivial":
            super_kind = "indirect" if indirect else "direct"
    else:
        dec = sfh.decompose(diagram)
        if len(dec.words) == 1:
            (w,) = dec.words
            data = base_construction(w)
            order = data.chord_order()
            chords = diagram.chords()
            # the prior chord's outer region is its face away from the arc
            (prior_si, arc_face), (latter_si, _) = sorted(
                ((si1, f1), (si3, f2)), key=lambda end: order[chords[end[0]]]
            )
            outer_face = faces.face_of(prior_si, LEFT)
            if outer_face == arc_face:
                outer_face = faces.face_of(prior_si, RIGHT)
            forwards = faces.signs()[outer_face] == -1
            fa = _fa_indices(w, data, chords, prior_si, latter_si, forwards)
    return AttachingArc(
        diagram,
        end1=(si1, f1),
        middle=(si2, f1, f2),
        end2=(si3, f2),
        triviality=triviality,
        direction=direction,
        super_kind=super_kind,
        forwards=forwards,
        fa_indices=fa,
        signature=signature,
    )


def _fa_indices(w, base_data, chords, prior_si, latter_si, forwards):
    root_data = root_construction(w)
    prior_c, latter_c = chords[prior_si], chords[latter_si]
    want_prior = MINUS if forwards else PLUS
    want_latter = PLUS if forwards else MINUS
    i = j = None
    count = 0
    for pos, b in enumerate(w.bits):
        if b == want_prior:
            count += 1
            if base_data.symbol_chords[pos] == prior_c:
                i = count
    count = 0
    for pos, b in enumerate(w.bits):
        if b == want_latter:
            count += 1
            if root_data.symbol_chords[pos] == latter_c:
                j = count
    if i is None or j is None:
        return None
    return (i, j) if forwards else (j, i)


def find_attaching_arcs(diagram: ChordDiagram) -> list[AttachingArc]:
    """One class per homotopy class of attaching arc, classified on the pairing."""
    n = diagram.n
    faces = faces_of(diagram)
    face_chords = {
        f: [si for si in range(n) if f in (faces.face_of(si, LEFT), faces.face_of(si, RIGHT))]
        for f in range(faces.count)
    }
    # each bit is carried with its int key (None -1, False 0, True 1); the
    # classes come out in the order of those keys
    both, neither = ((True, 1), (False, 0)), ((None, -1),)
    raw = {}
    for si2 in range(n):
        for f1_side in (LEFT, RIGHT):
            f1 = faces.face_of(si2, f1_side)
            f2 = faces.face_of(si2, -f1_side)
            for si1 in face_chords[f1]:
                bits1 = both if si1 == si2 else neither
                for si3 in face_chords[f2]:
                    bits3 = both if si3 == si2 else neither
                    for b1, k1 in bits1:
                        for b3, k3 in bits3:
                            nests = both if si1 == si2 == si3 and b1 == b3 else neither
                            for nest, kn in nests:
                                key = (si2, f1_side, si1, k1, si3, k3, kn)
                                # the same arc walked from its other end
                                rev = (si2, -f1_side, si3, k3, si1, k1, kn if kn < 0 else 1 - kn)
                                if rev < key:
                                    continue
                                raw[key] = (si2, f1_side, si1, b1, si3, b3, nest)
    return [_classify(diagram, faces, raw[key]) for key in sorted(raw)]


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
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    diagram = arc.diagram
    if arc.triviality != "nontrivial":
        return diagram if arc.direction == direction + "wards" else ZERO
    chords = diagram.chords()
    points = [chords[si][0] for si in (arc.end1[0], arc.middle[0], arc.end2[0])]
    step = UP_STEP if direction == "up" else -UP_STEP
    return ChordDiagram(sfh.bypass_rewire(diagram.pairing, points, step), _validated=True)


def bypass_triple(diagram: ChordDiagram, arc: AttachingArc):
    """(diagram, up, down) for a nontrivial arc."""
    if arc.triviality != "nontrivial":
        raise TrivialArc("bypass triples need a nontrivial arc")
    up = surgery(diagram, arc, "up")
    down = surgery(diagram, arc, "down")
    if is_zero(up) or is_zero(down) or len({diagram, up, down}) != 3:
        raise BrokenInvariant("a nontrivial arc must give three distinct diagrams")
    return diagram, up, down


def induced_arc(diagram: ChordDiagram, arc: AttachingArc, direction: str) -> AttachingArc:
    """On the surgered diagram, the arc continuing the triple cycle.

    Located by search: the class on the new diagram whose same-direction
    surgery moves one more step around the bypass triple.
    """
    first = surgery(diagram, arc, direction)
    other = surgery(diagram, arc, "down" if direction == "up" else "up")
    for cand in find_attaching_arcs(first):
        if cand.triviality != "nontrivial":
            continue
        if surgery(first, cand, direction) == other:
            back = surgery(first, cand, "down" if direction == "up" else "up")
            if back == diagram:
                return cand
    raise ArcNotDefined("no continuation arc found (should not happen)")


# -- generalised arcs and bypass systems ---------------------------------------


@dataclass(frozen=True)
class GeneralisedArc:
    """A nontrivial generalised attaching arc FA(i,j)/BA(i,j) on a basis diagram.

    The arc runs from the prior chord to the latter chord along the unique
    path in the face tree between its two outer regions; path_edges lists
    the strand (= chord) indices it meets, path_faces the regions of the
    bare diagram it passes through, outer regions included at both ends.
    """

    word: Word
    kind: str  # "FA" | "BA"
    i: int
    j: int
    prior_chord: int
    latter_chord: int
    prior_region: int
    latter_region: int
    path_edges: tuple[int, ...]
    path_faces: tuple[int, ...]

    @property
    def crossings(self) -> int:
        return len(self.path_edges)


def generalised_arc(w: Word, kind: str, i: int, j: int) -> GeneralisedArc:
    """The generalised attaching arc realising the move of the same name."""
    move = "FE" if kind == "FA" else "BE"
    if not move_exists(w, move, i, j):
        raise ArcNotDefined(f"{kind}({i},{j}) does not exist on {w}")
    diagram = basis_diagram_for(w)
    chords = diagram.chords()
    base = base_construction(w)
    root = root_construction(w)
    if kind == "FA":
        prior_c = base.base_numbered_chord(MINUS, i)
        latter_c = _root_numbered_chord(root, PLUS, j)
        prior_sign, latter_sign = -1, 1
    else:
        prior_c = base.base_numbered_chord(PLUS, j)
        latter_c = _root_numbered_chord(root, MINUS, i)
        prior_sign, latter_sign = 1, -1
    faces = faces_of(diagram)
    signs = faces.signs()
    prior_si = chords.index(prior_c)
    latter_si = chords.index(latter_c)
    prior_region = next(
        faces.face_of(prior_si, s) for s in (LEFT, RIGHT)
        if signs[faces.face_of(prior_si, s)] == prior_sign
    )
    latter_region = next(
        faces.face_of(latter_si, s) for s in (LEFT, RIGHT)
        if signs[faces.face_of(latter_si, s)] == latter_sign
    )
    path_faces, path_edges = _tree_path(faces, len(chords), prior_region, latter_region)
    if not path_edges or path_edges[0] != prior_si or path_edges[-1] != latter_si:
        raise ArcNotDefined(f"{kind}({i},{j}): outer regions not joined through the chords")
    assert len(path_edges) % 2 == 1, "generalised arc must meet an odd number of chords"
    return GeneralisedArc(
        w, kind, i, j, prior_si, latter_si, prior_region, latter_region,
        tuple(path_edges), tuple(path_faces),
    )


def basis_diagram_for(w: Word) -> ChordDiagram:
    return base_construction(w).diagram


def _root_numbered_chord(root_data, sign, index):
    seen = 0
    for pos, b in enumerate(root_data.word.bits):
        if b == sign:
            seen += 1
            if seen == index:
                return root_data.symbol_chords[pos]
    raise IndexError


def _tree_path(faces: _Faces, n_strands: int, start: int, goal: int):
    """BFS in the region tree; edges are the strands separating regions."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for si in range(n_strands):
        fa, fb = faces.face_of(si, LEFT), faces.face_of(si, RIGHT)
        adj.setdefault(fa, []).append((fb, si))
        adj.setdefault(fb, []).append((fa, si))
    prev: dict[int, tuple[int, int]] = {start: (-1, -1)}
    queue = [start]
    while queue:
        f = queue.pop(0)
        if f == goal:
            break
        for g, si in adj.get(f, ()):
            if g not in prev:
                prev[g] = (f, si)
                queue.append(g)
    assert goal in prev
    faces_path, edges = [goal], []
    cur = goal
    while cur != start:
        f, si = prev[cur]
        edges.append(si)
        faces_path.append(f)
        cur = f
    faces_path.reverse()
    edges.reverse()
    return faces_path, edges


def _west_position_end(chord: tuple[int, int], root: int, m: int) -> int:
    """Endpoint from which 'west-coordinate' positions are measured.

    Chords spanning the two sides are measured from their westside end;
    outermost chords from their end further from the root point, which
    keeps nested families of arc attachments correctly ordered.
    """
    a, b = chord
    a2, b2 = (m if a == 0 else a), (m if b == 0 else b)
    west_a, west_b = a2 > root, b2 > root
    if west_a != west_b:
        return a if west_a else b
    if not west_a:           # outermost on the eastside: the south end
        return max(a, b)
    return max(a2, b2) % m   # outermost on the westside: the north end


# split perturbation, in west-coordinates: (offset of the earlier arc's
# endpoint, offset of the later arc's endpoint) at a shared split chord
_SPLIT_OFFSETS = {"FA": (-1, 1), "BA": (1, -1)}


class BypassSystem:
    """Disjoint attaching arcs realised together on one base diagram."""

    def __init__(self, base: ChordDiagram, pm: PlanarMap, word: Word | None = None,
                 labels: tuple | None = None):
        self.base = base
        self.word = word
        self._pm = pm
        self.labels = labels if labels is not None else tuple(pm.arc_ids)

    @property
    def arc_ids(self) -> list[int]:
        return list(self._pm.arc_ids)

    def __len__(self) -> int:
        return len(self._pm.arc_ids)

    def planar_map(self) -> PlanarMap:
        return self._pm.clone()

    def subsystem(self, keep_ids) -> "BypassSystem":
        keep = set(keep_ids)
        pm = self._pm.clone()
        for s in pm.strands:
            s.sites = [x for x in s.sites if x.arc in keep]
        pm.arc_ids = [a for a in pm.arc_ids if a in keep]
        return BypassSystem(self.base, pm, self.word, self.labels)

    def to_json(self) -> dict:
        faces = self._pm.faces()
        arcs_out = []
        for aid in self._pm.arc_ids:
            locs = self._pm.site_locations(aid)
            sites = [self._pm.strands[si].sites[pi] for si, pi in locs]
            (si0, _), (si1, _), (si2, _) = locs
            f1 = faces.face_of(si0, sites[0].side_next)
            f2 = faces.face_of(si2, sites[2].side_prev)
            arcs_out.append(
                {"end1": [si0, f1], "middle": [si1, f1, f2], "end2": [si2, f2]}
            )
        from .diagram import serialize

        return {"diagram": serialize(self.base), "arcs": arcs_out}


def single_arc_system(arc: AttachingArc) -> BypassSystem:
    """Wrap one realised attaching arc as a bypass system."""
    return BypassSystem(arc.diagram, arc.planar_map())


def surgery_along_system(system: BypassSystem, direction: str, subset=None):
    """Surger every arc (or the given subset) in one shared realisation."""
    pm = system.planar_map()
    todo = list(system.arc_ids) if subset is None else list(subset)
    for aid in system.arc_ids:
        if aid not in todo:
            continue
        pm = _surgery_once(pm, aid, direction)
        if is_zero(pm):
            return ZERO
    # drop untouched arcs before reading off the diagram
    return pm.diagram()


def expand_subsets(system: BypassSystem, direction: str):
    """Mod-2 multiset of surgeries over all subsets of the system."""
    from collections import Counter

    counts: Counter = Counter()
    ids = system.arc_ids
    for mask in range(1 << len(ids)):
        subset = [a for bit, a in enumerate(ids) if (mask >> bit) & 1]
        result = surgery_along_system(system, direction, subset)
        key = "ZERO" if is_zero(result) else result.pairing
        counts[key] += 1
    out = []
    for key, cnt in counts.items():
        if cnt % 2:
            out.append(ZERO if key == "ZERO" else ChordDiagram(key))
    return out


def _place_generalised(w: Word, gens: list[GeneralisedArc], kind: str) -> BypassSystem:
    """Realise a nicely ordered family, splitting each generalised arc.

    Placement index order puts every later family member on the same
    side (the 'southwest'/'northwest' choice) of all earlier ones: its
    sites take smaller west-coordinates on every shared chord.
    """
    diagram = basis_diagram_for(w)
    chords = diagram.chords()
    m = 2 * diagram.n
    root = root_point(diagram.n, w.e)
    faces = faces_of(diagram)

    placed: dict[int, list[tuple[Fraction, Site]]] = {si: [] for si in range(len(chords))}
    arc_count = 0
    labels = []
    off_first, off_second = _SPLIT_OFFSETS[kind]

    def side_facing(si, f):
        if faces.face_of(si, LEFT) == f:
            return LEFT
        assert faces.face_of(si, RIGHT) == f
        return RIGHT

    for v, g in enumerate(gens):
        center = Fraction(1, v + 2)
        eps = Fraction(1, 1000 * (v + 2))
        E, F = g.path_edges, g.path_faces
        q = len(E) - 1
        n_arcs = q // 2
        for k in range(n_arcs):
            aid = arc_count
            arc_count += 1
            labels.append((g.kind, g.i, g.j, k))
            e_start, e_cross, e_end = E[2 * k], E[2 * k + 1], E[2 * k + 2]
            f_before, f_after = F[2 * k + 1], F[2 * k + 2]
            s0 = Site(aid, 0, "end", None, side_facing(e_start, f_before))
            s1 = Site(aid, 1, "cross", side_facing(e_cross, f_before), side_facing(e_cross, f_after))
            s2 = Site(aid, 2, "end", side_facing(e_end, f_after), None)
            pos0 = center + (eps * off_second if k > 0 else 0)
            pos2 = center + (eps * off_first if k < n_arcs - 1 else 0)
            placed[e_start].append((pos0, s0))
            placed[e_cross].append((center, s1))
            placed[e_end].append((pos2, s2))

    strands = []
    for si, chord in enumerate(chords):
        west = _west_position_end(chord, root, m)
        entries = placed[si]
        if chord[0] == west:
            entries.sort(key=lambda t: t[0])
        else:
            entries.sort(key=lambda t: -t[0])
        strands.append(Strand(chord, [s for _, s in entries]))
    pm = PlanarMap(strands, list(range(arc_count)))
    pm.validate()
    return BypassSystem(diagram, pm, w, tuple(labels))


def arc_to_system(g: GeneralisedArc) -> BypassSystem:
    """Split one generalised arc into its bypass system of genuine arcs."""
    return _place_generalised(g.word, [g], g.kind)


def nicely_ordered_system(w: Word, gens: list[GeneralisedArc]) -> BypassSystem:
    """Joint realisation of a nicely ordered family of generalised arcs."""
    if not gens:
        return BypassSystem(basis_diagram_for(w), PlanarMap(
            [Strand(c) for c in basis_diagram_for(w).chords()]), w, ())
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
        order = list(gens)
    else:
        ok = all(a > b for a, b in zip(jjs, jjs[1:])) and all(
            a >= b for a, b in zip(iis, iis[1:])
        )
        order = list(gens)
    if not ok:
        raise NotNicelyOrdered(f"indices not nicely ordered for {kind}")
    return _place_generalised(w, order, kind)


def cfbs(w1: Word, w2: Word) -> BypassSystem:
    """Coarse forwards bypass system of a comparable pair, on the lower diagram."""
    if not partial_leq(w1, w2):
        raise NotComparable(f"{w1} is not below {w2}")
    betas = _plus_counts_before_minus(w2)
    gens = []
    for i in range(1, w1.n_minus + 1):
        j = betas[i - 1]
        if j >= 1 and move_exists(w1, "FE", i, j):
            gens.append(generalised_arc(w1, "FA", i, j))
    return nicely_ordered_system(w1, gens)


def cbbs(w1: Word, w2: Word) -> BypassSystem:
    """Coarse backwards bypass system of a comparable pair, on the upper diagram."""
    if not partial_leq(w1, w2):
        raise NotComparable(f"{w1} is not below {w2}")
    deltas = _minus_counts_before_plus(w1)
    gens = []
    for j in range(w2.n_plus, 0, -1):
        i = deltas[j - 1]
        if i >= 1 and move_exists(w2, "BE", i, j):
            gens.append(generalised_arc(w2, "BA", i, j))
    return nicely_ordered_system(w2, gens)


def _plus_counts_before_minus(w: Word) -> list[int]:
    out, pluses = [], 0
    for b in w.bits:
        if b == PLUS:
            pluses += 1
        else:
            out.append(pluses)
    return out


def _minus_counts_before_plus(w: Word) -> list[int]:
    out, minuses = [], 0
    for b in w.bits:
        if b == MINUS:
            minuses += 1
        else:
            out.append(minuses)
    return out


def _minimal_subsystem(system: BypassSystem, direction: str, target: ChordDiagram) -> BypassSystem:
    """Greedy reverse deletions until no single arc can be dropped."""
    keep = list(system.arc_ids)
    assert surgery_along_system(system, direction, keep) == target
    changed = True
    while changed:
        changed = False
        for aid in list(reversed(keep)):
            trial = [x for x in keep if x != aid]
            if surgery_along_system(system, direction, trial) == target:
                keep = trial
                changed = True
    return system.subsystem(keep)


@lru_cache(maxsize=None)
def fbs(w1: Word, w2: Word) -> BypassSystem:
    """A minimal forwards bypass system: upwards surgery yields the upper diagram."""
    system = cfbs(w1, w2)
    return _minimal_subsystem(system, "up", basis_diagram_for(w2))


@lru_cache(maxsize=None)
def bbs(w1: Word, w2: Word) -> BypassSystem:
    """A minimal backwards bypass system: downwards surgery yields the lower diagram."""
    system = cbbs(w1, w2)
    return _minimal_subsystem(system, "down", basis_diagram_for(w1))


# -- pinwheels -----------------------------------------------------------------


def _face_subdivision(pm: PlanarMap, faces: _Faces, face: int):
    """Orbits of the face after cutting along its arc segments.

    The visible sites, matched by the segments, are a non-crossing
    matching; its regions (diagram.region_orbits) are the sub-faces.
    Each is a list of sides: ('interval', t, tokens, covered), the
    boundary stretch from site t+1 back to site t, then ('seg', arc_id,
    'EC'|'CE', corners), the segment leaving site t with its traversal
    sense (endpoint->crossing or back).
    """
    boundary = faces.boundary_sites(face)
    if not boundary:
        return []
    sites = [s for s, _si in boundary]
    M = len(sites)
    pos = {id(s): t for t, (s, _si) in enumerate(boundary)}

    tokens = faces.boundary_tokens(face)
    start = next(i for i, t in enumerate(tokens) if t[0] == "site")
    tokens = tokens[start:] + tokens[:start]
    raw_intervals: list[list] = []
    cur: list = []
    order_check = []
    for t in tokens:
        if t[0] == "site":
            if order_check:
                raw_intervals.append(cur)
            order_check.append(t[1])
            cur = []
        else:
            cur.append(t)
    raw_intervals.append(cur)  # wraps to the first site
    assert len(order_check) == M and [pos[id(s)] for s in order_check] == list(range(M))

    # annotate circle-free intervals with the strand stretch they cover,
    # so hidden far-side sites lying on them can be detected
    site_index = {}
    for si, s in enumerate(pm.strands):
        for k, x in enumerate(s.sites):
            site_index[id(x)] = (si, k)
    intervals = []
    for t, toks in enumerate(raw_intervals):
        covered = None
        if all(tok[0] != "circle" for tok in toks):
            a, b = sites[t], sites[(t + 1) % M]
            sia, ka = site_index[id(a)]
            sib, kb = site_index[id(b)]
            assert sia == sib
            covered = (sia, min(ka, kb), max(ka, kb))
        intervals.append((toks, covered))

    seg_of: dict[int, tuple[int, int]] = {}
    for aid in pm.arc_ids:
        for k in (0, 1):
            f, s_from, s_to = pm.segment_face(aid, k, faces)
            if f == face:
                a, b = pos[id(s_from)], pos[id(s_to)]
                seg_of[a] = (b, aid)
                seg_of[b] = (a, aid)
    assert set(seg_of) == set(range(M)), "every visible site carries one segment"

    out = []
    for orbit in region_orbits([seg_of[v][0] for v in range(M)]):
        sides = []
        for t in orbit:
            toks, covered = intervals[t]
            sides.append(("interval", t, toks, covered))
            w, aid = seg_of[t]
            kind = "EC" if sites[t].kind == "end" else "CE"
            sides.append(("seg", aid, kind, frozenset({sites[t].idx, sites[w].idx})))
        out.append(sides)
    return out


def has_pinwheel(system: BypassSystem, direction: str) -> bool:
    """Detect a pinwheel of the given direction in the realised system.

    A pinwheel's sides come from some subset of the arcs, and arcs
    outside that subset are free to cross its interior; so the region
    shows up as a face only after the other arcs are deleted.  Subsets
    are swept smallest-first and the side arcs of any pinwheel found
    this way are legitimate system arcs.
    """
    ids = list(system.arc_ids)
    if not ids:
        return False
    want = PINWHEEL_UP_TRAVERSAL if direction == "up" else (
        "EC" if PINWHEEL_UP_TRAVERSAL == "CE" else "CE"
    )
    masks = sorted(range(1, 1 << len(ids)), key=lambda m: bin(m).count("1"))
    for mask in masks:
        keep = [aid for bit, aid in enumerate(ids) if (mask >> bit) & 1]
        sub = system.subsystem(keep)
        pm = sub.planar_map()
        faces = pm.faces()
        for f in range(faces.count):
            for orbit in _face_subdivision(pm, faces, f):
                if _is_pinwheel(pm, orbit, want):
                    return True
    return False


def _is_pinwheel(pm: PlanarMap, orbit, want: str) -> bool:
    segs = [d for d in orbit if d[0] == "seg"]
    ivals = [d for d in orbit if d[0] == "interval"]
    if any(tok[0] == "circle" for _, _, toks, _cov in ivals for tok in toks):
        return False
    arcs_used = [aid for _, aid, _k, _c in segs]
    if len(set(arcs_used)) != len(arcs_used):
        return False
    if not all(kind == want for _, _aid, kind, _c in segs):
        return False
    # each side arc must not meet the region again: its remaining site
    # may not lie on (the far side of) any boundary chord stretch
    covered = [cov for _, _t, _toks, cov in ivals if cov is not None]
    for _, aid, _kind, corners in segs:
        locs = pm.site_locations(aid)
        for si, k in locs:
            site = pm.strands[si].sites[k]
            if site.idx in corners:
                continue
            for csi, lo, hi in covered:
                if csi == si and lo < k < hi:
                    return False
    return True


def random_system(diagram: ChordDiagram, n_arcs: int, rng) -> BypassSystem | None:
    """Randomly realise a system of disjoint attaching arcs, or give up.

    Draws classes from find_attaching_arcs and inserts their sites at
    random slots, retrying until the joint configuration is planar.
    """
    classes = find_attaching_arcs(diagram)
    pm = PlanarMap([Strand(c) for c in diagram.chords()])
    placed = 0
    for _ in range(40 * n_arcs):
        if placed == n_arcs:
            break
        cls = classes[rng.randrange(len(classes))]
        trial = pm.clone()
        src = cls.planar_map()
        for strand_i, strand in enumerate(src.strands):
            for site in strand.sites:
                new = Site(placed, site.idx, site.kind, site.side_prev, site.side_next)
                lst = trial.strands[strand_i].sites
                lst.insert(rng.randrange(len(lst) + 1), new)
        trial.arc_ids = list(pm.arc_ids) + [placed]
        try:
            trial.validate()
        except NotPlanar:
            continue
        pm = trial
        placed += 1
    if placed < n_arcs:
        return None
    return BypassSystem(diagram, pm)
