"""Chord diagrams: non-crossing perfect matchings on labelled boundary points.

Labels 0..2N-1 increase clockwise around the disc; the base point is
label 0.  The boundary arc between points k and k+1 (mod 2N) is positive
exactly when k is even, which fixes the signs of all regions.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import repeat

from .errors import BadArgument, BadPartition, CrossingChords, OddStep, ParseError


class _Zero:
    """Absorbing marker for surgery results containing a closed loop."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ZERO"

    def __bool__(self):
        return False


ZERO = _Zero()


def is_zero(value) -> bool:
    return value is ZERO


class ChordDiagram:
    """A non-crossing fixed-point-free involution on {0,..,2N-1}."""

    __slots__ = ("n", "pairing")

    def __init__(self, pairing):
        try:
            pairing = tuple(pairing)
        except TypeError:
            raise BadPartition("a pairing must be a sequence of ints") from None
        _validate(pairing)
        self.pairing = pairing
        self.n = len(pairing) // 2

    @classmethod
    def _of(cls, pairing: tuple[int, ...]) -> "ChordDiagram":
        """The diagram of a pairing tuple the package built itself, taken
        with no check."""
        d = object.__new__(cls)
        d.pairing, d.n = pairing, len(pairing) // 2
        return d

    # -- structure ---------------------------------------------------------

    def chords(self) -> list[tuple[int, int]]:
        """Chords as (low, high) pairs, ascending in the first element."""
        return [(i, p) for i, p in enumerate(self.pairing) if i < p]

    def __eq__(self, other) -> bool:
        return isinstance(other, ChordDiagram) and self.pairing == other.pairing

    def __hash__(self) -> int:
        return hash(self.pairing)

    def __repr__(self) -> str:
        return f"ChordDiagram({serialize(self)!r})"

    def __lt__(self, other: "ChordDiagram") -> bool:
        return self.pairing < other.pairing


_NOT_INVOLUTION = "pairing is not a fixed-point-free involution"


def _validate(pairing: tuple[int, ...]) -> None:
    """Raise unless pairing is a non-crossing fixed-point-free involution
    of the ints 0..m-1, in one pass.

    Each chord's low end i checks its high end p (pairing[p] == i) and
    pushes p; each high end must be the top of that stack.  This is the
    balanced-bracket test: it rules out a crossing a<b<c<d with a-c and
    b-d paired, and it gives each chord ends of opposite parity, since
    the points strictly inside a chord are matched among themselves.
    """
    m = len(pairing)
    if m == 0 or m % 2:
        raise BadPartition("need an even, positive number of points")
    stack = [m]  # no point is m, so a high end never matches this floor
    for i, p in enumerate(pairing):
        if type(p) is not int:
            raise BadPartition(_NOT_INVOLUTION)
        if p > i:
            if p >= m or pairing[p] != i:
                raise BadPartition(_NOT_INVOLUTION)
            stack.append(p)
        elif stack.pop() != i:
            raise _rejection(pairing)


def _rejection(pairing: tuple[int, ...]) -> BadPartition | CrossingChords:
    """The error for a pairing whose high end failed the bracket test: a
    crossing when the whole pairing is an involution, else BadPartition."""
    m = len(pairing)
    for i, p in enumerate(pairing):
        if type(p) is not int or not (0 <= p < m) or p == i or pairing[p] != i:
            return BadPartition(_NOT_INVOLUTION)
    return CrossingChords("two chords cross")


def _from_ends(ends: list) -> ChordDiagram:
    """The diagram with chords ends[0]-ends[1], ends[2]-ends[3], ...; the
    ends must partition 0..m-1, which the fill checks as it goes."""
    m = len(ends)
    pairing = [-1] * m  # -1: no chord ends here yet
    labels = iter(ends)
    try:
        for a, b in zip(labels, labels):
            if a < 0 or pairing[a] >= 0:
                break
            pairing[a] = b
            if b < 0 or pairing[b] >= 0:
                break
            pairing[b] = a
        else:
            return ChordDiagram(pairing)
    except (IndexError, TypeError):  # a label past m - 1, or not an int
        pass
    raise BadPartition(f"pairs must partition 0..{m - 1}")


def from_pairing(pairs) -> ChordDiagram:
    """Build and validate a diagram from an iterable of label pairs, each
    two ints, that together partition 0..m-1."""
    try:
        ends = [x for a, b in pairs for x in (a, b)]
    except (TypeError, ValueError) as exc:  # not pairs of two labels
        raise BadPartition("each pair must hold two labels") from exc
    return _from_ends(ends)


def serialize(diagram: ChordDiagram) -> str:
    """Canonical text form "0-5,1-4,2-3" (ascending first elements)."""
    return ",".join(f"{a}-{b}" for a, b in diagram.chords())


def parse(text: str) -> ChordDiagram:
    """Inverse of serialize.

    The grammar: comma-separated items, each exactly one "-" between two
    labels, where a label is any string int() reads (so surrounding
    whitespace is allowed).  The labels must partition 0..2N-1.
    """
    try:
        body = text.strip()
        if {*map(str.count, body.split(","), repeat("-"))} != {1}:
            raise ParseError(f"bad diagram string {text!r}")
        ends = list(map(int, body.replace("-", ",").split(",")))
    except (ValueError, AttributeError, TypeError) as exc:  # TypeError: bytes
        raise ParseError(f"bad diagram string {text!r}") from exc
    try:
        return _from_ends(ends)
    except BadPartition as exc:
        raise ParseError(str(exc)) from exc


# -- faces ------------------------------------------------------------------

# Boundary arc k runs from point k to point k+1.  Walking a region with the
# disc on the left, arc k is crossed from k+1 to k and then the chord
# leaving point k leads to its partner p, where arc p-1 continues the walk.
# So the regions of any non-crossing matching are the orbits of
# k -> (pairing[k] - 1) mod m, and all arcs of one region share a parity.


def region_orbits(pairing) -> tuple[tuple[int, ...], ...]:
    """Boundary arcs of each region, in walk order from its smallest arc.

    Regions come in order of their smallest arc; the chord after arc k
    in the walk is the one leaving point k.
    """
    m = len(pairing)
    seen = [False] * m
    orbits = []
    for start in range(m):
        orbit = []
        k = start
        while not seen[k]:
            seen[k] = True
            orbit.append(k)
            k = (pairing[k] - 1) % m
        if orbit:
            orbits.append(tuple(orbit))
    return tuple(orbits)


_face_cycles = lru_cache(maxsize=65536)(region_orbits)


def orbit_sign(orbit) -> int:
    """Sign of a region: +1 when its arcs are even (positive), else -1."""
    return 1 if orbit[0] % 2 == 0 else -1


def face_cycles(diagram: ChordDiagram) -> tuple[tuple[int, ...], ...]:
    """Boundary-arc orbits of the N+1 regions (see region_orbits)."""
    return _face_cycles(diagram.pairing)


class Region(namedtuple("Region", "id sign boundary_arcs boundary_chords")):
    """One complementary region of the diagram: its id, its sign, and the
    frozensets of its boundary arcs and boundary chords."""

    __slots__ = ()


def regions(diagram: ChordDiagram) -> list[Region]:
    """All N+1 regions with their signs and boundary data."""
    chord_at = [0] * (2 * diagram.n)
    for i, (a, b) in enumerate(diagram.chords()):
        chord_at[a] = chord_at[b] = i
    return [
        Region(
            i,
            orbit_sign(orbit),
            frozenset(orbit),
            frozenset(chord_at[k] for k in orbit),
        )
        for i, orbit in enumerate(face_cycles(diagram))
    ]


def euler_class(diagram: ChordDiagram) -> int:
    """Sum of region signs: e = (N - 1) - 2 * #{chords with an odd low end}.

    Proof.  Arc 2N-1 runs from point 2N-1 to point 0, outside every
    chord, so it lies in the outer region, which is negative.  Each other
    region R sits just inside one chord (a, b), a < b, that bounds it
    from outside: all arcs of R lie in a..b-1 and arc a is one of them,
    so a is the smallest arc of R and R has the sign of a's parity.
    Every chord bounds exactly one region from outside this way, so
    e = -1 + #{even low ends} - #{odd low ends}.  region_orbits and
    orbit_sign give the same sum by walking every region.
    """
    pairing = diagram.pairing
    odd_low = 0
    for i in range(1, len(pairing), 2):
        if pairing[i] > i:
            odd_low += 1
    return diagram.n - 1 - 2 * odd_low


# -- elementary diagram operations -------------------------------------------


def enumerate_diagrams(n: int) -> list[ChordDiagram]:
    """All diagrams with n chords, in increasing pairing order.

    Each call returns a fresh list, copied from the memo of _all_diagrams.
    A caller that walks the diagrams once, as `sutura enumerate` does,
    takes them from iter_diagrams and holds none of them.
    """
    return list(_all_diagrams(n))


@lru_cache(maxsize=None)
def _all_diagrams(n: int) -> tuple[ChordDiagram, ...]:
    """The diagrams of iter_diagrams, built once per size.

    Memoised: the verification sweeps ask for the same few sizes again
    and again (90 calls over 8 sizes in the full verification).
    """
    return tuple(iter_diagrams(n))


def iter_diagrams(n: int) -> Iterator[ChordDiagram]:
    """An iterator over every diagram with n chords, in increasing pairing order.

    Point 0 is paired with 1, 3, 5, ... in turn, and for each mate j the
    points inside the chord (1..j-1) are matched before those outside it
    (j+1..2n-1), each range recursively the same way.  The pairing is
    filled in from the left, so the first entry that differs between two
    diagrams is the one the earlier choice set smaller: the pairings come
    out strictly increasing.  The chord count is checked on the call, not
    on the first next().
    """
    if n < 1:
        raise BadArgument(f"need at least one chord, not {n}")
    pairing = [0] * (2 * n)

    def fill(lo: int, hi: int):
        # match the points lo..hi-1 in place, yielding once per matching
        if lo == hi:
            yield
            return
        for mate in range(lo + 1, hi, 2):
            pairing[lo] = mate
            pairing[mate] = lo
            for _ in fill(lo + 1, mate):
                yield from fill(mate + 1, hi)

    return (ChordDiagram._of(tuple(pairing)) for _ in fill(0, 2 * n))


def rotate_points(diagram: ChordDiagram, steps: int) -> ChordDiagram:
    """Relabel every point p -> p + steps (mod 2N); steps must be even."""
    if steps % 2:
        raise OddStep("rotation must move by an even number of points")
    m = 2 * diagram.n
    pairing = [0] * m
    for i, p in enumerate(diagram.pairing):
        pairing[(i + steps) % m] = (p + steps) % m
    return ChordDiagram._of(tuple(pairing))


# Adding or removing two adjacent points renumbers the rest one way: the
# surviving points keep their order and parity, labels below the pair
# stay and the others move by 2.  When the pair is (2N-1, 0) the old
# point 2N-2 becomes the new base point.


def delete_points(pairing: tuple[int, ...], t: int) -> tuple[int, ...]:
    """Delete points t and t+1 (mod 2N), joining their partners if unpaired.

    For 0 <= t <= 2N-1; deleting an outermost chord (t, t+1) removes
    the region of arc t.
    """
    m = len(pairing)
    u = (t + 1) % m
    b, c = pairing[t], pairing[u]
    if b != u:
        pairing = list(pairing)
        pairing[b], pairing[c] = c, b
    # Lists, not generators: tuple() of a generator over-allocates, and
    # the results live on as the pairings of diagrams.
    if u == 0:
        kept = pairing[1 : m - 1]  # old points 1..m-2, of which m-2 becomes 0
        return tuple([x if x < m - 2 else 0 for x in kept[-1:] + kept[:-1]])
    return tuple([x if x < t else x - 2 for x in pairing[:t] + pairing[t + 2 :]])


def insert_chord(pairing: tuple[int, ...], s: int) -> tuple[int, ...]:
    """Inverse of delete_points: a new outermost chord on points s, s+1 (mod 2N+2).

    For 0 <= s <= 2N+1.
    """
    m = len(pairing)
    if s == m + 1:
        # the old base point becomes point m, under the new chord (m+1, 0)
        rest = tuple(x if x else m for x in pairing)
        return (m + 1,) + rest[1:] + (rest[0], 0)
    shifted = tuple(x if x < s else x + 2 for x in pairing)
    return shifted[:s] + (s + 1, s) + shifted[s:]


def merge(d1: ChordDiagram | None, d2: ChordDiagram | None) -> ChordDiagram:
    """Join two (possibly null) diagrams with one new chord.

    The new chord runs (0, 2*N1+1); d1 sits on labels 1..2*N1 with its
    base point at 2*N1 (insert_chord's renumbering), d2 on labels
    2*N1+2..2N-1 with its base point at 2*N1+2; both keep their
    clockwise order.
    """
    head = (1, 0) if d1 is None else insert_chord(d1.pairing, 2 * d1.n + 1)
    tail = () if d2 is None else tuple(x + len(head) for x in d2.pairing)
    return ChordDiagram._of(head + tail)


def unique_split(diagram: ChordDiagram) -> tuple[ChordDiagram | None, ChordDiagram | None]:
    """Inverse of merge, splitting along the chord through the base point."""
    q = diagram.pairing[0]
    head = delete_points(diagram.pairing[: q + 1], q)
    tail = tuple(x - q - 1 for x in diagram.pairing[q + 1 :])
    return (
        ChordDiagram._of(head) if head else None,
        ChordDiagram._of(tail) if tail else None,
    )


def to_json_dict(diagram: ChordDiagram) -> dict:
    """JSON-exportable summary used by the CLI."""
    return {
        "N": diagram.n,
        "pairs": diagram.chords(),
        "euler_class": euler_class(diagram),
        "regions": [
            {"sign": r.sign, "arcs": sorted(r.boundary_arcs)} for r in regions(diagram)
        ],
    }


VACUUM = ChordDiagram._of((1, 0))
