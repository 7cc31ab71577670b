"""GF(2) spaces of chord diagrams: basis decomposition, graded operators,
merge on elements, the extreme-word correspondence, and the rotation
operator.

Elements are finite sets of equal-length words (mod-2 sums of basis
vectors).  A diagram is written in this basis by repeatedly peeling
outermost chords at the base point and, when none exists there,
splitting along the bypass triple of the arc hugging the base point.
Each path of that rule from the diagram to the leaf spells one word, and
_path, which follows the rule on a window of the pairing, is its one
encoding: decompose() walks every path and builds each word once,
phi() follows two paths (w- takes - at every split and w+ takes +),
is_basis() asks whether the walk meets a split, and _path_count() counts
the paths.  The creation and annihilation operators on diagrams add or
remove two adjacent points with diagram.insert_chord and
diagram.delete_points, which own the renumbering of the other points.
Each operator acts on words and on diagrams, and the two agree:
decompose(op.diagram_action(d)) == op(decompose(d)) for B-, B+, A+, A-
and every slot of creation and annihilation.  merge_elements extends
diagram.merge bilinearly.  verify's operator check replays both facts.
Basis diagrams are creation operators on the vacuum: one fold puts a
word's letters in front, right to left (B-/B+, undone by the peel),
builds the diagram and numbers its chords by the letter that created
each.  Appending each letter at the last slot of its side, left to
right, builds the same diagram and numbers it from the root point: the
same numbering shifted by one letter.  rotation() moves the base point
of a basis diagram and decomposes the result.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache

from .diagram import (
    ChordDiagram,
    ZERO,
    delete_points,
    euler_class,
    insert_chord,
    is_zero,
    merge,
    rotate_points,
)
from .errors import (
    BadArgument,
    BrokenInvariant,
    GradingMismatch,
    IndexOutOfRange,
    NotComparable,
    TooDeep,
    TrivialArc,
    ZeroElement,
)
from .words import MINUS, PLUS, Word, from_mask, lex_sorted, partial_leq


class SfhElement:
    """A mod-2 combination of basis vectors, stored as a set of words.

    The words share one length.  SfhElement(...), sum, + and apply_operator
    check it; the package's own builders (_of, _sum) do not, since each word
    rule here gives words of a length fixed by the length of its input."""

    __slots__ = ("words",)

    def __init__(self, words=()):
        ws = frozenset(words)
        if len(ws) > 1:
            n = next(iter(ws)).n
            if any(w.n != n for w in ws):
                raise GradingMismatch("mixed word lengths in one element")
        self.words: frozenset[Word] = ws

    @classmethod
    def _of(cls, words: frozenset[Word]) -> "SfhElement":
        """The element on a word set of one length, built with no pass over it."""
        x = object.__new__(cls)
        x.words = words
        return x

    @classmethod
    def zero(cls) -> "SfhElement":
        return cls()

    @classmethod
    def basis(cls, w: Word) -> "SfhElement":
        return cls((w,))

    @classmethod
    def sum(cls, images) -> "SfhElement":
        """The mod-2 sum of an iterable of word sets, checked as SfhElement(...)."""
        return cls(cls._sum(images).words)

    @classmethod
    def _sum(cls, images) -> "SfhElement":
        """The same sum, unchecked.  Every linear map here is given on basis
        words, and its value on an element is this sum of the images of the
        element's words."""
        acc: frozenset[Word] = frozenset()
        for image in images:
            acc ^= image
        return cls._of(acc)

    def is_zero(self) -> bool:
        return not self.words

    def __bool__(self) -> bool:
        return bool(self.words)

    def __add__(self, other: "SfhElement") -> "SfhElement":
        return SfhElement(self.words ^ other.words)

    __xor__ = __add__

    def __eq__(self, other) -> bool:
        return isinstance(other, SfhElement) and self.words == other.words

    def __hash__(self) -> int:
        return hash(self.words)

    def sorted_words(self) -> list[Word]:
        return lex_sorted(self.words)

    def grading(self) -> tuple[int, int] | None:
        """(n-, n+) when homogeneous (all members share it), else None."""
        one = next(iter(self.words), None)
        if one is None or len(self.words) > 1 and any(w.n_plus != one.n_plus for w in self.words):
            return None
        return one.grading

    def __repr__(self) -> str:
        return "SfhElement({" + ", ".join(str(w) for w in self.sorted_words()) + "})"


# -- decomposition -----------------------------------------------------------

# The memo of decompose: the element of every diagram it was asked for.
_decompose_cache: dict[tuple[int, ...], SfhElement] = {}


def bypass_rewire(pairing: tuple[int, ...], points, step: int) -> tuple[int, ...]:
    """Bypass surgery along a nontrivial arc, as a re-matching of six ends.

    points holds one end of each of three distinct chords.  Their six
    ends, in clockwise order, are re-matched one step around the
    hexagon: the end after x is joined to the end after x's partner
    (step +1), or the end before x to the end before x's partner (step -1).
    The two steps give the other two diagrams of the bypass triple.
    """
    ends = sorted({x for p in points for x in (p, pairing[p])})
    if len(ends) != 6:
        raise TrivialArc("bypass rewiring needs three distinct chords")
    out = list(pairing)
    for i, x in enumerate(ends):
        out[ends[(i + step) % 6]] = ends[(ends.index(pairing[x]) + step) % 6]
    return tuple(out)


def _path(p, lo: int, hi: int, at_hi: bool, mask: int, take: int, splits: int):
    """Follow the peel/split rule from a state, taking `take` at each of
    the next `splits` splits, and return the state at the split after
    them or at the leaf.

    A peel removes the base point and one of its neighbours, so the live
    points are the run of labels lo..hi, in that cyclic order, with the
    base point at hi after a - and at lo otherwise: the renumbering of
    delete_points, read without renumbering.  A state is (lo, hi, base
    point at hi, the letters so far as a mask, first letter highest); the
    leaf is hi = lo + 1.  A split is bypass_rewire(pairing, (predecessor,
    base point, successor), +1 for -, -1 for +) on the live points, and
    it rewires four partners of the list p in place, the half it takes
    followed by the peel that half forces: with q, a and b the partners
    of the base point, its predecessor and its successor, - joins
    successor-a and b-q, and + joins b-predecessor and q-a.  With splits
    0, p is only read."""
    while hi - lo > 1:
        # one statement an update, and + as the literal bit 1: a tuple
        # assignment of four, or a global read, costs more in this loop
        if at_hi:  # successor lo, predecessor hi - 1
            q = p[hi]
            if q == lo:
                lo += 1
                hi -= 1
                at_hi = False
                mask = mask << 1 | 1
                continue
            if q == hi - 1:
                hi -= 2
                mask <<= 1
                continue
            succ = lo
            pred = hi - 1
        else:  # successor lo + 1, predecessor hi
            q = p[lo]
            if q == lo + 1:
                lo += 2
                mask = mask << 1 | 1
                continue
            if q == hi:
                lo += 1
                hi -= 1
                at_hi = True
                mask <<= 1
                continue
            succ = lo + 1
            pred = hi
        if not splits:
            break
        splits -= 1
        a = p[pred]
        b = p[succ]
        if take:  # PLUS
            p[b] = pred
            p[pred] = b
            p[q] = a
            p[a] = q
            if at_hi:
                lo += 1
                hi -= 1
                at_hi = False
            else:
                lo += 2
            mask = mask << 1 | 1
        else:
            p[succ] = a
            p[a] = succ
            p[b] = q
            p[q] = b
            if at_hi:
                hi -= 2
            else:
                lo += 1
                hi -= 1
                at_hi = True
            mask <<= 1
    return lo, hi, at_hi, mask


def _path_count(pairing: tuple[int, ...]) -> int:
    """The number of paths from a pairing to the leaf, which is the size of
    its decomposition: a fold over the rule, memoised on each split's
    state less its letters (lo, base point at hi, the live partners).  It
    recurses once per split along a path."""
    memo: dict[tuple, int] = {}

    def count(p, lo, hi, at_hi):
        if hi - lo == 1:
            return 1
        key = (lo, at_hi, tuple(p[lo : hi + 1]))
        total = memo.get(key)
        if total is None:
            q = p.copy()
            total = memo[key] = (
                count(q, *_path(q, lo, hi, at_hi, 0, MINUS, 1)[:3])
                + count(p, *_path(p, lo, hi, at_hi, 0, PLUS, 1)[:3])
            )
        return total

    p = list(pairing)
    return count(p, *_path(p, 0, len(p) - 1, False, 0, MINUS, 0)[:3])


def decompose(diagram) -> SfhElement:
    """The unique expression of a diagram in the word basis (memoised).

    Each path of the peel/split rule from the diagram to the leaf spells
    one word, and each word one path, so the walk follows every path
    once: at each split it puts the - half, on a copy of the pairing, on
    a stack and goes on with the + half.  The two halves' words start
    with different letters, so the mod-2 sum cancels nothing.  The memo
    keeps the answers asked for and nothing the walk meets.  Nothing
    recurses, except that a diagram with more paths possible than a set
    can hold has its paths counted first: TooDeep when that count nests
    past the interpreter's stack or exceeds what a set can hold."""
    if is_zero(diagram):
        return SfhElement.zero()
    pairing = diagram.pairing
    x = _decompose_cache.get(pairing)
    if x is not None:
        return x
    n = diagram.n - 1
    if 1 << n > sys.maxsize:
        try:
            count = _path_count(pairing)
        except RecursionError:
            raise TooDeep(f"the bypass splits of a {diagram.n}-chord diagram nest too deeply") from None
        if count > sys.maxsize:
            raise TooDeep(f"a {diagram.n}-chord diagram has more than {sys.maxsize} words")
    words = []
    p = list(pairing)
    todo = [(p, *_path(p, 0, 2 * n + 1, False, 0, MINUS, 0))]
    while todo:
        p, lo, hi, at_hi, mask = todo.pop()
        while hi - lo > 1:
            q = p.copy()
            todo.append((q, *_path(q, lo, hi, at_hi, mask, MINUS, 1)))
            lo, hi, at_hi, mask = _path(p, lo, hi, at_hi, mask, PLUS, 1)
        words.append(from_mask(mask, n))
    x = _decompose_cache[pairing] = SfhElement._of(frozenset(words))
    return x


def is_basis(diagram: ChordDiagram) -> bool:
    """True when the diagram is one of the basis diagrams: its walk meets
    no split, since the two halves of a split have disjoint, non-empty
    word sets."""
    if is_zero(diagram):
        return False
    lo, hi, _, _ = _path(diagram.pairing, 0, 2 * diagram.n - 1, False, 0, MINUS, 0)
    return hi - lo == 1


def phi(diagram) -> tuple[Word, Word]:
    """Lexicographic extremes (w-, w+) of the basis decomposition.  A split
    lists the whole step +1 half, whose words start with -, first, so w-
    is the path that takes - at every split and w+ the one that takes +;
    the two share the letters before the first split, and are one word
    when there is none."""
    if is_zero(diagram):
        raise ZeroElement("zero has no extreme words")
    n, p = diagram.n - 1, diagram.pairing
    lo, hi, at_hi, mask = _path(p, 0, 2 * n + 1, False, 0, MINUS, 0)
    if hi - lo == 1:
        w = from_mask(mask, n)
        return w, w
    w_minus = _path(list(p), lo, hi, at_hi, mask, MINUS, n)[3]
    return from_mask(w_minus, n), from_mask(_path(list(p), lo, hi, at_hi, mask, PLUS, n)[3], n)


def from_pair(w_minus: Word, w_plus: Word) -> ChordDiagram:
    """The unique diagram whose decomposition runs from w- to w+.

    Built as the downwards surgery along a minimal forwards bypass
    system from the w- basis diagram.
    """
    if not partial_leq(w_minus, w_plus):
        raise NotComparable(f"{w_minus} is not below {w_plus}")
    from . import arcs  # deferred: arcs imports sfh, so a top-level import is a cycle

    if w_minus == w_plus:
        return basis_diagram(w_minus)
    system = arcs.fbs(w_minus, w_plus)
    result = arcs.surgery_along_system(system, "down")
    if is_zero(result):
        raise BrokenInvariant(f"downwards surgery from {w_minus} to {w_plus} closed a loop")
    return result


# -- graded operators ---------------------------------------------------------


class GradedOperator(namedtuple("GradedOperator", "name word_action on_diagram")):
    """A linear operator given by its name, its action on basis words (a
    word to a frozenset of words) and its action on diagrams."""

    __slots__ = ()

    def __call__(self, x: SfhElement) -> SfhElement:
        return apply_operator(self, x)

    def diagram_action(self, d):
        """The action on one diagram; ZERO (a closed loop) stays ZERO."""
        return ZERO if is_zero(d) else self.on_diagram(d)


def apply_operator(op: GradedOperator, x: SfhElement) -> SfhElement:
    """Linear (XOR) extension of the operator's word action.  The class is
    public and its word rule anyone's, so the sum is the checked one: an
    image of mixed word lengths raises GradingMismatch."""
    return SfhElement.sum(map(op.word_action, x.words))


def _one(w: Word) -> frozenset[Word]:
    return frozenset((w,))


def _prepend(sign: int) -> Callable[[Word], frozenset[Word]]:
    """Word action of B- (sign MINUS) or B+ (PLUS): a new first letter."""
    return lambda w: _one(w.insert(0, sign))


def _strip(sign: int) -> Callable[[Word], frozenset[Word]]:
    """Word action of A+ (sign MINUS) or A- (PLUS): delete a first letter of
    this sign; words that start with the other sign go to zero."""
    return lambda w: _one(w.delete(0)) if w.n and w.bits[0] == sign else frozenset()


def _creation_point(n_chords: int, sign: int, i: int) -> int:
    """insert_chord's point for the chord of a new letter of this sign at
    side slot i of an n-chord diagram: westside (MINUS) slot i is points
    (-2i-3, -2i-2), eastside (PLUS) slot i is (2i+2, 2i+3).  Slot -1 is
    the base point, where B- and B+ put the letter in front of the word."""
    return 2 * n_chords - 1 - 2 * i if sign == MINUS else 2 * i + 2


def _create(d: ChordDiagram, sign: int, i: int) -> ChordDiagram:
    return ChordDiagram(insert_chord(d.pairing, _creation_point(d.n, sign, i)))


def _cap(d: ChordDiagram, t: int):
    """Join the chords at points t and t+1 (mod 2N); ZERO when they are one chord."""
    if d.pairing[t] == (t + 1) % (2 * d.n):
        return ZERO
    return ChordDiagram(delete_points(d.pairing, t))


def _a_plus_diag(d: ChordDiagram):
    # cap off the boundary between points 0 and 1
    capped = _cap(d, 0)
    return capped if is_zero(capped) else rotate_points(capped, 2)


def _a_minus_diag(d: ChordDiagram):
    # cap off the boundary between points 2N-1 and 0
    capped = _cap(d, 2 * d.n - 1)
    return capped if is_zero(capped) else rotate_points(capped, -2)


def _check_slot(i: int, top: int) -> None:
    if not 0 <= i <= top:
        raise IndexOutOfRange(f"slot {i} outside 0..{top}")


def _diagram_grading(d: ChordDiagram) -> tuple[int, int]:
    """(n-, n+) of every word in the diagram's decomposition."""
    e = euler_class(d)
    return (d.n - 1 - e) // 2, (d.n - 1 + e) // 2


def side_sign(side: str) -> int:
    """The sign a side's slot operators act on: MINUS for west, PLUS for east."""
    if side == "west":
        return MINUS
    if side == "east":
        return PLUS
    raise BadArgument(f"side must be 'west' or 'east', not {side!r}")


def creation_word(w: Word, sign: int, i: int) -> frozenset[Word]:
    """Insert a sign in front of the (i+1)'th sign of that kind (append for
    i = their count): westside for MINUS, eastside for PLUS."""
    positions = w.positions(sign)
    _check_slot(i, len(positions))
    return _one(w.insert(positions[i] if i < len(positions) else w.n, sign))


def annihilation_word(w: Word, sign: int, i: int) -> frozenset[Word]:
    """Delete the (i+1)'th sign of that kind; for i = their count, delete a
    final letter of that sign or give zero."""
    positions = w.positions(sign)
    _check_slot(i, len(positions))
    if i < len(positions):
        return _one(w.delete(positions[i]))
    if positions and positions[-1] == w.n - 1:
        return _one(w.delete(w.n - 1))
    return frozenset()


B_MINUS = GradedOperator("B-", _prepend(MINUS), lambda d: _create(d, MINUS, -1))
B_PLUS = GradedOperator("B+", _prepend(PLUS), lambda d: _create(d, PLUS, -1))
A_PLUS = GradedOperator("A+", _strip(MINUS), _a_plus_diag)
A_MINUS = GradedOperator("A-", _strip(PLUS), _a_minus_diag)


def creation(side: str, i: int) -> GradedOperator:
    """B- at westside slot i, a chord at points (-2i-3, -2i-2), or B+ at
    eastside slot i, a chord at points (2i+2, 2i+3)."""
    sign = side_sign(side)

    def diag(d: ChordDiagram) -> ChordDiagram:
        _check_slot(i, _diagram_grading(d)[sign])
        return _create(d, sign, i)

    name = "B-" if sign == MINUS else "B+"
    return GradedOperator(f"{name}^({side},{i})", lambda w: creation_word(w, sign, i), diag)


def annihilation(side: str, i: int) -> GradedOperator:
    """A+ at westside slot i, joining the chords at points (-2i-2, -2i-1),
    or A- at eastside slot i, joining those at points (2i+1, 2i+2)."""
    sign = side_sign(side)

    def diag(d: ChordDiagram):
        _check_slot(i, _diagram_grading(d)[sign])
        if i == d.n - 1:
            # a grading of one sign only: the slot wraps to the base point
            return _a_plus_diag(d) if sign == MINUS else _a_minus_diag(d)
        return _cap(d, 2 * d.n - 2 * i - 2 if sign == MINUS else 2 * i + 1)

    name = "A+" if sign == MINUS else "A-"
    return GradedOperator(f"{name}^({side},{i})", lambda w: annihilation_word(w, sign, i), diag)


def root_point(n_chords: int, e: int) -> int:
    """The root point of an N-chord basis diagram of euler class e, which
    the base fold's vacuum chord holds."""
    return (e + n_chords) % (2 * n_chords)


@lru_cache(maxsize=None)
def _creation_fold(w: Word) -> tuple[ChordDiagram, tuple[tuple[int, int], ...]]:
    """The basis diagram of w, built by creation operators on the vacuum,
    and the chord each letter of w creates, the vacuum's chord last.

    The fold reads w right to left and puts each letter in front (B- or
    B+, slot -1).  owner[p] is the letter whose chord holds point p.
    """
    n, bits = w.n, w.bits
    pairing, owner = (1, 0), [n, n]
    for pos in reversed(range(n)):
        s = _creation_point(len(pairing) // 2, bits[pos], -1)
        if s == len(pairing) + 1:  # the chord (m+1, 0): old point 0 becomes m
            owner = [pos, *owner[1:], owner[0], pos]
        else:
            owner[s:s] = (pos, pos)
        pairing = insert_chord(pairing, s)
    high = {letter: p for p, letter in enumerate(owner)}  # each chord's later point
    chords = tuple((pairing[high[k]], high[k]) for k in range(n + 1))
    if root_point(n + 1, w.e) not in chords[n]:
        raise BrokenInvariant(f"the vacuum chord of {w} misses the root point")
    return ChordDiagram._of(pairing), chords


def basis_diagram(w: Word) -> ChordDiagram:
    """The diagram of the basis element indexed by w (n+1 chords)."""
    return _creation_fold(w)[0]


def base_chords(w: Word) -> tuple[tuple[int, int], ...]:
    """Entry p is the chord letter p of w creates in the base fold."""
    return _creation_fold(w)[1]


def root_chords(w: Word) -> tuple[tuple[int, int], ...]:
    """Entry p is the chord letter p of w creates in the root fold, which
    reads w left to right and appends each letter at the last slot of its
    side: entry p is base_chords(w)[p + 1], and the vacuum's chord is the
    one the first letter creates in the base fold."""
    base = _creation_fold(w)[1]
    return base[1:] + base[:1]


# -- merge on elements --------------------------------------------------------


def merge_elements(x1: SfhElement | None, x2: SfhElement | None) -> SfhElement:
    """Bilinear extension of the diagram merge to basis combinations.

    None stands for the empty (0-chord) tensor factor, reducing the
    operation to a creation operator.
    """
    if x1 is None and x2 is None:
        return SfhElement((Word(),))
    if x1 is None:
        return apply_operator(B_PLUS, x2)
    if x2 is None:
        return apply_operator(B_MINUS, x1)
    for x in (x1, x2):
        if x.words and x.grading() is None:
            raise GradingMismatch("merge needs homogeneous operands")
    return SfhElement._sum(
        decompose(merge(basis_diagram(w1), basis_diagram(w2))).words
        for w1 in x1.words
        for w2 in x2.words
    )


# -- rotation -----------------------------------------------------------------


def rotation(x: SfhElement) -> SfhElement:
    """The rotation operator: move the base point of each basis diagram
    two marked points (relabel by -2) and decompose."""
    return SfhElement._sum(decompose(rotate_points(basis_diagram(w), -2)).words for w in x.words)
