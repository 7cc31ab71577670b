"""Construction of basis diagrams from words, from either distinguished point.

The base point algorithm reads the word left to right, drawing one chord
per symbol from a moving temporary base point: '-' reaches to the next
unused point anticlockwise, '+' clockwise.  The root point algorithm
reads right to left from the root point with the two directions swapped.
Both end by joining the last two unused points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .diagram import ChordDiagram
from .errors import BrokenInvariant, IndexOutOfRange
from .words import MINUS, Word


def root_point(n_chords: int, e: int) -> int:
    """The point where the construction places its final chord."""
    return (e + n_chords) % (2 * n_chords)


def _next_unused(start: int, step: int, used: set[int], m: int) -> int:
    p = (start + step) % m
    while p in used:
        p = (p + step) % m
    return p


@dataclass(frozen=True)
class ConstructionData:
    """A basis diagram together with its construction bookkeeping.

    symbol_chords[i] is the chord drawn while processing symbol i of the
    word; final_chord is the closing chord at the root point.  The chord
    order (creation time) is the list index, with the final chord last.
    """

    word: Word
    diagram: ChordDiagram
    symbol_chords: tuple[tuple[int, int], ...]
    final_chord: tuple[int, int]
    root: int

    def chord_order(self) -> dict[tuple[int, int], int]:
        order = {c: i for i, c in enumerate(self.symbol_chords)}
        order[self.final_chord] = len(self.symbol_chords)
        return order

    def base_numbered_chord(self, sign: int, index: int) -> tuple[int, int]:
        """Chord created by the index'th sign of this kind (1-based)."""
        positions = self.word.positions(sign)
        if not 1 <= index <= len(positions):
            raise IndexOutOfRange(f"word has no sign number {index} of kind {sign}")
        return self.symbol_chords[positions[index - 1]]


def _norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@lru_cache(maxsize=None)
def base_construction(w: Word) -> ConstructionData:
    """Run the base point algorithm on w."""
    n = w.n
    m = 2 * (n + 1)
    used: set[int] = set()
    pairing = [-1] * m
    temp = 0
    symbol_chords = []
    for b in w.bits:
        step = -1 if b == MINUS else 1
        mate = _next_unused(temp, step, used, m)
        pairing[temp], pairing[mate] = mate, temp
        used.update((temp, mate))
        symbol_chords.append(_norm(temp, mate))
        temp = _next_unused(mate, step, used, m)
    rest = [p for p in range(m) if p not in used]
    a, b = rest
    pairing[a], pairing[b] = b, a
    diagram = ChordDiagram(tuple(pairing))
    root = root_point(n + 1, w.e)
    if root not in rest:
        raise BrokenInvariant(f"the final chord of {w} misses the root point")
    return ConstructionData(w, diagram, tuple(symbol_chords), _norm(a, b), root)


@lru_cache(maxsize=None)
def root_construction(w: Word) -> ConstructionData:
    """Run the root point algorithm on w (right to left from the root).

    symbol_chords is still indexed by position in w read left to right,
    so entry i is the root-numbered chord of symbol i.
    """
    n = w.n
    m = 2 * (n + 1)
    used: set[int] = set()
    pairing = [-1] * m
    temp = root_point(n + 1, w.e)
    chords_by_pos: list[tuple[int, int] | None] = [None] * n
    for pos, b in reversed(list(enumerate(w.bits))):
        step = 1 if b == MINUS else -1
        mate = _next_unused(temp, step, used, m)
        pairing[temp], pairing[mate] = mate, temp
        used.update((temp, mate))
        chords_by_pos[pos] = _norm(temp, mate)
        temp = _next_unused(mate, step, used, m)
    rest = [p for p in range(m) if p not in used]
    a, b = rest
    if 0 not in rest:
        raise BrokenInvariant(f"the final chord of {w} misses the base point")
    pairing[a], pairing[b] = b, a
    diagram = ChordDiagram(tuple(pairing))
    return ConstructionData(
        w, diagram, tuple(chords_by_pos), _norm(a, b), root_point(n + 1, w.e)
    )


def basis_diagram(w: Word) -> ChordDiagram:
    """The diagram of the basis element indexed by w (n+1 chords)."""
    return base_construction(w).diagram
