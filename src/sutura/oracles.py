"""The paper's independent routes, kept as oracles for `verify` and the tests.

Each fact has one production route in the other modules; the routes here
prove the same facts another way and are compared against it.  They use
only the package's public, checked API, and no production module imports
this one, so none of them sits on a hot path.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import stacking
from .arcs import BypassSystem, find_attaching_arcs, surgery, surgery_along_system
from .diagram import ChordDiagram, delete_points, euler_class, is_zero
from .errors import BadArgument, BrokenInvariant, GradingMismatch
from .sfh import SfhElement, bypass_rewire, root_point, side_sign
from .words import MINUS, PLUS, Word, all_words


def partial_leq_baseball(w1: Word, w2: Word) -> bool:
    """The minus-signs-move-right order via prefix sums (the "score after
    each inning", +1 per plus sign and -1 per minus): w2 never trails w1."""
    if w1.grading != w2.grading:
        raise GradingMismatch(f"{w1} and {w2} have different (n-, n+)")
    s1, s2 = (itertools.accumulate(1 if b == PLUS else -1 for b in w.bits) for w in (w1, w2))
    return all(a <= b for a, b in zip(s1, s2))


@lru_cache(maxsize=None)
def narayana_recursive(n_chords: int, e: int) -> int:
    """The Narayana numbers from the merge recursion."""
    if n_chords <= 1:
        return 1 if (n_chords, e) in ((0, 0), (1, 0)) else 0
    n = n_chords - 1
    if abs(e) > n or (e + n) % 2 != 0:
        return 0
    val = narayana_recursive(n, e - 1) + narayana_recursive(n, e + 1)
    for n1 in range(1, n):
        n2 = n - n1
        for e1 in range(-n1, n1 + 1):
            val += narayana_recursive(n1, e1) * narayana_recursive(n2, e - e1)
    return val


def count_monotone(n1: int, distinct: int) -> int:
    """Brute-force count of staircases f: [n1] -> [n1], f(i) <= i, with a
    prescribed number of distinct values."""
    count = 0
    for f in itertools.product(*(range(1, i + 1) for i in range(1, n1 + 1))):
        if all(f[i] >= f[i - 1] for i in range(1, n1)) and len(set(f)) == distinct:
            count += 1
    return count


def root_walk(w: Word) -> tuple[ChordDiagram, list[tuple[int, int]]]:
    """The root point algorithm, and the chord it draws for each letter.

    Starting at the root point, it reads w right to left: a '-' draws a
    chord clockwise to the next unused point, a '+' anticlockwise, and
    the next chord starts at the next unused point beyond it in the same
    sense.  The last two unused points are joined.  chords[p] is the
    chord letter p draws.
    """
    m = 2 * (w.n + 1)
    pairing = [-1] * m
    chords: list[tuple[int, int]] = [(0, 0)] * w.n

    def next_unused(p: int, step: int) -> int:
        p = (p + step) % m
        while pairing[p] >= 0:
            p = (p + step) % m
        return p

    start = root_point(w.n + 1, w.e)
    for pos in reversed(range(w.n)):
        step = 1 if w.bits[pos] == MINUS else -1
        end = next_unused(start, step)
        pairing[start], pairing[end] = end, start
        chords[pos] = (min(start, end), max(start, end))
        start = next_unused(end, step)
    a, b = (p for p in range(m) if pairing[p] < 0)
    pairing[a], pairing[b] = b, a
    return ChordDiagram(pairing), chords


def decompose_from_root(diagram) -> SfhElement:
    """Basis decomposition computed from the root point (right to left)."""
    if is_zero(diagram):
        return SfhElement.zero()
    return SfhElement(_decompose_root_pairing(diagram.pairing, euler_class(diagram), {}))


def _decompose_root_pairing(pairing: tuple[int, ...], e: int, memo: dict) -> frozenset[Word]:
    # As sfh.decompose, from the root point r: outermost chords at the
    # root are peeled in a loop and only bypass splits recurse.  The memo,
    # one per decompose_from_root call, shares the halves the splits meet.
    peeled: list[tuple[tuple[int, ...], int]] = []
    while pairing not in memo:
        m = len(pairing)
        r = root_point(m // 2, e)
        if m == 2:
            memo[pairing] = frozenset((Word(),))
        elif pairing[(r - 1) % m] == r:
            peeled.append((pairing, PLUS))
            pairing, e = delete_points(pairing, (r - 1) % m), e - 1
        elif pairing[r] == (r + 1) % m:
            peeled.append((pairing, MINUS))
            pairing, e = delete_points(pairing, r), e + 1
        else:
            hug = ((r - 1) % m, r, (r + 1) % m)
            left = _decompose_root_pairing(bypass_rewire(pairing, hug, 1), e, memo)
            right = _decompose_root_pairing(bypass_rewire(pairing, hug, -1), e, memo)
            memo[pairing] = left ^ right
    result = memo[pairing]
    for outer, letter in reversed(peeled):
        result = frozenset(w.insert(w.n, letter) for w in result)
        memo[outer] = result
    return result


def _blocks(w: Word) -> list[tuple[int, int]]:
    """Block exponents [(a1,b1),...,(ak,bk)] for (-)^a1 (+)^b1 ...

    a1 may be 0 (word starts with +) and bk may be 0 (word ends
    with -); all other exponents are nonzero.
    """
    runs = [(sign, len(list(g))) for sign, g in itertools.groupby(w.bits)]
    if not runs or runs[0][0] == PLUS:
        runs.insert(0, (MINUS, 0))
    if runs[-1][0] == MINUS:
        runs.append((PLUS, 0))
    return [(runs[i][1], runs[i + 1][1]) for i in range(0, len(runs), 2)]


def rotation_closed_form(x: SfhElement) -> SfhElement:
    """The rotation from the block formula: each basis word gives one term
    per grouping of its blocks into consecutive parts."""
    out: frozenset[Word] = frozenset()
    for w in x.words:
        blocks = _blocks(w)
        k = len(blocks)
        for cut_mask in range(1 << (k - 1)):
            parts: list[tuple[int, int]] = []
            a_sum = b_sum = 0
            for idx, (a, b) in enumerate(blocks):
                a_sum += a
                b_sum += b
                if idx == k - 1 or (cut_mask >> idx) & 1:
                    parts.append((a_sum, b_sum))
                    a_sum = b_sum = 0
            bits: list[int] = []
            # the first part trades a plus for a minus and the last part
            # trades it back, so a lone part is (+)^b (-)^a; with k >= 2
            # blocks b1 and ak are nonzero, so no exponent goes negative
            for p, (a, b) in enumerate(parts):
                if p == 0:
                    b -= 1
                    a += 1
                if p == len(parts) - 1:
                    b += 1
                    a -= 1
                bits.extend((PLUS,) * b + (MINUS,) * a)
            out ^= {Word(bits)}
    return SfhElement(out)


def _after_minuses(count: int, w: Word) -> Word:
    """The word (-)^count followed by w."""
    for _ in range(count):
        w = w.insert(0, MINUS)
    return w


@lru_cache(maxsize=None)
def rotation_matrix(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of the rotation on length-n words with k plus signs.

    Rows and columns are indexed by the lexicographically ordered words;
    column j holds the image of basis word j.  Built by the block
    recursion on leading symbols; must agree with the other two forms.
    """
    words = all_words(n - k, k)
    dim = len(words)
    index = {w: i for i, w in enumerate(words)}
    mat = [[0] * dim for _ in range(dim)]
    if k == 0 or k == n:
        for i in range(dim):
            mat[i][i] = 1
        return tuple(tuple(r) for r in mat)

    prev = rotation_matrix(n - 1, k - 1)
    prev_words = all_words(n - k, k - 1)

    # rows starting with '+': every entry (u, v) of R_{n-1,k-1} appears in
    # column (-)^j + v[j:] for each j up to the leading-minus count of v
    for r_i, u in enumerate(prev_words):
        row = index[u.insert(0, PLUS)]
        for c_i, v in enumerate(prev_words):
            if not prev[r_i][c_i]:
                continue
            for j in range(_blocks(v)[0][0] + 1):
                mat[row][index[v.insert(j, PLUS)]] = 1
    # rows (-)^(j+1) + u: copies of R_{n-j-2,k-1} at columns (-)^j + - v
    for j in range(0, n - k):
        sub_n = n - j - 2
        if sub_n < k - 1 or sub_n < 0:
            continue
        sub = rotation_matrix(sub_n, k - 1)
        sub_words = all_words(sub_n - k + 1, k - 1)
        for r_i, u in enumerate(sub_words):
            row_word = _after_minuses(j + 1, u.insert(0, PLUS))
            if row_word not in index:
                continue
            for c_i, v in enumerate(sub_words):
                if not sub[r_i][c_i]:
                    continue
                col_word = _after_minuses(j, v.insert(0, MINUS).insert(0, PLUS))
                if col_word in index:
                    mat[index[row_word]][index[col_word]] = 1
    return tuple(tuple(r) for r in mat)


def rotation_by_matrix(x: SfhElement) -> SfhElement:
    """Apply rotation via the recursive matrix."""
    g = x.grading()
    if x.is_zero():
        return x
    if g is None:
        raise GradingMismatch("rotation needs a homogeneous element")
    n_minus, n_plus = g
    n = n_minus + n_plus
    words = all_words(n_minus, n_plus)
    index = {w: i for i, w in enumerate(words)}
    mat = rotation_matrix(n, n_plus)
    return SfhElement.sum(
        frozenset(wr for row, wr in zip(mat, words) if row[index[w]]) for w in x.words
    )


def boundary_closed_form(side: str, w: Word) -> SfhElement:
    """The boundary of a basis word from the block-coefficient formula.

    Deleting one sign anywhere inside a block gives the same word, so
    each block contributes with coefficient its length, plus one more
    when it is the final symbol run of the word (mod 2 throughout).
    This is "partial differentiation" by the deleted sign, with the
    extra final-run term.
    """
    positions = w.positions(side_sign(side))
    runs: list[list[int]] = []  # [start, length] of each maximal run of the sign
    for p in positions:
        if runs and runs[-1][0] + runs[-1][1] == p:
            runs[-1][1] += 1
        else:
            runs.append([p, 1])
    ends_in_kind = bool(positions) and positions[-1] == w.n - 1
    return SfhElement.sum(
        frozenset((w.delete(start),))
        for r, (start, length) in enumerate(runs)
        if (length + (ends_in_kind and r == len(runs) - 1)) % 2
    )


def up_moves_by_arcs(diagram: ChordDiagram) -> list[ChordDiagram]:
    """The diagrams one upwards bypass reaches, by the arc route: the
    upward surgery along each nontrivial class of find_attaching_arcs."""
    return [
        surgery(diagram, c, "up")
        for c in find_attaching_arcs(diagram)
        if c.triviality == "nontrivial"
    ]


def minimal_subsystem_by_deletion(
    system: BypassSystem, direction: str, target: ChordDiagram
) -> BypassSystem:
    """A minimal subsystem by search: drop arcs one at a time, last first,
    while surgery along the rest still reaches the target, and sweep again
    until no single arc can be dropped.  fbs and bbs must land on the same
    arcs by their keep rule, with no trial surgery."""
    keep = list(system.arc_ids)
    if surgery_along_system(system, direction) != target:
        raise BrokenInvariant(f"{direction}wards surgery along the whole system misses its target")
    changed = True
    while changed:
        changed = False
        for aid in list(reversed(keep)):
            trial = [x for x in keep if x != aid]
            if surgery_along_system(system.subsystem(trial), direction) == target:
                keep = trial
                changed = True
    return system.subsystem(keep)


# Walked with the region on its left, each side of a pinwheel runs from
# its endpoint to the crossing (EC) or back (CE); the sense that obstructs
# surgery, by direction.
_PINWHEEL_TRAVERSAL = {"up": "EC", "down": "CE"}


def has_pinwheel_by_regions(system: BypassSystem, direction: str) -> bool:
    """A pinwheel of the given direction, read off the regions.

    A pinwheel's sides come from some subset of the arcs, and arcs
    outside that subset are free to cross its interior; so the pinwheel
    shows up as a region only after the other arcs are deleted, and every
    nonempty subset is tried.  arcs.has_pinwheel must agree: there a
    pinwheel is a subset whose surgery closes a loop.
    """
    if direction not in _PINWHEEL_TRAVERSAL:
        raise BadArgument(f"direction must be 'up' or 'down', not {direction!r}")
    want = _PINWHEEL_TRAVERSAL[direction]
    ids = system.arc_ids
    for mask in range(1, 1 << len(ids)):
        sub = system.subsystem([aid for bit, aid in enumerate(ids) if (mask >> bit) & 1])
        if any(_is_pinwheel(sub, orbit, want) for orbit in sub.regions()):
            return True
    return False


def _is_pinwheel(system: BypassSystem, orbit: list[int], want: str) -> bool:
    """Whether a region (BypassSystem.regions) is a pinwheel whose sides,
    the segments it lands on, all run in the sense want.

    A pinwheel meets no boundary point, takes each side arc once, and
    holds no end of a side arc's third site, which would meet it again.
    """
    m, darts = system.m, system.darts
    if min(orbit) < m:
        return False
    on, side_arcs = set(orbit), set()
    for x in orbit:
        aid, i = divmod((x - m) >> 1, 3)
        ends = darts[4 * aid : 4 * aid + 4]  # segment 0 leaves ends[:2], segment 1 ends[2:]
        if x not in ends:
            continue
        if aid in side_arcs or ("EC" if i == 1 else "CE") != want:
            return False
        side_arcs.add(aid)
        third = m + 2 * (3 * aid + (2 if x in ends[:2] else 0))
        if third in on or third + 1 in on:
            return False
    return True


def brute_force_category(bottom: ChordDiagram, top: ChordDiagram):
    """The bounded category by the arc route, as (objects, morphisms, hasse).

    The objects are the diagrams that upward surgeries along nontrivial
    arcs reach from the bottom while the stacking on the top stays tight,
    sorted by pairing; the morphisms are the pairs (a, b) with b found by
    a search from a; and a pair (a, b), as positions, is a cover when no
    third object lies between a and b.
    """
    moves: dict[ChordDiagram, list[ChordDiagram]] = {}
    stack = [bottom]
    while stack:
        d = stack.pop()
        if d not in moves:
            moves[d] = [u for u in up_moves_by_arcs(d) if stacking.m_geometric(u, top) == 1]
            stack += moves[d]
    objects = sorted(moves, key=lambda d: d.pairing)
    morphisms = set()
    for a in objects:
        above, stack = {a}, [a]
        while stack:
            for b in moves[stack.pop()]:
                if b not in above:
                    above.add(b)
                    stack.append(b)
        morphisms.update((a, b) for b in above)
    idx = {d: i for i, d in enumerate(objects)}
    hasse = sorted(
        (idx[a], idx[b])
        for a, b in morphisms
        if a != b
        and not any((a, c) in morphisms and (c, b) in morphisms for c in objects if c not in (a, b))
    )
    return tuple(objects), morphisms, hasse


def diagram_exists_in(diagram: ChordDiagram, bottom: ChordDiagram, top: ChordDiagram) -> bool:
    """Occurrence of the diagram inside the tight stacked cylinder: one of
    the diagrams that the search from the bottom reaches."""
    return diagram in stacking.bounded_category(bottom, top).index


def morphism_exists_nested(
    bottom: ChordDiagram, top: ChordDiagram, a: ChordDiagram, b: ChordDiagram
) -> bool:
    """The morphism criterion by nested search: some excavation from the
    bottom reaches a and continues to b."""
    if not diagram_exists_in(a, bottom, top):
        return False
    return diagram_exists_in(b, a, top) and diagram_exists_in(b, bottom, top)
