"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports sutura.  Diagrams are pairings: tuples p with
p[p[i]] == i on the points 0..2N-1 (clockwise, base point 0).  Words are
strings over "-" and "+"; the lexicographic order puts "-" first.
"""

from __future__ import annotations

from math import comb


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def narayana(n_chords: int, e: int) -> int:
    """Diagrams with n_chords chords and euler class e: N(n, k), k = (n+1+e)/2."""
    if (n_chords + 1 + e) % 2 or abs(e) > n_chords - 1:
        return 0
    k = (n_chords + 1 + e) // 2
    return comb(n_chords, k) * comb(n_chords, k - 1) // n_chords


def basis_count(n_chords: int, e: int) -> int:
    """Basis diagrams at euler class e: words of N-1 letters with n- minus signs."""
    n_minus = (n_chords - 1 - e) // 2
    return comb(n_chords - 1, n_minus)


# -- words ---------------------------------------------------------------------


def minus_positions(w: str) -> tuple[int, ...]:
    return tuple(i for i, ch in enumerate(w) if ch == "-")


def leq(w0: str, w1: str) -> bool:
    """w0 <= w1 when each minus sign of w0 moves right (or stays) to give w1."""
    p0, p1 = minus_positions(w0), minus_positions(w1)
    return len(w0) == len(w1) and len(p0) == len(p1) and all(
        a <= b for a, b in zip(p0, p1)
    )


def interval_size(w0: str, w1: str) -> int:
    """Number of words w with w0 <= w <= w1, by a count over minus positions."""
    if not leq(w0, w1):
        return 0
    lo, hi = minus_positions(w0), minus_positions(w1)
    # ways[q]: increasing choices for the minus signs so far, the last at q
    ways = {q: 1 for q in range(lo[0], hi[0] + 1)} if lo else {-1: 1}
    for i in range(1, len(lo)):
        nxt = {}
        for q in range(lo[i], hi[i] + 1):
            nxt[q] = sum(c for prev, c in ways.items() if prev < q)
        ways = nxt
    return sum(ways.values())


def lex_key(w: str) -> tuple[int, ...]:
    return tuple(0 if ch == "-" else 1 for ch in w)


# -- diagrams --------------------------------------------------------------------


def pairing_from_pairs(pairs) -> tuple[int, ...]:
    out = [-1] * (2 * len(pairs))
    for a, b in pairs:
        out[a], out[b] = b, a
    return tuple(out)


def is_noncrossing_matching(pairing) -> bool:
    m = len(pairing)
    if m == 0 or m % 2 or sorted(pairing) != list(range(m)):
        return False
    if any(pairing[p] != i or p == i for i, p in enumerate(pairing)):
        return False
    stack = []
    for i, p in enumerate(pairing):
        if p > i:
            stack.append(p)
        elif not stack or stack.pop() != i:
            return False
    return True


def to_text(pairing) -> str:
    return ",".join(f"{i}-{p}" for i, p in enumerate(pairing) if i < p)


def from_text(text: str) -> tuple[int, ...]:
    return pairing_from_pairs([tuple(int(x) for x in c.split("-")) for c in text.split(",")])


def uniform_matching(n: int, rng) -> tuple[int, ...]:
    """A uniformly random non-crossing matching with n chords.

    Shuffle n openings and n+1 closings; by the cycle lemma exactly one
    rotation keeps every proper prefix sum >= 0, and dropping its last
    closing leaves a uniform Dyck word, read as a bracket matching.
    """
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    s, low, start = 0, 0, 0
    for i, x in enumerate(steps):
        s += x
        if s < low:
            low, start = s, i + 1
    dyck = (steps[start:] + steps[:start])[:-1]
    pairing = [0] * (2 * n)
    opened = []
    for i, x in enumerate(dyck):
        if x == 1:
            opened.append(i)
        else:
            j = opened.pop()
            pairing[i], pairing[j] = j, i
    return tuple(pairing)


def all_matchings(n: int) -> list[tuple[int, ...]]:
    """Every non-crossing matching with n chords, by the first point's partner."""
    def gen(points):
        if not points:
            yield []
            return
        for j in range(1, len(points), 2):
            for inside in gen(points[1:j]):
                for outside in gen(points[j + 1:]):
                    yield [(points[0], points[j])] + inside + outside

    return [pairing_from_pairs(pairs) for pairs in gen(tuple(range(2 * n)))]


def euler_class(pairing) -> int:
    """Sum of region signs.

    Boundary arc k runs from point k to k+1 and is positive when k is
    even; the arc after k in the same region starts at the partner of
    k+1, so regions are the cycles of k -> pairing[k+1].
    """
    m = len(pairing)
    seen = [False] * m
    e = 0
    for k in range(m):
        if seen[k]:
            continue
        e += 1 if k % 2 == 0 else -1
        while not seen[k]:
            seen[k] = True
            k = pairing[(k + 1) % m]
    return e


def stacked_loops(bottom, top) -> int:
    """Loops of the suture graph: bottom chords, top chords, and the
    connectors joining bottom point k to top point k-1, by union-find."""
    m = len(bottom)
    parent = list(range(2 * m))  # bottom point k is k, top point k is m + k

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for k in range(m):
        union(k, bottom[k])
        union(m + k, m + top[k])
        union(k, m + (k - 1) % m)
    return len({find(x) for x in range(2 * m)})


def basis_pairing(w: str) -> tuple[int, ...]:
    """The base point construction: each letter draws a chord from a moving
    base point to the next unused point, anticlockwise for '-' and
    clockwise for '+'; the last two unused points close the diagram."""
    m = 2 * (len(w) + 1)
    pairing = [-1] * m

    def next_unused(p, step):
        p = (p + step) % m
        while pairing[p] != -1:
            p = (p + step) % m
        return p

    base = 0
    for ch in w:
        step = -1 if ch == "-" else 1
        mate = next_unused(base, step)
        pairing[base], pairing[mate] = mate, base
        base = next_unused(mate, step)
    a, b = [p for p in range(m) if pairing[p] == -1]
    pairing[a], pairing[b] = b, a
    return tuple(pairing)


class Decomposer:
    """Basis decomposition over GF(2) by the bypass relation at the base point.

    A chord (0, 1) contributes a leading '+', a chord (2N-1, 0) a leading
    '-'; otherwise the three chords at points 2N-1, 0, 1 are re-matched
    both ways and the two results are added.  Words are kept as a set
    with symmetric difference as addition.
    """

    def __init__(self):
        self._memo: dict[tuple[int, ...], frozenset[str]] = {(1, 0): frozenset([""])}

    def words(self, pairing) -> frozenset[str]:
        pairing = tuple(pairing)
        todo = [pairing]
        while todo:
            p = todo[-1]
            if p in self._memo:
                todo.pop()
                continue
            parts = self._parts(p)
            missing = [q for q, _ in parts if q not in self._memo]
            if missing:
                todo.extend(missing)
                continue
            acc: set[str] = set()
            for q, prefix in parts:
                acc ^= {prefix + w for w in self._memo[q]}
            self._memo[p] = frozenset(acc)
            todo.pop()
        return self._memo[pairing]

    @staticmethod
    def _parts(p):
        m = len(p)
        if p[0] == 1:  # drop chord (0, 1); labels shift down by 2
            return [(tuple(x - 2 for x in p[2:]), "+")]
        if p[0] == m - 1:  # drop chord (2N-1, 0); point 2N-2 becomes the base
            relabel = list(range(m - 2)) + [None, None]
            relabel[m - 2] = 0
            out = [0] * (m - 2)
            for old in range(1, m - 1):
                out[relabel[old]] = relabel[p[old]]
            return [(tuple(out), "-")]
        lo, hi = m - 1, 1
        a, b, c = p[lo], p[0], p[hi]

        def rewire(pairs):
            out = list(p)
            for x, y in pairs:
                out[x], out[y] = y, x
            return tuple(out)

        return [
            (rewire([(lo, 0), (hi, a), (b, c)]), ""),
            (rewire([(0, hi), (lo, c), (a, b)]), ""),
        ]
