"""Hypothesis strategies, word gradings and diagram shapes shared by the
test modules."""

from hypothesis import strategies as st

from sutura import diagram as D


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
