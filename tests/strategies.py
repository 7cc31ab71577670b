"""Hypothesis strategies and word gradings shared by the test modules."""

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
