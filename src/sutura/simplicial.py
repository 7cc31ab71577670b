"""The boundary maps of the double complex on the word basis, and its exactness.

A side's face map d_i and degeneracy s_j are sfh's annihilation and
creation operators at slot i and j (westside on minus signs, eastside on
plus signs), and they satisfy the simplicial identities.  Summing a
side's face maps gives its boundary.  The two boundaries square to zero
and commute, and the chain complexes of one side's boundary (a fixed
number of the other sign) are exact, witnessed both by an explicit
chain homotopy and by GF(2) rank computations.
"""

from __future__ import annotations

from math import comb

from . import sfh
from .errors import GradingMismatch
from .words import all_words


def boundary(side: str, x: sfh.SfhElement) -> sfh.SfhElement:
    """Mod-2 sum of all face maps on a homogeneous element: one deletion per
    sign of the side's kind, plus the last face, which repeats (and so
    cancels) the final deletion when the word ends in that sign."""
    sign = sfh.side_sign(side)
    if x.is_zero():
        return x
    if x.grading() is None:
        raise GradingMismatch("the boundary needs a homogeneous element")
    images = []
    for w in x.words:
        positions = w.positions(sign)
        if positions and positions[-1] == w.n - 1:
            positions.pop()
        images += [frozenset((w.delete(p),)) for p in positions]
    return sfh.SfhElement._sum(images)


def verify_double_complex(n_max: int) -> list[str]:
    """The gradings up to length n_max where a squared boundary is nonzero
    or the two boundaries do not commute."""
    problems = []
    for n in range(0, n_max + 1):
        for nm in range(n + 1):
            for w in all_words(nm, n - nm):
                x = sfh.SfhElement.basis(w)
                west, east = boundary("west", x), boundary("east", x)
                if boundary("west", west) or boundary("east", east) or (
                    boundary("west", east) != boundary("east", west)
                ):
                    problems.append(f"double complex at ({nm}, {n - nm})")
                    break
    return problems


def boundary_matrix(n_minus: int, n_plus: int) -> list[int]:
    """Columns-as-bitsets matrix of the westside boundary out of (n-, n+)."""
    target = all_words(n_minus - 1, n_plus) if n_minus else []
    index = {w: i for i, w in enumerate(target)}
    cols = []
    for w in all_words(n_minus, n_plus):
        bits = 0
        for v in boundary("west", sfh.SfhElement.basis(w)).words:
            bits |= 1 << index[v]
        cols.append(bits)
    return cols


def gf2_rank(rows: list[int]) -> int:
    """Rank of a bitset matrix over GF(2) by Gaussian elimination."""
    rank = 0
    basis: list[int] = []
    for row in rows:
        cur = row
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
            basis.sort(reverse=True)
            rank += 1
    return rank


def verify_homology_trivial(n_max: int, rank_n_max: int) -> list[str]:
    """Exactness of the diagonals: chain homotopy plus independent ranks."""
    problems = []
    # Chain homotopy B- d+ + d+ B- = 1 on every nonempty word (westside),
    # mirror east.  The empty word is the one genuine exception: d+ kills
    # both it and its image under B- (two cancelling faces), so the
    # n+ = 0 diagonal is exact only above its bottom slot.
    for n in range(1, n_max + 1):
        for nm in range(n + 1):
            for w in all_words(nm, n - nm):
                x = sfh.SfhElement.basis(w)
                if any(
                    boundary(side, op(x)) + op(boundary(side, x)) != x
                    for side, op in (("west", sfh.B_MINUS), ("east", sfh.B_PLUS))
                ):
                    problems.append(f"chain homotopy at ({nm}, {n - nm})")
                    break
    # independent GF(2) rank exactness at interior slots; the vacuum slot
    # of the n+ = 0 diagonal carries the lone homology class and is skipped
    for n_plus in range(0, rank_n_max + 1):
        max_minus = rank_n_max - n_plus
        ranks = [gf2_rank(boundary_matrix(nm, n_plus)) for nm in range(max_minus + 1)]
        for nm in range(0, max_minus):
            if (n_plus, nm) != (0, 0) and ranks[nm] + ranks[nm + 1] != comb(nm + n_plus, n_plus):
                problems.append(f"rank exactness at ({nm}, {n_plus})")
    return problems
