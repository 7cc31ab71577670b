"""Face and degeneracy operators on the word basis, and the double complex.

The westside operators delete/insert minus signs at numbered slots and
satisfy the simplicial identities; summing the face maps gives a
boundary operator whose chain complexes (fixed number of plus signs)
are exact, witnessed both by an explicit chain homotopy and by GF(2)
rank computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import sfh
from .errors import GradingMismatch
from .words import Word, all_words


@dataclass(frozen=True)
class ChainSlot:
    """One graded piece of a diagonal chain complex."""

    n_minus: int
    n_plus: int

    @property
    def dimension(self) -> int:
        n = self.n_minus + self.n_plus
        return comb(n, self.n_plus)

    def basis(self) -> list[Word]:
        return all_words(self.n_minus, self.n_plus)


def _grading_of(x: sfh.SfhElement) -> tuple[int, int]:
    g = x.grading()
    if g is None:
        raise GradingMismatch("operator needs a homogeneous element")
    return g


def _slot_map(rule, side: str, i: int, x: sfh.SfhElement) -> sfh.SfhElement:
    """A slot word rule at one side's slot i, on a homogeneous element; the
    rule rejects a slot outside 0..n- (west) or 0..n+ (east)."""
    sign = sfh.side_sign(side)
    if x.is_zero():
        return x
    _grading_of(x)  # rejects an element of mixed grading
    return sfh.SfhElement._sum(rule(w, sign, i) for w in x.words)


def face(i: int, side: str, x: sfh.SfhElement) -> sfh.SfhElement:
    """Face map d_i: westside deletes the slot-i minus, eastside the plus."""
    return _slot_map(sfh.annihilation_word, side, i, x)


def degeneracy(j: int, side: str, x: sfh.SfhElement) -> sfh.SfhElement:
    """Degeneracy map s_j: westside doubles the slot-j minus, eastside the plus."""
    return _slot_map(sfh.creation_word, side, j, x)


def boundary(side: str, x: sfh.SfhElement) -> sfh.SfhElement:
    """Mod-2 sum of all face maps on a homogeneous element: one deletion per
    sign of the side's kind, plus the last face, which repeats (and so
    cancels) the final deletion when the word ends in that sign."""
    sign = sfh.side_sign(side)
    if x.is_zero():
        return x
    _grading_of(x)
    images = []
    for w in x.words:
        positions = w.positions(sign)
        if positions and positions[-1] == w.n - 1:
            positions.pop()
        images += [frozenset((w.delete(p),)) for p in positions]
    return sfh.SfhElement._sum(images)


def boundary_closed_form(side: str, w: Word) -> sfh.SfhElement:
    """The boundary of a basis word from the block-coefficient formula.

    Deleting one sign anywhere inside a block gives the same word, so
    each block contributes with coefficient its length, plus one more
    when it is the final symbol run of the word (mod 2 throughout).
    This is "partial differentiation" by the deleted sign, with the
    extra final-run term.
    """
    positions = w.positions(sfh.side_sign(side))
    runs: list[list[int]] = []  # [start, length] of each maximal run of the sign
    for p in positions:
        if runs and runs[-1][0] + runs[-1][1] == p:
            runs[-1][1] += 1
        else:
            runs.append([p, 1])
    ends_in_kind = bool(positions) and positions[-1] == w.n - 1
    return sfh.SfhElement.sum(
        frozenset((w.delete(start),))
        for r, (start, length) in enumerate(runs)
        if (length + (ends_in_kind and r == len(runs) - 1)) % 2
    )


def verify_double_complex(n_max: int) -> dict:
    """Check both squared boundaries vanish and the two boundaries commute."""
    checks = []
    failures = []
    for n in range(0, n_max + 1):
        for nm in range(n + 1):
            ok = True
            for w in all_words(nm, n - nm):
                x = sfh.SfhElement.basis(w)
                if not boundary("west", boundary("west", x)).is_zero():
                    ok = False
                if not boundary("east", boundary("east", x)).is_zero():
                    ok = False
                if boundary("west", boundary("east", x)) != boundary("east", boundary("west", x)):
                    ok = False
                if boundary("west", x) != boundary_closed_form("west", w):
                    ok = False
                if boundary("east", x) != boundary_closed_form("east", w):
                    ok = False
            checks.append({"name": "double_complex", "grading": [nm, n - nm], "pass": ok})
            if not ok:
                failures.append([nm, n - nm])
    return {"checks": checks, "failures": failures}


def boundary_matrix(side: str, slot: ChainSlot) -> list[int]:
    """Columns-as-bitsets matrix of the boundary map out of the slot."""
    source = slot.basis()
    if side == "west":
        target = ChainSlot(slot.n_minus - 1, slot.n_plus).basis() if slot.n_minus else []
    else:
        target = ChainSlot(slot.n_minus, slot.n_plus - 1).basis() if slot.n_plus else []
    index = {w: i for i, w in enumerate(target)}
    cols = []
    for w in source:
        img = boundary(side, sfh.SfhElement.basis(w))
        bits = 0
        for v in img.words:
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


def verify_homology_trivial(n_max: int, rank_n_max: int) -> dict:
    """Exactness of the diagonals: chain homotopy plus independent ranks."""
    checks = []
    failures = []
    # Chain homotopy B- d+ + d+ B- = 1 on every nonempty word (westside),
    # mirror east.  The empty word is the one genuine exception: d+ kills
    # both it and its image under B- (two cancelling faces), so the
    # n+ = 0 diagonal is exact only above its bottom slot.
    for n in range(1, n_max + 1):
        for nm in range(n + 1):
            ok = True
            for w in all_words(nm, n - nm):
                x = sfh.SfhElement.basis(w)
                bm = sfh.apply_operator(sfh.B_MINUS, x)
                lhs = boundary("west", bm) + sfh.apply_operator(
                    sfh.B_MINUS, boundary("west", x)
                )
                if lhs != x:
                    ok = False
                bp = sfh.apply_operator(sfh.B_PLUS, x)
                lhs_e = boundary("east", bp) + sfh.apply_operator(
                    sfh.B_PLUS, boundary("east", x)
                )
                if lhs_e != x:
                    ok = False
            checks.append({"name": "chain_homotopy", "grading": [nm, n - nm], "pass": ok})
            if not ok:
                failures.append(["chain_homotopy", nm, n - nm])
    # independent GF(2) rank exactness at interior slots; the vacuum slot
    # of the n+ = 0 diagonal carries the lone homology class and is skipped
    for n_plus in range(0, rank_n_max + 1):
        max_minus = rank_n_max - n_plus
        ranks = {}
        for nm in range(0, max_minus + 1):
            ranks[nm] = gf2_rank(boundary_matrix("west", ChainSlot(nm, n_plus)))
        for nm in range(0, max_minus):
            if n_plus == 0 and nm == 0:
                continue
            dim = ChainSlot(nm, n_plus).dimension
            ok = ranks[nm] + ranks[nm + 1] == dim
            checks.append({"name": "rank_exactness", "grading": [nm, n_plus], "pass": ok})
            if not ok:
                failures.append(["rank_exactness", nm, n_plus])
    return {"checks": checks, "failures": failures}
