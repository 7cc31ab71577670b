"""Words over {-,+}, their orders, and Catalan/Narayana combinatorics.

A word of length n with n- minus signs and n+ plus signs indexes a basis
element of the GF(2) space of chord diagrams with n+1 chords and euler
class e = n+ - n-.  A word is stored as one int, its key 1 << n | mask:
bit n-1-p of the mask is 1 when letter p is '+', so on words of equal
length integer order of keys is lexicographic order with '-' before '+',
and the sentinel bit 1 << n keeps "-" and "--" apart.  A word also keeps
n and n+; n-, e and the grading (n-, n+) are read from those two counts,
and bits is a tuple derived from the key.
Other modules read sign positions and edit words through Word.positions,
Word.insert and Word.delete, and build a word from its letters as a mask
with from_mask; only this module reads the key.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import attrgetter

from .errors import BadArgument, GradingMismatch, IndexOutOfRange, LengthMismatch, NotComparable, NotMonotone, ParseError

MINUS = 0
PLUS = 1

_SYMBOLS = {"-": MINUS, "+": PLUS}
_CHARS = str.maketrans("01", "-+")  # a key's letter bits as the letters


class Word:
    """Immutable word over {-,+}: its key, its length and its plus count."""

    __slots__ = ("_key", "n", "n_plus")

    def __init__(self, bits=()):
        try:
            bits = tuple(bits)
        except TypeError:
            raise ParseError("word bits must be a sequence of 0 (-) and 1 (+)") from None
        n_plus = bits.count(PLUS)
        if bits.count(MINUS) + n_plus != len(bits):
            raise ParseError("word bits must be 0 (-) or 1 (+)")
        self._key: int = int("1" + "".join("01"[b] for b in bits), 2)
        self.n: int = len(bits)
        self.n_plus: int = n_plus

    @classmethod
    def _of(cls, key: int, n: int, n_plus: int) -> "Word":
        """The word with this key and these counts, built with no pass over it."""
        w = object.__new__(cls)
        w._key, w.n, w.n_plus = key, n, n_plus
        return w

    @classmethod
    def parse(cls, text: str) -> "Word":
        try:
            body = text.strip()
        except AttributeError:
            raise ParseError(f"a word must be a string, not {text!r}") from None
        try:
            return cls(_SYMBOLS[ch] for ch in body)
        except KeyError as exc:
            raise ParseError(f"bad word symbol {exc.args[0]!r}") from exc

    @property
    def bits(self) -> tuple[int, ...]:
        """The letters, left to right, as 0 (-) and 1 (+)."""
        return tuple(self._key >> k & 1 for k in range(self.n - 1, -1, -1))

    @property
    def n_minus(self) -> int:
        return self.n - self.n_plus

    @property
    def e(self) -> int:
        return 2 * self.n_plus - self.n

    @property
    def grading(self) -> tuple[int, int]:
        return (self.n - self.n_plus, self.n_plus)

    def positions(self, sign: int) -> list[int]:
        """0-based positions of the given sign, left to right."""
        n = self.n
        rest = self._key ^ ((2 << n) - 1 if sign == MINUS else 1 << n)  # no sentinel
        out = []
        while rest:
            k = rest.bit_length()
            out.append(n - k)
            rest ^= 1 << k - 1
        return out

    def insert(self, pos: int, sign: int) -> "Word":
        """The word with sign inserted before position pos (pos = n appends)."""
        if not 0 <= pos <= self.n:
            raise IndexOutOfRange(f"insert position {pos} outside 0..{self.n}")
        if sign not in (MINUS, PLUS):
            raise ParseError("word bits must be 0 (-) or 1 (+)")
        k = self.n - pos  # letters after the new one
        low = self._key & ((1 << k) - 1)
        return Word._of(((self._key >> k) << 1 | sign) << k | low, self.n + 1, self.n_plus + sign)

    def delete(self, pos: int) -> "Word":
        """The word with the letter at position pos removed."""
        if not 0 <= pos < self.n:
            raise IndexOutOfRange(f"delete position {pos} outside 0..{self.n - 1}")
        k = self.n - 1 - pos  # letters after the deleted one
        low = self._key & ((1 << k) - 1)
        return Word._of((self._key >> k + 1) << k | low, self.n - 1, self.n_plus - (self._key >> k & 1))

    def __str__(self) -> str:
        return bin(self._key)[3:].translate(_CHARS)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: "Word") -> bool:
        if self.n != other.n:
            raise LengthMismatch("lexicographic order needs equal lengths")
        return self._key < other._key

    def __le__(self, other: "Word") -> bool:
        return self == other or self < other


def from_mask(mask: int, n: int) -> Word:
    """The word of length n whose letters are the bits of mask, first
    letter highest: bit n-1-p is 1 when letter p is '+'."""
    if n < 0 or mask < 0 or mask >> n:
        raise BadArgument(f"mask {mask} has no {n}-letter word")
    w = object.__new__(Word)  # Word._of, inlined: phi builds two words a diagram
    w._key, w.n, w.n_plus = 1 << n | mask, n, mask.bit_count()
    return w


def word(text: str) -> Word:
    """Shorthand parser, e.g. word("-+-")."""
    return Word.parse(text)


def _check_same_grading(w1: Word, w2: Word) -> None:
    if w1.n != w2.n or w1.n_plus != w2.n_plus:
        raise GradingMismatch(f"{w1} and {w2} have different (n-, n+)")


def partial_leq(w1: Word, w2: Word) -> bool:
    """w1 <= w2 in the minus-signs-move-right partial order: no prefix of w2
    has fewer plus signs than that of w1.  Over the letters where the words
    differ, left to right, lead counts w2's extra plus signs so far."""
    _check_same_grading(w1, w2)
    k2 = w2._key
    diff = w1._key ^ k2
    lead = 0
    while diff:
        top = 1 << diff.bit_length() - 1
        if k2 & top:
            lead += 1
        elif lead:
            lead -= 1
        else:
            return False
        diff ^= top
    return True


def lex_compare(w1: Word, w2: Word) -> int:
    """-1, 0 or 1 as w1 is lexicographically before, equal to or after w2."""
    if w1.n != w2.n:
        raise LengthMismatch("lexicographic order needs equal lengths")
    return (w1._key > w2._key) - (w1._key < w2._key)


def lex_sorted(words) -> list[Word]:
    """Words of one length in lexicographic order."""
    return sorted(words, key=attrgetter("_key"))


def all_words(n_minus: int, n_plus: int) -> list[Word]:
    """All words in W(n-, n+), in lexicographic order."""
    if n_minus < 0 or n_plus < 0:
        raise BadArgument("negative sign counts")
    n = n_minus + n_plus
    keys = sorted(1 << n | sum(1 << k for k in plus) for plus in itertools.combinations(range(n), n_plus))
    return [Word._of(key, n, n_plus) for key in keys]


def catalan(n: int) -> int:
    """Number of chord diagrams with n chords (C_0 = C_1 = 1, C_2 = 2, ...)."""
    if n < 0:
        return 0
    return comb(2 * n, n) // (n + 1)


def narayana(n_chords: int, e: int) -> int:
    """Number of chord diagrams with given chord count and euler class.

    Returns 0 for impossible (n_chords, e) rather than raising, so the
    values can be summed freely.
    """
    if n_chords < 1:
        return 1 if (n_chords, e) == (0, 0) else 0
    n = n_chords - 1
    if abs(e) > n or (e + n) % 2 != 0:
        return 0
    k = (e + n) // 2
    return comb(n + 1, k + 1) * comb(n + 1, k) // (n + 1)


def _minus_moves_right(p: tuple[int, ...], upper: tuple[int, ...]):
    """Every increasing tuple q with p[i] <= q[i] <= upper[i], in lex order.

    With p and upper the minus positions of words w0 <= w1, these are the
    minus positions of the words in [w0, w1]: each minus sign moves right,
    but not past its place in w1.
    """
    k = len(p)
    q = list(p)
    while True:
        yield tuple(q)
        i = k - 1
        while i >= 0 and q[i] == upper[i]:
            i -= 1
        if i < 0:
            return
        q[i] += 1
        for j in range(i + 1, k):
            q[j] = max(p[j], q[j - 1] + 1)


def comparable_pairs(n_minus: int, n_plus: int) -> list[tuple[Word, Word]]:
    """All pairs (w0, w1) with w0 <= w1, in lexicographic order of pairs.

    For each w0 the up-set {w1 >= w0} is generated directly by moving the
    minus signs of w0 right, so the cost is proportional to the number of
    pairs (Narayana-many) rather than to |W(n-, n+)|^2.  Within a grading,
    lexicographic order of words is lexicographic order of their minus
    positions, so walking both in order needs no sort.
    """
    by_minus = {tuple(w.positions(MINUS)): w for w in all_words(n_minus, n_plus)}
    end = tuple(range(n_plus, n_minus + n_plus))
    return [
        (w0, by_minus[q])
        for p, w0 in by_minus.items()
        for q in _minus_moves_right(p, end)
    ]


def pair_to_monotone(w0: Word, w1: Word) -> tuple[int, ...]:
    """Encode a comparable pair as a monotone staircase on {1..n+1}.

    Prepend '+' to both words; f(i) is the position (1-based) in the
    padded w1 of the j-th plus sign, where j counts plus signs of the
    padded w0 up to position i.  The result is monotone, satisfies
    f(i) <= i and takes n+ + 1 distinct values.
    """
    if not partial_leq(w0, w1):
        raise NotComparable(f"{w0} is not below {w1}")
    plus_pos_1 = [1] + [p + 2 for p in w1.positions(PLUS)]
    f, j = [1], 0
    for b in w0.bits:
        j += b
        f.append(plus_pos_1[j])
    return tuple(f)


def monotone_to_pair(f: tuple[int, ...]) -> tuple[Word, Word]:
    """Inverse of pair_to_monotone.  Past the padding plus, w0 has a plus at
    each rise of f and w1 at each value of f, so each has one plus fewer
    than f has values."""
    n1 = len(f)
    if n1 < 1:
        raise NotMonotone("empty function")
    prev = 0
    for i, v in enumerate(f, start=1):
        if v < prev or v > i or v < 1:
            raise NotMonotone(f"f is not a staircase at position {i}")
        prev = v
    if f[0] != 1:
        raise NotMonotone("f(1) must be 1")
    values = set(f)
    key0 = key1 = 1  # the sentinel bits
    for i in range(1, n1):
        key0 = key0 << 1 | (f[i] > f[i - 1])
        key1 = key1 << 1 | (i + 1 in values)
    n_plus = len(values) - 1
    return Word._of(key0, n1 - 1, n_plus), Word._of(key1, n1 - 1, n_plus)


def interval(w0: Word, w1: Word) -> frozenset[Word]:
    """The members of the poset interval [w0, w1], built from the minus
    positions that lie between those of w0 and those of w1."""
    if not partial_leq(w0, w1):
        raise NotComparable(f"{w0} is not below {w1}")
    n, n_plus = w0.n, w0.n_plus
    all_plus = (2 << n) - 1  # the sentinel and n plus signs
    return frozenset(
        Word._of(all_plus ^ sum(1 << n - 1 - p for p in q), n, n_plus)
        for q in _minus_moves_right(tuple(w0.positions(MINUS)), tuple(w1.positions(MINUS)))
    )
