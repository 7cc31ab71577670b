"""The one-pass diagram parser and validator against the item-by-item
parser and the two-pass validator they replace, kept here as oracles:
on every input both give the same pairing, or raise the same class with
the same message.  The only differences are the bad inputs the old route
let through as built-in exceptions or as labels that are not ints, which
are listed and now raise BadPartition (ParseError for bytes given to
parse)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sutura import diagram as D
from sutura.errors import BadPartition, CrossingChords, ParseError


# -- the replaced route -------------------------------------------------------


def validate_in_two_passes(pairing):
    m = len(pairing)
    if m == 0 or m % 2:
        raise BadPartition("need an even, positive number of points")
    for i, p in enumerate(pairing):
        if not (0 <= p < m) or p == i or pairing[p] != i:
            raise BadPartition("pairing is not a fixed-point-free involution")
    stack = []
    for i, p in enumerate(pairing):
        if p > i:
            stack.append(p)
        elif stack.pop() != i:
            raise CrossingChords("two chords cross")


def from_pairing_by_sort(pairs):
    pairs = [tuple(p) for p in pairs]
    points = [x for p in pairs for x in p]
    m = len(points)
    if sorted(points) != list(range(m)):
        raise BadPartition(f"pairs must partition 0..{m - 1}")
    pairing = [0] * m
    for a, b in pairs:
        pairing[a] = b
        pairing[b] = a
    validate_in_two_passes(pairing)
    return D.ChordDiagram._of(tuple(pairing))


def parse_by_items(text):
    pairs = []
    try:
        for item in text.strip().split(","):
            a, b = item.split("-")
            pairs.append((int(a), int(b)))
    except (ValueError, AttributeError) as exc:
        raise ParseError(f"bad diagram string {text!r}") from exc
    try:
        return from_pairing_by_sort(pairs)
    except BadPartition as exc:
        raise ParseError(str(exc)) from exc


def outcome(fn, arg):
    """("built", the pairing fn builds from arg), or ("raised", the class
    and the message of what it raises)."""
    try:
        return "built", fn(arg).pairing
    except Exception as exc:  # the old route leaks built-in exceptions
        return "raised", type(exc), str(exc)


def validation(fn, pairing):
    """outcome() of a validator, which returns None: the pairing when fn
    accepts it."""
    return outcome(lambda p: fn(p) or D.ChordDiagram._of(tuple(p)), pairing)


def same_parse(text):
    assert outcome(D.parse, text) == outcome(parse_by_items, text), text


# -- diagram strings ----------------------------------------------------------

SMALL = [d for n in range(1, 8) for d in D.enumerate_diagrams(n)]


def test_every_small_diagram_string_parses_as_before():
    for d in SMALL:
        text = D.serialize(d)
        assert D.parse(text) == d
        same_parse(text)


WHITESPACE = st.sampled_from(["", " ", "  ", "\t", "\n", "　"])


@st.composite
def rewritten_diagram_strings(draw):
    """A diagram with N <= 7 written with its chords in any order, either
    end first, and whitespace around labels and items."""
    d = draw(st.sampled_from(SMALL))
    chords = draw(st.permutations(d.chords()))
    items = []
    for a, b in chords:
        if draw(st.booleans()):
            a, b = b, a
        items.append(
            "".join(draw(WHITESPACE) for _ in range(2)).join(("", str(a), ""))
            + "-"
            + "".join(draw(WHITESPACE) for _ in range(2)).join(("", str(b), ""))
        )
    return draw(WHITESPACE) + ",".join(items) + draw(WHITESPACE)


@settings(max_examples=200, deadline=None)
@given(rewritten_diagram_strings())
def test_rewritten_diagram_strings_parse_as_before(text):
    same_parse(text)


MALFORMED = [
    "", " ", ",", "-", "0-1-2,3", "0-1-2,3-4-5", "0-1-2-3", "0-1,", ",0-1", "0-1,,2-3", "0--1", "0-1-",
    "1_0-2", "0_1-1", "+0-1", "0-+1", "０-１", "0-１", "٠-١", "0-1,2", "0,1",
    "0-3,1-2,2-1", "0-5,1-4", "0-2,1-3", "0-0", "1-1,0-0", "-1-0", "0-99999999999999999999",
    "0-1\n,2-3", "0 - 1", "zebra", "a-b", "0-1;2-3", "0-1 2-3",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_strings_fail_as_before(text):
    same_parse(text)


def test_non_strings_fail_as_before():
    for value in (None, 3, ["0-1"]):
        same_parse(value)


ALPHABET = "0123456789-,-,- _+\t１٣"


@settings(max_examples=300, deadline=None)
@given(st.text(ALPHABET, max_size=20))
def test_random_strings_parse_as_before(text):
    same_parse(text)


EDITS = st.lists(st.tuples(st.integers(0, 60), st.sampled_from(ALPHABET + "x")), max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL), EDITS, st.integers(0, 2))
def test_mutated_diagram_strings_parse_as_before(d, edits, kind):
    # replace, insert or delete characters of a well-formed string
    text = list(D.serialize(d))
    for pos, ch in edits:
        pos %= len(text) + 1
        if kind == 0 and pos < len(text):
            text[pos] = ch
        elif kind == 1:
            text.insert(pos, ch)
        elif text and pos < len(text):
            del text[pos]
    same_parse("".join(text))


# -- pair lists and raw pairings ----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 12), st.integers(-2, 12)), max_size=6))
def test_int_pair_lists_build_as_before(pairs):
    assert outcome(D.from_pairing, pairs) == outcome(from_pairing_by_sort, pairs)


def test_shuffled_pair_lists_build_as_before():
    rng = random.Random(0)
    for d in SMALL:
        pairs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in d.chords()]
        rng.shuffle(pairs)
        assert D.from_pairing(pairs) == d == from_pairing_by_sort(pairs)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(-2, 11), max_size=10))
def test_raw_pairings_validate_as_before(pairing):
    pairing = tuple(pairing)
    assert validation(D._validate, pairing) == validation(validate_in_two_passes, pairing)


@st.composite
def involutions(draw):
    """A fixed-point-free involution on up to 12 points, crossing or not."""
    points = draw(st.permutations(range(2 * draw(st.integers(1, 6)))))
    pairing = [0] * len(points)
    for a, b in zip(points[::2], points[1::2]):
        pairing[a], pairing[b] = b, a
    return tuple(pairing)


@settings(max_examples=300, deadline=None)
@given(involutions())
def test_involutions_validate_as_before(pairing):
    assert validation(D._validate, pairing) == validation(validate_in_two_passes, pairing)


# -- the inputs the old route let through -------------------------------------

# from_pairing: a pair of four labels or of one (ValueError from unpacking),
# a float label (TypeError), bool labels (accepted, printing as "0-True"),
# an int where a pair belongs (TypeError); ChordDiagram: float and bool
# entries (TypeError, or accepted) and a pairing that is not a sequence
# (TypeError from tuple()); parse: bytes, split with a str (TypeError)
LEAKED_PAIRS = [[(0, 1, 2, 3)], [(0,), (1,)], [(0, 1.0)], [(True, False)], [0, 1], [(0, 1), (2, 3.0)]]
LEAKED_PAIRINGS = [(1.0, 0), (1, 0.0), (True, False), (3, 2, True, 0), 5, None]
LEAKED_TEXTS = [b"0-1", b"0-3,1-2"]


@pytest.mark.parametrize("pairs", LEAKED_PAIRS)
def test_bad_pair_lists_raise_bad_partition(pairs):
    with pytest.raises(BadPartition):
        D.from_pairing(pairs)


@pytest.mark.parametrize("pairing", LEAKED_PAIRINGS)
def test_non_int_pairings_raise_bad_partition(pairing):
    with pytest.raises(BadPartition):
        D.ChordDiagram(pairing)


@pytest.mark.parametrize("text", LEAKED_TEXTS)
def test_bytes_raise_parse_error(text):
    with pytest.raises(ParseError):
        D.parse(text)


def test_the_listed_inputs_are_the_old_route_s_leaks():
    # each listed input got past the old route as a built-in exception or
    # as a diagram: the list names real differences, not new ones
    for pairs in LEAKED_PAIRS:
        result = outcome(from_pairing_by_sort, pairs)
        assert result[0] == "built" or not issubclass(result[1], BadPartition), pairs
    for pairing in LEAKED_PAIRINGS:
        result = validation(validate_in_two_passes, pairing)
        assert result[0] == "built" or not issubclass(result[1], BadPartition), pairing
    for text in LEAKED_TEXTS:
        result = outcome(parse_by_items, text)
        assert result[0] == "raised" and not issubclass(result[1], ParseError), text
