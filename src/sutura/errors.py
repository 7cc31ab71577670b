"""Exception types raised by the sutura package."""


class SuturaError(Exception):
    """Base class for all domain errors."""


class BadPartition(SuturaError):
    """Pair list does not partition the point set 0..2N-1."""


class CrossingChords(SuturaError):
    """Pairing contains two crossing chords."""


class BadArgument(SuturaError):
    """An argument outside the values an operation accepts (chord count, level, side)."""


class ParseError(SuturaError):
    """Malformed diagram or word string."""


class OddStep(SuturaError):
    """Diagram rotation by an odd number of points."""



class LengthMismatch(SuturaError):
    """Words of different lengths compared lexicographically."""


class GradingMismatch(SuturaError):
    """Operands live in different (n-, n+) gradings."""


class NotComparable(SuturaError):
    """The two words are not related by the partial order."""


class NotMonotone(SuturaError):
    """Function is not a monotone staircase with f(i) <= i."""


class MoveUndefined(SuturaError):
    """The requested elementary move does not exist on this word."""


class ArcNotDefined(SuturaError):
    """The requested generalised attaching arc does not exist."""


class NotNicelyOrdered(SuturaError):
    """Arc indices violate the nicely-ordered inequalities."""


class TrivialArc(SuturaError):
    """Operation requires a nontrivial attaching arc."""


class ArcNotOnDiagram(SuturaError):
    """Attaching arc does not belong to the given diagram."""


class SizeMismatch(SuturaError):
    """Stacking diagrams with different chord counts."""


class NoCommonOutermost(SuturaError):
    """No shared outermost chord to cancel (or diagrams are at the floor N=1)."""


class NotTight(SuturaError):
    """Operation requires a tight cobordism (m = 1)."""


class ZeroElement(SuturaError):
    """Operation undefined on the zero element."""


class IndexOutOfRange(SuturaError):
    """Simplicial operator index, operator slot or word position out of range."""


class CapExceeded(SuturaError):
    """Requested size exceeds the configured CLI cap."""


class NotPlanar(SuturaError):
    """A realised configuration of arcs is not planar."""


class BrokenInvariant(SuturaError):
    """A result the theory guarantees did not come out; the answer would be wrong."""


class TooDeep(SuturaError):
    """A diagram's decomposition cannot be built: counting its paths nests
    past the interpreter's stack, or it has more words than a set can hold."""
