"""Exception types shared across the package."""


class UnsupportedCardinalityError(ValueError):
    """Raised for chord cardinalities outside {3, 4, 6}."""


class NotAMemberError(ValueError):
    """Raised when a pitch-class set belongs to no chord of the genus."""


class GenusMismatchError(ValueError):
    """Raised when chords or transformations of different genera are mixed."""


class ForeignTokenError(GenusMismatchError):
    """Raised for a transformation token that belongs to another genus: the
    one genus mismatch that input text can cause."""


class ChordParseError(ValueError):
    """Raised for text that does not match the chord grammar."""


class TokenParseError(ValueError):
    """Raised for text that names no known transformation."""


class CycleLengthError(ValueError):
    """Raised for a cycle-length window outside 4 <= min <= max <= region size."""


class InvariantViolationError(RuntimeError):
    """An internal uniqueness guarantee failed; a bug, not bad input."""
