"""Exception types shared across the package."""


class FFHarmError(Exception):
    """Base class for all ffharm errors."""


class ZeroInverse(FFHarmError):
    """Multiplicative inverse requested for the zero residue."""


class ZeroParameter(FFHarmError):
    """A sum parameter that must be nonzero was zero."""


class DimensionMismatch(FFHarmError):
    """A vector did not have the ambient dimension d."""


class TooLarge(FFHarmError):
    """Requested enumeration exceeds the grid budget."""


class RoundingMismatch(FFHarmError):
    """A quantity that must be an integer was not close to one."""


class SideMismatch(FFHarmError):
    """Grid function passed with the wrong measure side."""


class EmptyVariety(FFHarmError):
    """Operation requires a nonempty variety."""


class UnsupportedDimension(FFHarmError):
    """Dimension outside the range the operation is defined for."""


class ParseError(FFHarmError):
    """Polynomial source could not be parsed. Carries the 0-based offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownVariable(ParseError):
    """Variable index outside 1..d."""


class NegativeExponent(ParseError):
    """Exponent after '^' must be a nonnegative integer literal."""


class EmptyVarietyWarning(UserWarning):
    """A variety was built with no points."""
