"""Exception types shared across the package."""


class GrowthTWError(Exception):
    """Base class for all package-specific errors."""


class ParseError(GrowthTWError, ValueError):
    """Malformed input text; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RangeError(GrowthTWError, ValueError):
    """An argument is outside its documented domain."""


class StructureError(GrowthTWError, ValueError):
    """Input data violates a structural requirement (self-loop, bad cover, ...)."""


class CapacityError(GrowthTWError, RuntimeError):
    """A configured size or enumeration budget would be exceeded."""


class GenerationError(GrowthTWError, RuntimeError):
    """Randomized generation exhausted its attempt budget."""


class PreconditionError(GrowthTWError, ValueError):
    """A documented operation precondition does not hold."""


class InvariantViolationError(GrowthTWError, RuntimeError):
    """A failed check: a built object failed its checker, or a guarantee of
    the theory did not hold, which indicates a bug or a growth parameter c
    below the growth constant the guarantee assumes.  The CLI exits 1."""


class ModelError(GrowthTWError, ValueError):
    """A minor model / contraction map is structurally invalid."""
