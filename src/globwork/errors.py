class GlobworkError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(GlobworkError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class InvalidTableError(GlobworkError):
    pass


class DomainError(GlobworkError):
    """A precondition of an operation was violated."""


class SizeGuardError(GlobworkError):
    """An enumeration was refused because its estimated size exceeds the bound."""


class AdmissibilityError(GlobworkError):
    """A pair of operations failed the admissibility predicate of its theory kind."""


class TypingError(GlobworkError):
    """A term or presentation failed a boundary/type check."""


class MalformedError(GlobworkError):
    """JSON input of the wrong shape: a missing key or a value of the wrong type."""
