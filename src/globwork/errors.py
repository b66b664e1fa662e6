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


_JSON_KINDS = {
    dict: "an object", list: "a list", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", type(None): "null",
}


def _kind(value) -> str:
    return _JSON_KINDS.get(type(value), type(value).__name__)


def json_field(data, key: str, kind=None):
    """data[key], refused unless data is a JSON object holding key, with a
    value of type kind when kind is given."""
    if type(data) is not dict:
        raise MalformedError(f"expected an object, got {_kind(data)}")
    if key not in data:
        raise MalformedError(f"missing key {key!r}")
    value = data[key]
    if kind is not None and type(value) is not kind:
        raise MalformedError(f"{key!r} must be {_JSON_KINDS[kind]}, got {_kind(value)}")
    return value
