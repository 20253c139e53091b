"""Exception types shared across the package, and the checks that read config values."""

import operator

_REQUIRED = object()


class ValidationError(ValueError):
    """Invalid input data, operands, or configuration."""


class SizeError(ValidationError):
    """Operand sizes are incompatible (a match whose shape differs from its operands')."""


class CapacityError(ValidationError):
    """Problem size exceeds the exact solver cap; use the graduated matcher."""


class DegenerateModelError(ValidationError):
    """Operation is undefined for a model with a zero weight graph."""


class DatasetFormatError(ValidationError):
    """Malformed dataset file; carries file path and line number when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc = f"{loc}line {line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class InfeasibleSpecError(RuntimeError):
    """A synthetic data spec that cannot be satisfied within the sampling budget."""


def config_value(doc, key, kind, default=_REQUIRED):
    """`kind(doc[key])`, or `default` when the key is absent. A non-object `doc`, a
    missing required key or a TypeError/ValueError from `kind` (nested reads
    included, so the message holds the key path) raises ValidationError."""
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a JSON object, got {doc!r}")
    if key not in doc:
        if default is _REQUIRED:
            raise ValidationError(f"missing required key {key!r}")
        return default
    try:
        return kind(doc[key])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{key!r}: {exc}") from None


def integer(value) -> int:
    """`operator.index(value)`, refusing the booleans it would read as 0 and 1: the
    one reader of integer config values, so a float or a boolean is never truncated."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def check_count(name: str, value, minimum: int = 1) -> int:
    """`value` as a plain int, or ValidationError naming `name` unless it is an
    integer by `integer`'s rule and at least `minimum`: the check of the count
    and seed fields of configs built in code. They store what it returns, so a
    numpy integer never reaches a JSON document."""
    try:
        count = integer(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, got {value!r}")
    return count
