"""Exception types shared across the package, and the rules that judge config fields."""

import math
import numbers
import operator
from collections.abc import Hashable
from dataclasses import MISSING, fields

_REQUIRED = object()
_ABSENT = object()


class ValidationError(ValueError):
    """Invalid input data, operands, or configuration."""


class CapacityError(ValidationError):
    """Problem size exceeds the exact solver cap; use the graduated matcher."""


class DegenerateModelError(ValidationError):
    """Operation is undefined for a model with a zero weight graph."""


class DatasetFormatError(ValidationError):
    """Malformed dataset file; carries file path (as a string) and line number when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc = f"{loc}line {line}: "
        super().__init__(f"{loc}{message}")
        self.path = None if path is None else str(path)
        self.line = line


class InfeasibleSpecError(RuntimeError):
    """A synthetic data spec that cannot be satisfied within the sampling budget."""


def checked(name: str, reader, value):
    """`reader(value)`, or ValidationError naming `name` when `reader` raises
    TypeError or ValueError."""
    try:
        return reader(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name!r}: {exc}") from None


def sized(name: str, value, make, *args):
    """`make(*args)`, or ValidationError naming `name` when numpy refuses the size
    of an array that `make` asks for because `value` is too large: its ValueError
    ("array is too big", or an axis over numpy's limit) or MemoryError. Only
    calls whose other ValueErrors cannot arise are wrapped."""
    try:
        return make(*args)
    except (ValueError, MemoryError):
        raise ValidationError(f"{name!r}: {value} is too large") from None


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
    return checked(key, kind, doc[key])


def known_keys(doc, known):
    """ValidationError unless `doc` is a JSON object whose every key is in `known`:
    the one unknown-key rule of the documents sublin reads (configs, dataset
    records and `meta.json`, model files), so a misspelled key is never
    silently ignored."""
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a JSON object, got {doc!r}")
    for key in doc:
        if key not in known:
            raise ValidationError(f"unknown key {key!r}; expected one of {sorted(known)}")


def config_fields(doc, cls, keys=None, defaults=None, extra=()) -> dict:
    """The keyword arguments that the JSON object `doc` gives the dataclass `cls`,
    unjudged (`cls.__post_init__` judges them): each field's value at its key,
    which is the field's name unless `keys` maps it to another, else its value in
    `defaults`. A field with neither keeps the class's default, or is a missing
    required key when the class has none. The one reader of user-written JSON
    configs: a key that is neither a field's nor one of the `extra` keys that
    its caller reads itself is refused by `known_keys`."""
    keys, defaults = keys or {}, defaults or {}
    known_keys(doc, {keys.get(f.name, f.name) for f in fields(cls)}.union(extra))
    found = {}
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        value = config_value(doc, keys.get(f.name, f.name), lambda v: v,
                             defaults.get(f.name, _REQUIRED if required else _ABSENT))
        if value is not _ABSENT:
            found[f.name] = value
    return found


def name_list(value) -> tuple:
    """`value`, a list (or tuple) of hashable names, as a tuple: the one reader of
    the class lists of datasets and models and of GXL attribute names. A bare
    string, which would read as one name per character, and unhashable entries
    are refused."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, Hashable) for v in value):
        raise TypeError(f"expected a list of hashable names, got {value!r}")
    return tuple(value)


def text(value) -> str:
    """`value` if it is a string: the reader of names and paths in JSON configs."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def integer(value) -> int:
    """`operator.index(value)`, refusing the booleans it would read as 0 and 1: the
    one reader of integer config values, so a float or a boolean is never truncated."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def check_count(name: str, value, minimum: int = 1, maximum: int | None = None) -> int:
    """`value` as a plain int, or ValidationError naming `name` unless it is an
    integer by `integer`'s rule in `minimum..maximum`. Fields store what it
    returns, so a numpy integer never reaches a JSON document."""
    bound = f"of at least {minimum}" if maximum is None else f"in {minimum}..{maximum}"
    try:
        count = integer(value)
        if minimum <= count and (maximum is None or count <= maximum):
            return count
    except TypeError:
        pass
    raise ValidationError(f"{name!r}: expected an integer {bound}, got {value!r}")


def check_number(name: str, value, what: str = "a finite number", test=lambda v: True):
    """`value` as given (an int stays an int), or ValidationError naming `name` and
    expecting `what` unless it is a finite real number that passes `test`: the
    one rule of numeric fields. Booleans, strings, NaN, ±inf (JSON `NaN` and
    `Infinity`) and integers outside the float range are refused."""
    try:
        finite = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(value))
    except OverflowError:  # an integer outside the float range
        finite = False
    if not finite or not test(value):
        raise ValidationError(f"{name!r}: expected {what}, got {value!r}")
    return value
