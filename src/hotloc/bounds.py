"""The errors that refuse an input; the bounds declared on the fields of
the config dataclasses, with the one check of them, which their common
base runs from ``__post_init__``, so that direct construction,
``dataclasses.replace`` and the config reader agree; and the JSON codec
that reads a config section into its dataclass and writes it back, whose
number rule every JSON input is read by."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import MISSING, field, fields, is_dataclass
from decimal import Context
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

# Coordinates and lengths in meters: a quarter of the Earth's
# circumference exceeds any radio map, and squared distances stay far
# inside the float range.
MAX_METERS = 1e7
# Levels, losses and margins in dB: no radio link spans 1000 dB, and sums
# of a few of them stay finite.
MAX_DB = 1e3
# Rates, weights, importances and floors: a product of two of them,
# summed over the 2^28 pixels the cube bound admits, stays finite.
MAX_MAGNITUDE = 1e100

_LIMITS = {"gt": (operator.gt, "greater than {:g}"), "ge": (operator.ge, "at least {:g}"),
           "lt": (operator.lt, "less than {:g}"), "le": (operator.le, "at most {:g}")}
_WORDS = {("gt", 0): "positive", ("ge", 0): "non-negative"}


class InputError(ValueError):
    """A refused input. ``source`` is the file path or dotted config key
    it came from, empty where the raiser does not know it (a model's
    validator; :meth:`of` puts it under its file); ``where`` is the line,
    cell or key inside it, or None; ``message`` is the reason. The text
    is ``<source>: <where>: <message>``, without the parts that are
    empty."""

    def __init__(self, source, where: str | None, message: str):
        self.source, self.where, self.message = str(source), where, message
        super().__init__(": ".join(part for part in (self.source, where, self.reason) if part))

    @property
    def reason(self) -> str:
        """The text after the source and the where."""
        return self.message

    @classmethod
    def of(cls, source, exc: ValueError) -> "InputError":
        """``exc``, raised where ``source`` was not known, as an error of
        ``source``: an InputError's own source and where become the where
        (a cell, a config key), any other error's text the message."""
        if not isinstance(exc, InputError):
            return cls(source, None, str(exc))
        return cls(source, ": ".join(p for p in (exc.source, exc.where) if p) or None, exc.reason)


class ConfigError(InputError):
    """A refused config, an InputError whose ``source`` is the dotted key
    (or a dataclass's field name) ``message`` is about, or the config
    file when it is not JSON, not UTF-8 or not an object. ``fields``
    holds it and the other keys involved, which the text names after the
    message as ``(with <key>, ...)``."""

    def __init__(self, fields: str | tuple[str, ...], message: str, where: str | None = None):
        self.fields = (fields,) if isinstance(fields, str) else tuple(fields)
        super().__init__(self.fields[0], where, message)

    @property
    def reason(self) -> str:
        return self.message + (f" (with {', '.join(self.fields[1:])})" if self.fields[1:] else "")


def shown(value) -> str:
    """``repr(value)``, but an integer above 10^15 in ``%.6g`` form, which
    float formatting cannot give beyond the float range, a string of more
    than 40 characters as its first 20 and its length, and a list or
    tuple item by item."""
    if isinstance(value, int) and abs(value) > 10**15:
        return f"{Context(prec=6).create_decimal(value).normalize():g}"
    if isinstance(value, str) and len(value) > 40:
        return f"{value[:20]!r}... ({len(value)} characters)"
    if isinstance(value, list):
        return f"[{', '.join(map(shown, value))}]"
    if isinstance(value, tuple):
        return f"({', '.join(map(shown, value))}{',' if len(value) == 1 else ''})"
    return repr(value)


def bounded(default=MISSING, key: str | None = None, **limits):
    """A dataclass field whose value, or each item of a tuple value, must
    be finite and meet ``limits``: ``gt``, ``ge``, ``lt`` and ``le``
    bounds. A tuple must not be empty; None is not checked. ``key`` is its
    JSON key, when that is not the field's name."""
    return field(default=default, metadata={"bound": limits, **({"key": key} if key else {})})


class Bounded:
    """Base of the config dataclasses: ``__post_init__`` raises ConfigError
    naming the first field whose value misses its declared bound."""

    def __post_init__(self):
        for f in fields(self):
            value, limits = getattr(self, f.name), f.metadata.get("bound")
            if limits is None or value is None:
                continue
            if value == ():
                raise ConfigError(f.name, "must not be empty")
            for item in value if isinstance(value, tuple) else (value,):
                if not (isinstance(item, int) or math.isfinite(item)):
                    raise ConfigError(f.name, f"must be finite, got {shown(value)}")
                if not all(_LIMITS[key][0](item, limit) for key, limit in limits.items()):
                    words = (_WORDS.get((k, x)) or _LIMITS[k][1].format(x) for k, x in limits.items())
                    hold = "hold values" if isinstance(value, tuple) else "be"
                    raise ConfigError(f.name, f"must {hold} {' and '.join(words)}, got {shown(value)}")


# -- JSON codec ----------------------------------------------------------


def json_float(value) -> float:
    """``value``, a number read from a JSON document, as a float: the one
    rule every JSON input reads its numbers by. A bool or a value of any
    other type raises ValueError ``must be a number, got <value>``, an
    integer beyond the float range ``must be finite, got <value>``, the
    value :func:`shown`; the reader puts the key before the text. NaN and
    +-Infinity, which Python's json module reads, are returned for the
    reader's own bounds to refuse."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"must be finite, got {shown(value)}") from None


def _field(dotted: str, key: str) -> str:
    return f"{dotted}.{key}" if dotted else key


def read_object(value, dotted: str, keys, required=()) -> dict:
    """``value``, which must be a JSON object with no key outside ``keys``
    and every key of ``required``."""
    if not isinstance(value, dict):
        raise ConfigError(dotted, "expected an object")
    for key in value:
        if key not in keys:
            raise ConfigError(_field(dotted, key), "unknown key")
    for key in required:
        if key not in value:
            raise ConfigError(_field(dotted, key), "missing required field")
    return value


@functools.cache
def _fields(cls) -> dict[str, tuple[str, object, bool]]:
    """JSON key -> (field name, type, required) for each field of the
    dataclass ``cls``. The key is the field's name, or the ``key`` its
    metadata declares (:func:`bounded`); a field whose ``key`` is None is
    not read or written."""
    hints = get_type_hints(cls)
    return {
        key: (f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
        if (key := f.metadata.get("key", f.name)) is not None
    }


def read_value(value, tp, dotted: str):
    """``value`` read as the type ``tp``: a dataclass from an object, a
    ``list[X]`` from a list of X, a tuple of floats from a list of finite
    numbers (of the tuple's length, or non-empty for ``tuple[float,
    ...]``), an int from an integral number, a str from a string and a
    float from a finite number (:func:`json_float`). ``X | None`` is read
    as X."""
    if get_origin(tp) in (Union, UnionType):
        (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        return read_section(value, tp, dotted)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(dotted, f"expected a list, got {shown(value)}")
        return [read_value(item, args[0], f"{dotted}[{k}]") for k, item in enumerate(value)]
    if origin is tuple:
        size = None if args[-1] is Ellipsis else len(args)
        what = f"a list of {size}" if size else "a non-empty list of"
        expected = f"expected {what} finite numbers, got {shown(value)}"
        if not isinstance(value, (list, tuple)) or not value or (size and len(value) != size):
            raise ConfigError(dotted, expected)
        items = []
        for k, item in enumerate(value):
            try:
                items.append(read_value(item, float, dotted))
            except ConfigError:
                raise ConfigError(dotted, f"{expected}: {dotted}[{k}] is {shown(item)}") from None
        return tuple(items)
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(dotted, f"expected a string, got {shown(value)}")
        return value
    try:
        number = json_float(value)
    except ValueError as exc:
        raise ConfigError(dotted, str(exc)) from None
    if not math.isfinite(number):
        raise ConfigError(dotted, f"must be finite, got {shown(value)}")
    if tp is int:
        if value != int(value):
            raise ConfigError(dotted, f"expected an integer, got {value!r}")
        return int(value)
    return number


def read_section(value, cls, dotted: str):
    """The dataclass ``cls`` read from the config section ``value`` at the
    dotted key ``dotted``. Its keys are those :func:`_fields` gives, each
    read by :func:`read_value`, and a field without a default is
    required. Checks across fields, such as the keys a zone's ``shape``
    takes, are the dataclass's own. Every error is a ConfigError naming
    the offending keys."""
    spec = _fields(cls)
    read_object(value, dotted, spec, [key for key, (_, _, required) in spec.items() if required])
    kwargs = {
        name: read_value(value[key], tp, f"{dotted}.{key}")
        for key, (name, tp, _) in spec.items()
        if key in value
    }
    try:
        return cls(**kwargs)
    except ConfigError as exc:  # names fields of cls
        key_of = {name: key for key, (name, _, _) in spec.items()}
        raise ConfigError([_field(dotted, key_of[name]) for name in exc.fields], exc.message) from exc


def section_doc(value):
    """The JSON value that :func:`read_section` reads back as ``value``: a
    dataclass as an object of its fields that are not None, under their
    JSON keys and in field order, a list or tuple as a list."""
    if is_dataclass(value):
        items = ((key, getattr(value, name)) for key, (name, _, _) in _fields(type(value)).items())
        return {key: section_doc(item) for key, item in items if item is not None}
    if isinstance(value, (list, tuple)):
        return [section_doc(item) for item in value]
    return value
