"""The errors that refuse an input, and the bounds declared on the fields
of the config dataclasses, with the one check of them, which their common
base runs from ``__post_init__``, so that direct construction,
``dataclasses.replace`` and the config reader agree."""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, field, fields
from decimal import Context

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
    (or a dataclass's field name) ``message`` is about, the config file
    when it is not JSON or not UTF-8, and empty for a document that is
    not an object. ``fields`` holds it and the other keys involved, which
    the text names after the message as ``(with <key>, ...)``."""

    def __init__(self, fields: str | tuple[str, ...], message: str, where: str | None = None):
        self.fields = (fields,) if isinstance(fields, str) else tuple(fields)
        super().__init__(self.fields[0], where, message)

    @property
    def reason(self) -> str:
        return self.message + (f" (with {', '.join(self.fields[1:])})" if self.fields[1:] else "")


def shown(value) -> str:
    """``repr(value)``, but an integer above 10^15 in ``%.6g`` form, which
    float formatting cannot give beyond the float range."""
    if isinstance(value, int) and abs(value) > 10**15:
        return f"{Context(prec=6).create_decimal(value).normalize():g}"
    return repr(value)


def bounded(default=MISSING, **limits):
    """A dataclass field whose value, or each item of a tuple value, must
    be finite and meet ``limits``: ``gt``, ``ge``, ``lt`` and ``le``
    bounds. A tuple must not be empty; None is not checked."""
    return field(default=default, metadata={"bound": limits})


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
