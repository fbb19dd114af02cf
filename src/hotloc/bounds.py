"""Bounds declared on the fields of the config dataclasses, and the one
check of them, which their common base runs from ``__post_init__``, so
that direct construction, ``dataclasses.replace`` and the config reader
agree."""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, field, fields

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


class ConfigError(ValueError):
    """A refused config value. ``fields`` holds the field names or dotted
    keys involved; ``field``, the first, is the one ``message`` is about,
    empty for the document as a whole."""

    def __init__(self, fields: str | tuple[str, ...], message: str):
        self.fields = (fields,) if isinstance(fields, str) else tuple(fields)
        self.field, self.message = self.fields[0], message
        text = f"{self.field}: {message}" if self.field else message
        super().__init__(text + (f" (with {', '.join(self.fields[1:])})" if self.fields[1:] else ""))


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
                    raise ConfigError(f.name, f"must be finite, got {value!r}")
                if not all(_LIMITS[key][0](item, limit) for key, limit in limits.items()):
                    words = (_WORDS.get((k, x)) or _LIMITS[k][1].format(x) for k, x in limits.items())
                    hold = "hold values" if isinstance(value, tuple) else "be"
                    raise ConfigError(f.name, f"must {hold} {' and '.join(words)}, got {value!r}")
