"""Discretized coverage map: grid geometry, cells, RSRP layers and the
derived best/second-best server maps, plus the distance (TA) and bearing
(AoA) zone partitions used to project per-cell KPIs onto pixels.

Conventions
-----------
* Pixel ``(i, j)`` has its center at ``origin + (i + 0.5, j + 0.5) * pixel_size``
  with axis 0 (``i``) along world x and axis 1 (``j``) along world y, so pixel
  ``(0, 0)`` sits at the lower-left corner of the map.
* Bearings and antenna azimuths are radians clockwise from geographic North:
  due North is 0, due East is pi/2.
* ``NaN`` in an RSRP layer means "no coverage from this cell at this pixel".
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from hotloc.bounds import InputError

# Distance resolution of the timing-advance counter and the number of rings
# it is binned into (the last ring is open-ended).
TA_GRANULARITY_M = 78.25
TA_ZONE_COUNT = 6

# Half-width of the boresight bearing sector; offsets within +-pi/6 of the
# antenna azimuth fall in zone 0, larger offsets in zones +1 / -1.
AOA_BORESIGHT_HALF_WIDTH = math.pi / 6.0

UNCOVERED = -1
NO_SECOND = -1

# The pixels of the cube CoverageGrid checks for infinities at once.
_INF_BLOCK = 1 << 16


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a square m x m pixel grid."""

    m: int
    pixel_size: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        # Held as plain int, float and tuple: the writers print the fields,
        # and specs compare by value.
        try:
            m = int(self.m)
        except (OverflowError, ValueError):
            m = None
        if m != self.m:
            raise ValueError(f"m must be an integer, got {self.m!r}")
        origin = tuple(map(float, self.origin))
        if len(origin) != 2:
            raise ValueError(f"origin must be two coordinates, got {self.origin}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "pixel_size", float(self.pixel_size))
        object.__setattr__(self, "origin", origin)
        if self.m < 2:
            raise ValueError(f"grid needs at least 2x2 pixels, got m={self.m}")
        if not (math.isfinite(self.pixel_size) and self.pixel_size > 0):
            raise ValueError(f"pixel_size must be finite and positive, got {self.pixel_size}")
        if not all(map(math.isfinite, self.origin)):
            raise ValueError(f"origin must be finite, got {self.origin}")

    @property
    def extent(self) -> float:
        """Side length of the map in meters."""
        return self.m * self.pixel_size

    def pixel_center(self, i, j):
        """World coordinates of the center of pixel (i, j); ``i`` and ``j``
        may be index arrays."""
        return (
            self.origin[0] + (i + 0.5) * self.pixel_size,
            self.origin[1] + (j + 0.5) * self.pixel_size,
        )

    def center_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """World coordinates of all pixel centers as two (m, m) arrays."""
        idx = np.arange(self.m, dtype=np.float64)
        return np.meshgrid(*self.pixel_center(idx, idx), indexing="ij")


@dataclass(frozen=True)
class CellInfo:
    """One sector: site position, boresight azimuth and configured neighbors.

    ``azimuth`` is radians clockwise from North in [0, 2*pi). ``neighbors``
    is the ordered list of cell ids eligible as handover candidates.
    """

    cell_id: str
    site_position: tuple[float, float]
    azimuth: float
    neighbors: tuple[str, ...] = ()

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.site_position, self.azimuth))):
            site, azimuth = self.site_position, self.azimuth
            raise ValueError(f"cell {self.cell_id!r}: site {site} and azimuth {azimuth} must be finite")
        if not 0.0 <= self.azimuth < 2.0 * math.pi:
            object.__setattr__(self, "azimuth", self.azimuth % (2.0 * math.pi))
        if self.cell_id in self.neighbors:
            raise ValueError(f"cell {self.cell_id!r} lists itself as a neighbor")


class CellSites(NamedTuple):
    """Site positions and boresight azimuths of many cells at once, as
    arrays of one shape. The zone-layer functions take it in place of a
    :class:`CellInfo` and broadcast it against the (m, m) pixel grid."""

    site_position: tuple[np.ndarray, np.ndarray]
    azimuth: np.ndarray


@dataclass
class CoverageGrid:
    """Per-cell RSRP layers over a common grid.

    ``rsrp`` has shape (n_cells, m, m) in dBm with NaN marking pixels the
    cell does not cover. ``q_rxlevmin`` is the admission threshold: pixels
    whose best-server RSRP falls below it count as uncovered.
    """

    spec: GridSpec
    cells: list[CellInfo]
    rsrp: np.ndarray
    q_rxlevmin: float

    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        n, m = len(self.cells), self.spec.m
        self.check_header(self.cells, self.q_rxlevmin)
        if self.rsrp.shape != (n, m, m):
            raise ValueError(
                f"rsrp shape {self.rsrp.shape} does not match {n} cells on a {m}x{m} grid"
            )
        # A block of layers at a time, so the mask is at most one layer or
        # 64 KB, never the size of the cube.
        step = max(1, _INF_BLOCK // (m * m))
        if any(np.isinf(self.rsrp[k : k + step]).any() for k in range(0, n, step)):
            raise ValueError("rsrp values must be finite or NaN")
        self._index = {c.cell_id: k for k, c in enumerate(self.cells)}
        if len(self._index) != n:
            raise ValueError("duplicate cell ids")

    @staticmethod
    def check_header(cells: list[CellInfo], q_rxlevmin: float) -> None:
        """Raise ValueError unless ``cells`` holds a cell and
        ``q_rxlevmin`` is finite: the checks that need no layer."""
        if not cells:
            raise ValueError("coverage grid needs at least one cell")
        if not math.isfinite(q_rxlevmin):
            raise ValueError(f"q_rxlevmin must be finite, got {q_rxlevmin}")

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_index(self, cell_id: str) -> int:
        return self._index[cell_id]

    def sites(self, index: np.ndarray) -> CellSites:
        """The sites and azimuths of ``cells[index]``, shaped like the
        integer array ``index``: ``ServerMaps.best`` gives each pixel its
        serving cell's site, where UNCOVERED (-1) picks the last cell and
        callers mask those pixels."""
        x = np.array([c.site_position[0] for c in self.cells])
        y = np.array([c.site_position[1] for c in self.cells])
        azimuth = np.array([c.azimuth for c in self.cells])
        return CellSites((x[index], y[index]), azimuth[index])


@dataclass(frozen=True)
class ServerMaps:
    """Per-pixel best and second-best serving cells and serving level.

    ``best`` is UNCOVERED (-1) where no cell reaches the admission threshold;
    ``second`` is NO_SECOND (-1) where fewer than two cells have any signal
    or where the pixel itself is uncovered. ``level`` is the best server's
    RSRP, a copy of its layer's value, and NaN where the pixel is uncovered.
    """

    best: np.ndarray
    second: np.ndarray
    level: np.ndarray

    def uncovered_mask(self) -> np.ndarray:
        return self.best == UNCOVERED


def compute_server_maps(grid: CoverageGrid) -> ServerMaps:
    """Derive the server maps and the serving level from the RSRP layers.

    The best server is the argmax of RSRP over cells, ties broken by the
    lowest cell id; a pixel is uncovered when its best RSRP is below
    ``q_rxlevmin`` or no cell has signal there. The runner-up is the argmax
    over the remaining cells, without the admission threshold. The maps
    hold row indices, but which cell a pixel gets does not depend on the
    order of the cell rows.

    One pass over the layers, in cell-id order, keeps the running best
    and runner-up values and indices, so no temporary is larger than a
    layer. A cell takes a place only with a strictly greater value, so
    the lowest id wins a tie; a NaN compares false and takes none.
    """
    shape = grid.rsrp.shape[1:]
    best = np.zeros(shape, np.int32)
    second = np.zeros(shape, np.int32)
    best_val = np.full(shape, -np.inf)
    second_val = np.full(shape, -np.inf)
    for k in sorted(range(grid.n_cells), key=lambda k: grid.cells[k].cell_id):
        layer = grid.rsrp[k]
        beats_best = layer > best_val
        # best_val >= second_val, so a layer that beats the best beats both.
        beats_second = (layer > second_val) & ~beats_best
        np.copyto(second, best, where=beats_best)
        np.copyto(second_val, best_val, where=beats_best)
        np.copyto(second, k, where=beats_second)
        np.copyto(second_val, layer, where=beats_second)
        np.copyto(best, k, where=beats_best)
        np.copyto(best_val, layer, where=beats_best)
    uncovered = ~np.isfinite(best_val) | (best_val < grid.q_rxlevmin)
    best[uncovered] = UNCOVERED
    second[uncovered | ~np.isfinite(second_val)] = NO_SECOND
    best_val[uncovered] = np.nan
    return ServerMaps(best=best, second=second, level=best_val)


def ta_zone_layer(spec: GridSpec, cell: CellInfo | CellSites) -> np.ndarray:
    """Timing-advance ring of every pixel, dtype int8: floor(distance from
    the site to the pixel center / 78.25 m), clamped to the open-ended
    last ring (index 5).

    The site coordinates broadcast against the (m, m) pixel centers: a
    :class:`CellInfo` gives that cell's layer, and
    ``grid.sites(servers.best)`` each pixel's ring in its serving cell.
    Every element goes through the same float operations either way, so
    the serving rings agree bit for bit with the per-cell layers.
    """
    cx, cy = spec.center_coords()
    dist = np.hypot(cx - cell.site_position[0], cy - cell.site_position[1])
    zones = np.minimum((dist / TA_GRANULARITY_M).astype(np.int64), TA_ZONE_COUNT - 1)
    return zones.astype(np.int8)


def boresight_offset(bearing: np.ndarray, azimuth: float | np.ndarray) -> np.ndarray:
    """The offsets of the bearings from the antenna azimuth, with -pi of
    np.mod's [-pi, pi) folded onto +pi: in (-pi, pi]."""
    delta = np.mod(bearing - azimuth + math.pi, 2.0 * math.pi) - math.pi
    delta[delta == -math.pi] = math.pi
    return delta


def aoa_zone_layer(spec: GridSpec, cell: CellInfo | CellSites) -> np.ndarray:
    """Bearing sector of every pixel relative to the cell boresight, dtype
    int8: 0 when the offset of the pixel's bearing from the azimuth lies in
    [-pi/6, pi/6], +1 for offsets in (pi/6, pi] and -1 for offsets in
    (-pi, -pi/6). A pixel centered exactly on the site gets zone 0. The
    site and azimuth broadcast as in :func:`ta_zone_layer`."""
    cx, cy = spec.center_coords()
    dx = cx - cell.site_position[0]
    dy = cy - cell.site_position[1]
    delta = boresight_offset(np.arctan2(dx, dy), cell.azimuth)
    zones = np.where(delta > AOA_BORESIGHT_HALF_WIDTH, 1, 0).astype(np.int8)
    zones = np.where(delta < -AOA_BORESIGHT_HALF_WIDTH, -1, zones).astype(np.int8)
    zones[(dx == 0.0) & (dy == 0.0)] = 0
    return zones


# ---------------------------------------------------------------------------
# File formats
#
# A coverage grid is two files. grid.csv is plain text: a magic row with
# the format version, then the header rows and one row per cell, and
# nothing else. The (cells, m, m) RSRP cube sits beside it in grid.npy,
# numpy's .npy format (version 1.0 or 2.0) of one C-ordered float64
# array, with no byte after it: layer k belongs to the k-th cell row, and
# a layer's axis 0 (i) runs along world x. NaN is no coverage.
#
# grid.csv, after the magic row "hotloc-grid,3":
#   header rows: m,<int> / pixel_size,<float> / origin,<x>,<y> /
#                q_rxlevmin,<float> / cells,<count>
#   cell rows:   cell,<id>,<x>,<y>,<azimuth_deg>,<nb1;nb2;...>
#
# The header rows are lines 2-6, once each and in this order (_GRID_HEADER,
# which save_grid writes and load_grid reads), and exactly <count> cell
# rows follow; blank lines among and after the cell rows are skipped.
# Every row ends in "\n", the last one too: a file that does not is cut
# short. Cell ids are distinct, every neighbor id names a cell row, and no
# id holds ",", ";", a NUL or a line break.
#
# The text codec below serves the other text artifacts, not grid.csv: the
# nine weight maps (hotloc.kpi), cdf.csv (hotloc.evaluate) and events.csv
# (hotloc.sim). The maps and cdf.csv format each distinct value of a file
# once (repr_table) and take each value's text by its index into that
# table; text_rows assembles the rows of a map, a CDF series or a batch of
# events from (n,) fixed-width bytes arrays in numpy. The maps of one size
# share one "i,j" field, built once per m (hotloc.kpi).
#
# The texts are Python's repr, the shortest decimal that reads back as the
# value and, of those, the nearest. A table of fewer than _KERNEL_MIN
# distinct values is formatted by repr itself (_repr_each): below that
# size the numpy kernel's fixed cost per call outweighs what it saves per
# value. In a larger table, most values need 16 or 17 significant digits,
# and for them _repr_bytes writes repr's bytes in whole-array numpy:
# finite normal values of 1e-6 <= |x| < 1e17 whose significand is not a
# power of two. Every other value, and every value for which one of
# _repr_bytes's rounding decisions falls within its error bound, goes to
# _repr_each too: zeros, NaNs, infinities, subnormals, powers of two,
# magnitudes out of that range, and values that 15 digits or fewer
# already round-trip. Both paths give repr's bytes, so the choice never
# shows in a file.
# ---------------------------------------------------------------------------

_GRID_MAGIC = "hotloc-grid,3"
# grid.csv's header rows after its magic row, in order: each row's key,
# and the type and count of the values after it (read_header).
_GRID_HEADER = (
    ("m", int, 1), ("pixel_size", float, 1), ("origin", float, 2), ("q_rxlevmin", float, 1), ("cells", int, 1)
)
_NPY_MAGIC = b"\x93NUMPY"
# The header reader of each .npy format version np.save writes for a
# float64 array: 2.0 only for a header longer than 1.0's 16-bit length.
_NPY_VERSIONS = {(1, 0): np.lib.format.read_array_header_1_0, (2, 0): np.lib.format.read_array_header_2_0}

# Distinct values formatted per batch, which bounds the Python strings
# and the batch temporaries alive at once.
_REPR_CHUNK = 1 << 12
# The fewest distinct values a batch sends to _repr_bytes; smaller ones go
# to _repr_each. Measured on 2 vCPUs with numpy 2.4 (best of 15 x 100
# calls, uniform values of [0, 1e-3)): repr takes about 0.67 us a value,
# the kernel about 100 us a call plus 0.18 us a value, and they cross at
# about 224 values: 128 take 84 us with repr and 134 us with the kernel,
# 256 take 171 us and 153 us.
_KERNEL_MIN = 224

# 10**k for k = 0 .. 22, each exact in a double (5**22 < 2**53), and the
# halves of Veltkamp's split of each (see _repr_bytes).
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLIT = float((1 << 27) + 1)
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# The two ASCII digits of 0 .. 99, each pair one uint16, so one take
# writes two digits.
_DIGIT_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
# The bound on the error of each distance _repr_bytes decides on. Each is
# D*c - (rem + l) for D in (1, 10, 100), an integer c and rem in [0, D),
# with |l| <= 8: rem + l is one rounding of a number below 108, at most
# half an ulp of [64, 128), 2**-47, and the difference one more of a number
# below 64 (c is the nearest integer to (rem + l) / D, within rounding),
# at most 2**-48. D*c and the conversions of rem and c are exact. The
# bound is above the sum, 3 * 2**-48, by more than the rounding of the
# thresholds it is added to or taken from (at most 2**-50 below 16).
_SLACK = 2.0**-46
_FRACTION_BITS = np.uint64((1 << 52) - 1)


def _repr_each(values: np.ndarray) -> np.ndarray:
    """The ``repr`` of each float64 of ``values`` as ``S24`` bytes, one
    Python call a value."""
    return np.fromiter(map(repr, values.tolist()), "S24", values.size)


def _layout(negative: bool, q: int, count: int) -> list:
    """The pieces of the repr of a value of sign ``negative``, decimal
    exponent ``q`` (``10**q <= |x| < 10**(q + 1)``) and ``count``
    significant digits, in order: bytes, or the (start, stop) slice of
    its digits. Python writes 1e16 and above and below 1e-4 with an
    exponent of at least two digits."""
    sign = b"-" if negative else b""
    if q < -4 or q > 15:
        return [sign, (0, 1), b".", (1, count), b"e%+03d" % q]
    if q < 0:
        return [sign + b"0." + b"0" * (-1 - q), (0, count)]
    return [sign, (0, q + 1), b".", (q + 1, count) if q + 1 < count else b"0"]


def _repr_bytes(values: np.ndarray) -> np.ndarray:
    """The ``repr`` of each float64 of ``values`` as ``S24`` bytes, in
    whole-array numpy for the values :func:`_layout` covers and by
    :func:`_repr_each` for the rest. Sorted values fall into few layout
    groups, and each array is dropped once used, so a call holds few
    arrays of the size of ``values`` at once.

    When no decimal of 15 significant digits or fewer reads back as x,
    repr is the 16-digit decimal nearest x if that one reads back, and
    the 17-digit one nearest x otherwise. With a significand that is not
    a power of two, x's neighbours are x - ulp and x + ulp, so a decimal
    reads back as x when it lies within half an ulp of it, and of the
    decimals of one step the nearest is the one to check. With x's
    decimal exponent q and k = 16 - q, the scaled value X = x * 10**k
    lies in [1e16, 1e17), and the decimals of 15, 16 and 17 digits are
    the multiples of 100, 10 and 1. Dekker's product gives X exactly as
    h + l: h rounds X, so it is an integer above 2**53, and |l| <= 8.
    Half an ulp scales to u = ulp(x) * 10**k / 2, exact as the product of
    a power of two and 10**k, and u > 0.55, so the nearest integer always
    reads back. A value takes the numpy path when no decision lies
    within :data:`_SLACK` of its edge: the nearest multiple of 100 is
    more than u away; the nearest multiple of 10 is less than u away
    (16 digits) or more (17), and X is not that near a tie between two
    of them, nor, for 17 digits, between two integers. Its digits are X
    rounded to that step, written two by two."""
    magnitude = np.abs(values)
    fraction = values.view(np.uint64) & _FRACTION_BITS
    # Candidates; the exponent check below is the exact test.
    at = ((magnitude >= 1e-6) & (magnitude < 1e17) & (fraction != 0)).nonzero()[0]
    x = magnitude.take(at)
    del magnitude, fraction
    k = 16 - np.floor(np.log10(x)).astype(np.int64)
    # log10 may round across a power of ten; one step either way mends
    # it. A k out of 0 .. 22 takes the nearest power and fails ``exact``.
    h = x * _POW10.take(k, mode="clip")
    k += h < 1e16
    k -= h >= 1e17
    exact = (k >= 0) & (k <= 22)
    # Dekker's product x * 10**k = h + l, with Veltkamp's split of x.
    hi, lo = _POW10_HI.take(k, mode="clip"), _POW10_LO.take(k, mode="clip")
    h = x * _POW10.take(k, mode="clip")
    x_hi = x * _SPLIT
    x_hi -= x_hi - x
    x_lo = x - x_hi
    # ((x_hi * hi - h) + x_hi * lo + x_lo * hi) + x_lo * lo, in place.
    l = x_hi * hi
    l -= h
    x_hi *= lo
    l += x_hi
    hi *= x_lo
    l += hi
    x_lo *= lo
    l += x_lo
    del hi, lo, x_hi, x_lo
    exact &= (h > 1e16) & (h < 1e17)
    half = np.spacing(x) * _POW10.take(k, mode="clip") * 0.5
    del x
    whole = h.astype(np.int64)
    del h
    # Distances from X to the nearest multiple of 100, of 10 and of 1.
    # Floor division by a constant is several times faster than % on
    # int64.
    t = (whole - whole // 100 * 100) + l
    fast = exact & (np.abs(100.0 * np.rint(t / 100.0) - t) > half + _SLACK)
    tens = whole // 10
    t = (whole - tens * 10) + l
    c16 = np.rint(t / 10.0)
    t = np.abs(10.0 * c16 - t)
    sixteen = t < half - _SLACK
    fast &= (t < 5.0 - _SLACK) & (sixteen | (t > half + _SLACK))
    c17 = np.rint(l)
    fast &= sixteen | (np.abs(c17 - l) < 0.5 - _SLACK)
    del exact, t, half, l
    # Every value's digits as a 17-digit integer, a 16-digit one with a
    # trailing zero, and its layout group: decimal exponent, sign and
    # whether it has 16 digits.
    tens += c16.astype(np.int64)
    tens *= 10
    whole += c17.astype(np.int64)
    digits = np.where(sixteen, tens, whole)
    del tens, whole, c16, c17
    key = ((16 - k) * 4 + (values.take(at) < 0) * 2 + sixteen).astype(np.int8)
    del k, sixteen
    fast = fast.nonzero()[0]
    # A stable sort of 8-bit keys is a radix sort.
    order = fast.take(np.argsort(key.take(fast), kind="stable"))
    texts = np.zeros(values.size, "S24")
    slow = np.ones(values.size, dtype=bool)
    slow[at.take(fast)] = False
    slow = slow.nonzero()[0]
    texts[slow] = _repr_each(values.take(slow))
    del fast, slow
    digits, key, at = digits.take(order), key.take(order), at.take(order)
    del order
    chars = np.empty((digits.size, 9), dtype=np.uint16)
    for column in range(8, -1, -1):
        rest = digits // 100
        chars[:, column] = _DIGIT_PAIRS.take(digits - rest * 100)
        digits = rest
    del digits, rest
    # The 17 digits, after the leading zero of 18.
    chars = chars.view(np.uint8)[:, 1:]
    out = np.zeros((key.size, 24), dtype=np.uint8)
    starts = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
    for start, end in zip(starts.tolist(), [*starts[1:].tolist(), key.size]):
        q, group = divmod(int(key[start]), 4)
        pos = 0
        for piece in _layout(group >= 2, q, 17 - group % 2):
            if isinstance(piece, bytes):
                piece = np.frombuffer(piece, np.uint8)
            else:
                piece = chars[start:end, piece[0] : piece[1]]
            width = piece.shape[-1]
            out[start:end, pos : pos + width] = piece
            pos += width
    del chars
    texts[at] = out.view("S24").reshape(-1)
    return texts


def repr_table(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ASCII ``repr`` of each distinct float64 of ``values``, in the
    order of their bit patterns, and an index into them of the shape of
    ``values``: ``texts[index]`` gives each value's text. The texts are
    fixed-width bytes (dtype ``S``) as wide as the longest, each
    NUL-padded to the width.

    Values are keyed on their bit patterns by ``np.unique``, which keeps
    ``-0.0`` apart from ``0.0``; a NaN of any sign or payload is written
    ``nan``. The distinct values are formatted :data:`_REPR_CHUNK` at a
    time, which bounds the temporaries: a batch of fewer than
    :data:`_KERNEL_MIN` by :func:`_repr_each`, a larger one by
    :func:`_repr_bytes`, whose fixed cost per call full batches keep
    small."""
    bits = np.asarray(values, np.float64).reshape(-1).view(np.uint64)
    distinct, index = np.unique(bits, return_inverse=True)
    distinct = distinct.view(np.float64)
    chunks = [np.empty(0, dtype="S1")]
    for lo in range(0, distinct.size, _REPR_CHUNK):
        batch = distinct[lo : lo + _REPR_CHUNK]
        texts = _repr_bytes(batch) if batch.size >= _KERNEL_MIN else _repr_each(batch)
        # A double's repr is at most 24 characters; the batch keeps the
        # width of its longest.
        width = np.count_nonzero(texts.view(np.uint8).reshape(-1, 24).any(axis=0))
        chunks.append(texts.astype(f"S{width}"))
    # The batches' widths differ; the table takes the widest.
    return np.concatenate(chunks), index.reshape(np.shape(values))


def text_rows(fields: Sequence[np.ndarray], end: bytes = b"\n") -> bytes:
    """The rows of a text table: row r holds the r-th text of each field,
    joined by ``,`` and followed by ``end``. Each field is an (n,) array
    of fixed-width bytes (dtype ``S``); their NUL padding is dropped, so
    no text may hold a NUL of its own.

    The fields are copied into one (n, row width) byte buffer, each text
    in a slot one byte wider than its dtype that the separator closes;
    one mask then drops the padding."""
    slots = [f.dtype.itemsize + 1 for f in fields]
    width = sum(slots) - 1 + len(end)
    buf = np.zeros((len(fields[0]), width), np.uint8)
    at = 0
    for f, slot in zip(fields, slots):
        buf[:, at : at + slot].view(f"S{slot}")[:, 0] = f
        at += slot
        buf[:, at - 1] = ord(",")
    # The last field's separator starts the row's end.
    buf[:, width - len(end) :] = np.frombuffer(end, np.uint8)
    return buf[buf != 0].tobytes()


def reject_separators(what: str, name: str, separators: str) -> None:
    """Raise ValueError naming ``name`` when it holds one of ``separators``
    or a line break, which would split or merge the fields and rows of a
    text artifact. The ids of ``grid.csv`` also refuse a NUL: text tools
    take a file that holds one for binary, and C strings end at it. A
    name that holds none of them, every name of a valid file, returns
    after one set."""
    if set(name).isdisjoint(separators + "\n\r"):
        return
    found = "".join(sorted(set(name) & set(separators + "\n\r")))
    raise ValueError(f"{what} {name!r} contains {found!r}, which the file format cannot hold")


def cube_path(path: str | Path) -> Path:
    """The ``.npy`` file that holds the RSRP cube of the grid file ``path``:
    ``grid.csv`` gives ``grid.npy``."""
    return Path(path).with_suffix(".npy")


def save_grid(grid: CoverageGrid, path: str | Path) -> None:
    """Write a coverage grid: the header and cell rows to the text file
    ``path``, and the RSRP cube to :func:`cube_path` beside it. A cell or
    neighbor id holding ``,``, ``;``, a NUL or a line break raises
    ValueError before either file is written."""
    for cell in grid.cells:
        reject_separators("cell id", cell.cell_id, ",;\0")
        for nb_id in cell.neighbors:
            reject_separators("neighbor id", nb_id, ",;\0")
    spec = grid.spec
    values = [(spec.m,), (spec.pixel_size,), spec.origin, (grid.q_rxlevmin,), (grid.n_cells,)]
    lines = header_lines(_GRID_MAGIC, _GRID_HEADER, values)
    for cell in grid.cells:
        az_deg = math.degrees(cell.azimuth)
        nbs = ";".join(cell.neighbors)
        lines.append(
            f"cell,{cell.cell_id},{cell.site_position[0]!r},"
            f"{cell.site_position[1]!r},{az_deg!r},{nbs}"
        )
    with create(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())
    with create(cube_path(path)) as fh:
        # C order, the one read_array takes.
        np.save(fh, np.ascontiguousarray(grid.rsrp, dtype=np.float64), allow_pickle=False)


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """The UTF-8 text file ``path``, open for reading. A byte that is not
    UTF-8, met anywhere in the ``with`` block, raises InputError at the
    1-based line, naming the byte, in place of the bare
    UnicodeDecodeError. The line is found by decoding the file again
    line by line, which fails on the same byte: a line break is never
    part of a multi-byte sequence."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    reason = f"byte {line[exc.start]:#04x} is not UTF-8"
                    raise InputError(path, f"line {line_no}", reason) from None
        raise


def read_text(path: str | Path) -> str:
    """The whole text of the UTF-8 file ``path`` (:func:`open_text`)."""
    with open_text(path) as fh:
        return fh.read()


def read_json(path: str | Path):
    """The JSON document in the UTF-8 file ``path`` (:func:`read_text`).
    Text that is not JSON, an integer of more digits than the interpreter
    converts and nesting past its recursion limit raise InputError of the
    file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(path, None, f"not JSON: {exc}") from exc
    except ValueError as exc:  # sys.get_int_max_str_digits(), 4300 by default
        raise InputError(path, None, f"an integer too long to read: {str(exc).split(';')[0]}") from exc
    except RecursionError:
        raise InputError(path, None, "arrays or objects nested too deeply to read") from None


def create(path: str | Path, mode: str = "wb", **open_kwargs) -> IO:
    """A new file at ``path``, open in ``mode`` (``open``'s arguments),
    in place of the file there: every artifact is written through this.
    The old file is unlinked first, so a hard link or symlink at
    ``path`` is replaced, not written through, and a directory at
    ``path`` raises IsADirectoryError as ``open`` would.

    A rerun writes over the artifacts of the last run, and on ext4
    truncating a file that holds data costs more than unlinking it and
    creating another: on an ext4 root on a virtual disk, 18 files of
    80 KB took 2.3-3.1 ms truncated in place and 1.1-1.7 ms unlinked and
    created anew. A temporary file renamed over the old one would keep
    the old file whole until the new one is complete, but took 3.6-5.6
    ms, more than either; so a write that fails here leaves a partial
    file, as truncation did."""
    Path(path).unlink(missing_ok=True)
    return open(path, mode, **open_kwargs)


def write_json(path: str | Path, doc, sort_keys: bool = False) -> None:
    """Write the JSON document ``doc`` to ``path`` (:func:`create`),
    indented by two spaces and ended by a newline."""
    with create(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n")


def header_lines(magic: str, layout: tuple, values: list) -> list[str]:
    """The header of a text artifact as lines: the ``magic`` row, then one
    row per entry of ``layout``, its key and the entry's tuple of
    ``values`` written by ``str`` (a float's shortest repr)."""
    return [magic, *(",".join([key, *map(str, row)]) for (key, _, _), row in zip(layout, values, strict=True))]


def read_header(path: str | Path, fh: TextIO, kind: str, magic: str, layout: tuple) -> list[list]:
    """The values of each row of ``layout`` (:func:`header_lines`) in the
    header of the text artifact ``fh``, read in order; ``fh`` is left
    after the header. A first row other than ``magic`` and a row other
    than its entry's key and count of values, each read by the entry's
    type, raise InputError at the line."""
    first = fh.readline().rstrip("\n")
    if first != magic:
        raise InputError(path, "line 1", f"not a hotloc {kind} file ({magic}): {first!r}")
    values = []
    for line_no, (key, convert, count) in enumerate(layout, 2):
        fields = fh.readline().rstrip("\n").split(",")
        size = key.count(",") + 1
        try:
            if ",".join(fields[:size]) != key or len(fields) != size + count:
                raise ValueError
            values.append([convert(v) for v in fields[size:]])
        except ValueError:
            raise InputError(path, f"line {line_no}", f"missing or garbled {key!r} header row") from None
    return values


def check_line_end(path: str | Path, line_no: int, line: str) -> None:
    """Raise InputError at ``line_no`` of the text artifact ``path``
    unless its row ``line`` ends in the "\\n" its writer ends every row
    with: a row without one is the last of a file cut short."""
    if not line.endswith("\n"):
        raise InputError(path, f"line {line_no}", f"cut short: the row has no line end: {line!r}")


def read_spec(path: str | Path, m: int, pixel_size: float, origin: list[float]) -> GridSpec:
    """The grid of a text artifact's ``m``, ``pixel_size`` and ``origin``
    header rows; one that :class:`GridSpec` refuses raises InputError."""
    try:
        return GridSpec(m=m, pixel_size=pixel_size, origin=origin)
    except ValueError as exc:
        raise InputError.of(path, exc) from None


def read_array(path: str | Path, shape: tuple[int, ...], about: str) -> np.ndarray:
    """The C-ordered float64 array of ``shape`` in the ``.npy`` file
    ``path``, read into one new array once its header and the file's size
    are checked. A missing file, one that is not ``.npy``, a header numpy
    refuses (a cut header, a format version it does not know), another
    dtype (objects among them) or shape, a Fortran-ordered array, a file
    too short for its array and bytes after it raise InputError of the
    file before the array is allocated; ``about`` says where ``shape``
    comes from."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(_NPY_MAGIC))
            if magic != _NPY_MAGIC:
                raise InputError(path, None, f"not a .npy file: it starts {magic!r}")
            fh.seek(0)
            try:
                version = np.lib.format.read_magic(fh)
                if version not in _NPY_VERSIONS:
                    raise ValueError(f"format version {version}, expected one of {sorted(_NPY_VERSIONS)}")
                stored, fortran_order, dtype = _NPY_VERSIONS[version](fh)
            except ValueError as exc:
                raise InputError(path, None, f"not a readable .npy array: {exc}") from None
            if dtype != np.float64:
                raise InputError(path, None, f"dtype {dtype.str}, expected float64 ({np.dtype(np.float64).str})")
            if stored != shape:
                raise InputError(path, None, f"shape {stored}, expected {shape} ({about})")
            if fortran_order:
                raise InputError(path, None, "a Fortran-ordered array, expected C order")
            nbytes = math.prod(shape) * dtype.itemsize
            held = os.fstat(fh.fileno()).st_size - fh.tell()
            if held < nbytes:
                raise InputError(path, None, f"cut short: {held} of the array's {nbytes} bytes")
            if held > nbytes:
                raise InputError(path, None, f"{held - nbytes} bytes after the array")
            array = np.empty(shape, np.float64)
            if fh.readinto(array.reshape(-1).view(np.uint8)) != nbytes:
                raise InputError(path, None, "cut short while it was read")
    except FileNotFoundError:
        raise InputError(path, None, "not found") from None
    except OSError as exc:
        raise InputError(path, None, f"cannot be read: {exc.strerror or exc}") from None
    return array


def load_grid(path: str | Path) -> CoverageGrid:
    """Read a coverage grid written by :func:`save_grid`. A file of another
    format version, a missing, garbled or misplaced header row, a
    non-finite header value, a cell row without its line end (a file cut
    short), a count of cell rows other than the header's, a repeated cell
    id, a neighbor that names no cell, an id that holds a NUL, a
    non-finite site or azimuth, the grid :func:`read_spec` refuses and a
    byte that is not UTF-8 raise InputError of ``path``, at the line
    for a row, before the cube file (:func:`cube_path`) is opened. Then
    the refusals of :func:`read_array` and an infinite RSRP value raise
    InputError of the cube file."""
    with open_text(path) as fh:
        header = read_header(path, fh, "coverage grid", _GRID_MAGIC, _GRID_HEADER)
        (m,), (pixel_size,), origin, (q_rxlevmin,), (declared,) = header
        spec = read_spec(path, m, pixel_size, origin)
        cells: list[CellInfo] = []
        # The 1-based line and the fields of each cell row, and the line of
        # each cell id.
        rows: list[tuple[int, list[str]]] = []
        cell_rows: dict[str, int] = {}
        for line_no, line in enumerate(fh, len(_GRID_HEADER) + 2):
            if not line.strip():
                continue
            check_line_end(path, line_no, line)
            fields = line.rstrip("\n").split(",")
            rows.append((line_no, fields))
            try:
                if fields[0] != "cell":
                    raise ValueError("expected a cell row")
                _, cell_id, x, y, az_deg, nbs = fields
                neighbors = tuple(n for n in nbs.split(";") if n)
                if "\0" in line:
                    reject_separators("cell id", cell_id, "\0")
                    for nb_id in neighbors:
                        reject_separators("neighbor id", nb_id, "\0")
                first = cell_rows.setdefault(cell_id, line_no)
                if first != line_no:
                    raise ValueError(f"cell id {cell_id!r} already given on line {first}")
                site, azimuth = (float(x), float(y)), math.radians(float(az_deg))
                cells.append(CellInfo(cell_id, site, azimuth, neighbors))
            except ValueError as exc:
                raise InputError(path, f"line {line_no}", f"{exc}: {','.join(fields)!r}") from None
        if declared != len(cells):
            raise InputError(path, None, f"header declares {declared} cells, found {len(cells)}")
        for cell, (line_no, fields) in zip(cells, rows):
            unknown = [nb_id for nb_id in cell.neighbors if nb_id not in cell_rows]
            if unknown:
                reason = f"neighbors {unknown} are not cells of the grid"
                raise InputError(path, f"line {line_no}", f"{reason}: {','.join(fields)!r}")
        try:
            CoverageGrid.check_header(cells, q_rxlevmin)
        except ValueError as exc:
            raise InputError.of(path, exc) from None
    cube = cube_path(path)
    rsrp = read_array(cube, (len(cells), m, m), f"{len(cells)} cells on the {m}x{m} grid of {Path(path).name}")
    try:
        # Every check left is of the layers: an infinite value.
        return CoverageGrid(spec, cells, rsrp, q_rxlevmin)
    except ValueError as exc:
        raise InputError.of(cube, exc) from None
