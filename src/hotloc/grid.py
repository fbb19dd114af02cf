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

import itertools
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

# Distance resolution of the timing-advance counter and the number of rings
# it is binned into (the last ring is open-ended).
TA_GRANULARITY_M = 78.25
TA_ZONE_COUNT = 6

# Half-width of the boresight bearing sector; offsets within +-pi/6 of the
# antenna azimuth fall in zone 0, larger offsets in zones +1 / -1.
AOA_BORESIGHT_HALF_WIDTH = math.pi / 6.0

UNCOVERED = -1
NO_SECOND = -1


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a square m x m pixel grid."""

    m: int
    pixel_size: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
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

    def center_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """World coordinates of all pixel centers as two (m, m) arrays."""
        idx = np.arange(self.m, dtype=np.float64) + 0.5
        x = self.origin[0] + idx * self.pixel_size
        y = self.origin[1] + idx * self.pixel_size
        return np.meshgrid(x, y, indexing="ij")


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
        if n < 1:
            raise ValueError("coverage grid needs at least one cell")
        if self.rsrp.shape != (n, m, m):
            raise ValueError(
                f"rsrp shape {self.rsrp.shape} does not match {n} cells on a {m}x{m} grid"
            )
        if np.isinf(self.rsrp).any():
            raise ValueError("rsrp values must be finite or NaN")
        if not math.isfinite(self.q_rxlevmin):
            raise ValueError(f"q_rxlevmin must be finite, got {self.q_rxlevmin}")
        self._index = {c.cell_id: k for k, c in enumerate(self.cells)}
        if len(self._index) != n:
            raise ValueError("duplicate cell ids")

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_index(self, cell_id: str) -> int:
        return self._index[cell_id]

    def sites(self, index: np.ndarray) -> CellSites:
        """The sites and azimuths of ``cells[index]``, shaped like the
        integer array ``index``. An (n, 1, 1) index gives per-cell stacks;
        ``ServerMaps.best`` gives each pixel its serving cell's site, where
        UNCOVERED (-1) picks the last cell and callers mask those pixels."""
        x = np.array([c.site_position[0] for c in self.cells])
        y = np.array([c.site_position[1] for c in self.cells])
        azimuth = np.array([c.azimuth for c in self.cells])
        return CellSites((x[index], y[index]), azimuth[index])

    def serving_rsrp(self, servers: ServerMaps) -> np.ndarray:
        """The best server's RSRP at every pixel, shape (m, m), NaN where
        the pixel is uncovered."""
        best = servers.best
        level = np.take_along_axis(self.rsrp, best[None].astype(np.intp), axis=0)[0]
        return np.where(best == UNCOVERED, np.nan, level)


@dataclass(frozen=True)
class ServerMaps:
    """Per-pixel best and second-best serving cell indices.

    ``best`` is UNCOVERED (-1) where no cell reaches the admission threshold;
    ``second`` is NO_SECOND (-1) where fewer than two cells have any signal
    or where the pixel itself is uncovered.
    """

    best: np.ndarray
    second: np.ndarray

    def uncovered_mask(self) -> np.ndarray:
        return self.best == UNCOVERED


def compute_server_maps(grid: CoverageGrid) -> ServerMaps:
    """Derive best/second-best server maps from the RSRP layers.

    The best server is the argmax of RSRP over cells (ties broken by lowest
    cell index); a pixel is uncovered when its best RSRP is below
    ``q_rxlevmin`` or no cell has signal there. The runner-up is the argmax
    over the remaining cells, without the admission threshold.

    One pass over the layers keeps the running best and runner-up values
    and indices, so no temporary is larger than a layer. A cell takes a
    place only with a strictly greater value, so the lowest index wins a
    tie, as with ``argmax``; a NaN compares false and takes none.
    """
    shape = grid.rsrp.shape[1:]
    best = np.zeros(shape, np.int32)
    second = np.zeros(shape, np.int32)
    best_val = np.full(shape, -np.inf)
    second_val = np.full(shape, -np.inf)
    for k, layer in enumerate(grid.rsrp):
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
    return ServerMaps(best=best, second=second)


def ta_zone_layer(spec: GridSpec, cell: CellInfo | CellSites) -> np.ndarray:
    """Timing-advance ring of every pixel, dtype int8: floor(distance from
    the site to the pixel center / 78.25 m), clamped to the open-ended
    last ring (index 5).

    The site coordinates broadcast against the (m, m) pixel centers: a
    :class:`CellInfo` gives that cell's (m, m) layer, ``grid.sites`` of an
    (n, 1, 1) index the (n, m, m) stack of every cell's layer, and
    ``grid.sites(servers.best)`` each pixel's ring in its serving cell.
    Every element goes through the same float operations whatever the
    shapes, so the results agree bit for bit with the per-cell layers.
    """
    cx, cy = spec.center_coords()
    dist = np.hypot(cx - cell.site_position[0], cy - cell.site_position[1])
    zones = np.minimum((dist / TA_GRANULARITY_M).astype(np.int64), TA_ZONE_COUNT - 1)
    return zones.astype(np.int8)


def aoa_zone_layer(spec: GridSpec, cell: CellInfo | CellSites) -> np.ndarray:
    """Bearing sector of every pixel relative to the cell boresight, dtype
    int8: 0 when the offset of the pixel's bearing from the azimuth lies in
    [-pi/6, pi/6], +1 for offsets in (pi/6, pi] and -1 for offsets in
    (-pi, -pi/6). A pixel centered exactly on the site gets zone 0. The
    site and azimuth broadcast as in :func:`ta_zone_layer`."""
    cx, cy = spec.center_coords()
    dx = cx - cell.site_position[0]
    dy = cy - cell.site_position[1]
    bearing = np.arctan2(dx, dy)
    delta = (bearing - cell.azimuth + math.pi) % (2.0 * math.pi) - math.pi
    # The modulo above yields [-pi, pi); fold -pi onto +pi, so the offsets
    # lie in (-pi, pi].
    delta = np.where(delta == -math.pi, math.pi, delta)
    zones = np.where(delta > AOA_BORESIGHT_HALF_WIDTH, 1, 0).astype(np.int8)
    zones = np.where(delta < -AOA_BORESIGHT_HALF_WIDTH, -1, zones).astype(np.int8)
    zones[(dx == 0.0) & (dy == 0.0)] = 0
    return zones


# ---------------------------------------------------------------------------
# File formats
#
# grid.csv is plain text: a magic row with the format version, header rows,
# a marker row, then each cell's (m, m) RSRP layer as m rows, row i holding
# the reprs of pixels (i, 0) .. (i, m-1). Row i is world x, so the text is
# the layer on its side, not a north-up picture.
#
# grid.csv, after the magic row "hotloc-grid,2":
#   header rows: m,<int> / pixel_size,<float> / origin,<x>,<y> /
#                q_rxlevmin,<float> / cells,<count>
#   cell rows:   cell,<id>,<x>,<y>,<azimuth_deg>,<nb1;nb2;...>
#   marker row:  rsrp
#   layer rows:  each cell's layer in cell-row order; "nan" is no coverage
#
# Cell ids are distinct, every neighbor id names a cell row, and no id holds
# ",", ";", a NUL or a line break. Every header row but the cell rows is
# given once. The layer rows hold m values each, finite or "nan", with no
# blank line among them; only blank lines follow the last.
#
# The writers format each distinct value once (repr_lookup) into a
# fixed-width bytes array shaped like the values, and text_rows assembles
# the rows of one layer, map or CDF series from such arrays in numpy.
# ---------------------------------------------------------------------------

_GRID_MAGIC = "hotloc-grid,2"

# The longest repr of a double, e.g. "-2.2250738585072014e-308".
_REPR_WIDTH = 24
# Distinct values formatted per batch, which bounds the Python strings
# alive at once.
_REPR_CHUNK = 1 << 12


def repr_lookup(values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A function that gives the ASCII ``repr`` of each float64 of an
    array whose values all occur in ``values``, as an ``S24`` array of the
    same shape, each text NUL-padded to the width.

    ``repr`` runs once per distinct value: the text writers' layers and
    maps repeat most of their values. Values are keyed on their bit
    patterns, which keeps ``-0.0`` apart from ``0.0``, so the bytes are
    those of ``repr`` by construction. One sorted copy of the bits, the
    distinct ones and their texts in a fixed-width array are the only
    tables built: ``np.unique``, an object array of texts or a table of
    Python strings per value each raised a desk run's peak memory."""
    bits = np.sort(np.asarray(values, np.float64).view(np.uint64), axis=None)
    first = np.ones(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    distinct = bits[first]
    del bits, first
    texts = np.empty(distinct.size, dtype=f"S{_REPR_WIDTH}")
    for lo in range(0, distinct.size, _REPR_CHUNK):
        chunk = distinct[lo : lo + _REPR_CHUNK].view(np.float64).tolist()
        texts[lo : lo + len(chunk)] = np.fromiter(map(repr, chunk), texts.dtype, len(chunk))

    def lookup(part: np.ndarray) -> np.ndarray:
        keys = np.asarray(part, np.float64).view(np.uint64)
        return texts[np.searchsorted(distinct, keys)]

    return lookup


def text_rows(fields: Sequence[np.ndarray], end: bytes = b"\n") -> bytes:
    """The rows of a text table: row r holds the texts of row r of each
    field, joined by ``,`` and followed by ``end``. Each field is an (n,)
    or (n, k) array of fixed-width bytes (dtype ``S``), whose k texts a
    row takes in order; their NUL padding is dropped, so no text may hold
    a NUL of its own.

    The fields are copied into one (n, row width) byte buffer, each text
    in a slot one byte wider than its dtype that the separator closes;
    one mask then drops the padding."""
    n = len(fields[0])
    fields = [f if f.ndim == 2 else f[:, None] for f in map(np.asarray, fields)]
    slots = [f.dtype.itemsize + 1 for f in fields]
    width = sum(f.shape[1] * slot for f, slot in zip(fields, slots)) - 1 + len(end)
    buf = np.zeros((n, width), np.uint8)
    at = 0
    for f, slot in zip(fields, slots):
        span = f.shape[1] * slot
        texts = buf[:, at : at + span]
        texts.view(f"S{slot}")[...] = f
        texts[:, slot - 1 :: slot] = ord(",")
        at += span
    # The last field's last separator slot starts the row's end.
    buf[:, width - len(end) :] = np.frombuffer(end, np.uint8)
    return buf[buf != 0].tobytes()


def reject_separators(what: str, name: str, separators: str) -> None:
    """Raise ValueError naming ``name`` when it holds one of ``separators``
    or a line break, which would split or merge the fields and rows of a
    text artifact. The ids of ``grid.csv`` also refuse a NUL: text tools
    take a file that holds one for binary, and C strings end at it."""
    found = "".join(sorted(set(name) & set(separators + "\n\r")))
    if found:
        raise ValueError(f"{what} {name!r} contains {found!r}, which the file format cannot hold")


def _first_bad_line(lines: list[str], count: int, converters: list[type]) -> tuple[int, str] | None:
    """The index of the first bad line of ``count`` rows and the reason,
    found by Python's parsers, one of ``int`` or ``float`` per column;
    None when all rows are good."""
    for k, line in enumerate(lines):
        fields = line.rstrip("\n").split(",") if line.strip() else []
        if len(fields) != len(converters):
            return k, f"expected {len(converters)} values, got {len(fields)}"
        for column, (convert, field) in enumerate(zip(converters, fields), 1):
            try:
                value = convert(field)
            except ValueError:
                what = "an integer" if convert is int else "a number"
                return k, f"value {column} {field!r} is not {what}"
            if math.isinf(value):
                return k, f"value {column} {field!r} is not finite or NaN"
    if len(lines) < count:
        return len(lines), f"the file ends after {len(lines)} of {count} rows"
    return None


def read_rows(
    path: str | Path, fh: TextIO, start: int, count: int, dtype: np.dtype, where: str
) -> np.ndarray:
    """The next ``count`` lines of the text file ``fh`` as an array of
    ``count`` rows of the structured ``dtype``, one int64 or float64
    field per column, parsed by one ``np.loadtxt`` call; ``start`` is the
    0-based line of the first. A row without one value of its field's
    type per column, an infinite float, a blank line and a missing row
    raise ValueError naming the file, the line and ``where``."""
    lines = list(itertools.islice(fh, count))
    error = None
    try:
        with warnings.catch_warnings():
            # Blank or missing lines give fewer rows, which the count check refuses.
            warnings.simplefilter("ignore", UserWarning)
            # numpy before 2.0 reads "1.5" into an int column with this warning.
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, DeprecationWarning) as exc:
        error = exc
    else:
        # Every field is 8 bytes wide, so one float view covers the rows;
        # an int that reads as infinite there is cleared below.
        if len(rows) == count and not np.isinf(rows.view(np.float64)).any():
            return rows
    converters = [int if dtype[k].kind == "i" else float for k in range(len(dtype))]
    found = _first_bad_line(lines, count, converters)
    if found is None and error is None:
        return rows
    # numpy refuses a few spellings Python reads, such as "1_0".
    offset, reason = found or (0, f"garbled rows from here: {error}")
    raise ValueError(f"{path}: line {start + offset + 1}: {where}{reason}")


def read_end(path: str | Path, fh: TextIO, start: int, rows: int) -> None:
    """Raise ValueError naming the file and the line when a non-blank line
    is left in ``fh`` after the last of ``rows`` rows; ``start`` is the
    0-based line after that row."""
    for line_no, line in enumerate(fh, start + 1):
        if line.strip():
            raise ValueError(f"{path}: line {line_no}: more than {rows} rows")


def save_grid(grid: CoverageGrid, path: str | Path) -> None:
    """Write a coverage grid to its CSV-based interchange format. A cell or
    neighbor id holding ``,``, ``;``, a NUL or a line break raises
    ValueError."""
    for cell in grid.cells:
        reject_separators("cell id", cell.cell_id, ",;\0")
        for nb_id in cell.neighbors:
            reject_separators("neighbor id", nb_id, ",;\0")
    spec = grid.spec
    lines = [_GRID_MAGIC]
    lines.append(f"m,{spec.m}")
    lines.append(f"pixel_size,{spec.pixel_size!r}")
    lines.append(f"origin,{spec.origin[0]!r},{spec.origin[1]!r}")
    lines.append(f"q_rxlevmin,{grid.q_rxlevmin!r}")
    lines.append(f"cells,{grid.n_cells}")
    for cell in grid.cells:
        az_deg = math.degrees(cell.azimuth)
        nbs = ";".join(cell.neighbors)
        lines.append(
            f"cell,{cell.cell_id},{cell.site_position[0]!r},"
            f"{cell.site_position[1]!r},{az_deg!r},{nbs}"
        )
    lines.append("rsrp")
    # Only the covered values and one NaN are keyed, so the lookup's
    # tables do not grow with the uncovered part of the stack.
    reprs = repr_lookup(np.append(grid.rsrp[~np.isnan(grid.rsrp)], np.nan))
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for layer in grid.rsrp:
            # Every NaN is keyed on the bits of np.nan; repr writes all "nan".
            fh.write(text_rows([reprs(np.where(np.isnan(layer), np.nan, layer))]))


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """The UTF-8 text file ``path``, open for reading. A byte that is not
    UTF-8, met anywhere in the ``with`` block, raises ValueError naming
    the file, the 1-based line and the byte, in place of the bare
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
                    raise ValueError(f"{path}: line {line_no}: {reason}") from None
        raise


def read_text(path: str | Path) -> str:
    """The whole text of the UTF-8 file ``path`` (:func:`open_text`)."""
    with open_text(path) as fh:
        return fh.read()


def garbled_line(path: str | Path, line_no: int, line: str, reason: str) -> ValueError:
    """The error for a garbled row of a text artifact, naming the file and
    the 1-based line."""
    return ValueError(f"{path}: line {line_no}: {reason}: {line!r}")


Header = dict[str, list[tuple[int, list[str]]]]


def read_header(
    path: str | Path, fh: TextIO, kind: str, magic: str, marker: str, keys: dict[str, bool]
) -> tuple[Header, int]:
    """The (1-based line, fields) of the rows of each key of ``keys`` in
    the header of the text artifact ``fh``, and the 0-based line after
    its ``marker`` row, where ``fh`` is left. ``keys`` maps each key to
    whether its row may repeat. A first row other than ``magic``, an
    unknown key, a repeat of a row that may not repeat and a missing
    marker raise ValueError naming the file, and the line for a row."""
    first = fh.readline().rstrip("\n")
    if first != magic:
        raise ValueError(f"{path}: not a hotloc {kind} file ({magic}): {first!r}")
    header: Header = {key: [] for key in keys}
    for line_no, line in enumerate(iter(fh.readline, ""), 2):
        line = line.rstrip("\n")
        if line == marker:
            return header, line_no
        fields = line.split(",")
        rows = header.get(fields[0])
        if rows is None:
            raise garbled_line(path, line_no, line, "unknown header row")
        if rows and not keys[fields[0]]:
            reason = f"header row already given on line {rows[0][0]}"
            raise garbled_line(path, line_no, line, reason)
        rows.append((line_no, fields))
    raise ValueError(f"{path}: missing {marker} section")


def header_row(header: Header, key: str, path: str | Path, convert=float, count: int = 1) -> list:
    """The ``count`` values of header row ``key`` of a text artifact, each
    passed through ``convert``. Raises ValueError naming the file and the
    row when the row is missing or garbled."""
    try:
        ((_, fields),) = header[key]
        if len(fields) != count + 1:
            raise ValueError
        return [convert(v) for v in fields[1:]]
    except ValueError:
        raise ValueError(f"{path}: missing or garbled {key!r} header row") from None


def read_spec(header: Header, path: str | Path, values_per_pixel: int) -> GridSpec:
    """The grid in the ``m``, ``pixel_size`` and ``origin`` header rows. A
    garbled row, a bad :class:`GridSpec` and an ``m`` whose rows of
    ``values_per_pixel`` values, two bytes each or more, would overrun
    the file raise ValueError naming the file."""
    m = header_row(header, "m", path, int)[0]
    pixel_size = header_row(header, "pixel_size", path)[0]
    origin = tuple(header_row(header, "origin", path, count=2))
    try:
        spec = GridSpec(m=m, pixel_size=pixel_size, origin=origin)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    need, size = 2 * values_per_pixel * m * m, Path(path).stat().st_size
    if need > size:
        raise ValueError(f"{path}: m={m} needs {need} bytes of rows or more, the file holds {size}")
    return spec


_GRID_KEYS = {
    **dict.fromkeys(("m", "pixel_size", "origin", "q_rxlevmin", "cells"), False), "cell": True
}


def load_grid(path: str | Path) -> CoverageGrid:
    """Read a coverage grid written by :func:`save_grid`. A file of another
    format version, a garbled, unknown or repeated header row, a
    non-finite header value, a repeated cell id, a neighbor that names no
    cell, an id that holds a NUL and a non-finite site or azimuth raise
    ValueError naming the file, and the line for a row; so do the grid
    :func:`read_spec` refuses, the layer rows :func:`read_rows` and
    :func:`read_end` reject, and a byte that is not UTF-8."""
    with open_text(path) as fh:
        header, start = read_header(path, fh, "coverage grid", _GRID_MAGIC, "rsrp", _GRID_KEYS)
        cells: list[CellInfo] = []
        # The 1-based line of each cell row, by cell id.
        cell_rows: dict[str, int] = {}
        for line_no, fields in header["cell"]:
            try:
                _, cell_id, x, y, az_deg, nbs = fields
                neighbors = tuple(n for n in nbs.split(";") if n)
                reject_separators("cell id", cell_id, "\0")
                for nb_id in neighbors:
                    reject_separators("neighbor id", nb_id, "\0")
                first = cell_rows.setdefault(cell_id, line_no)
                if first != line_no:
                    raise ValueError(f"cell id {cell_id!r} already given on line {first}")
                site, azimuth = (float(x), float(y)), math.radians(float(az_deg))
                cells.append(CellInfo(cell_id, site, azimuth, neighbors))
            except ValueError as exc:
                raise garbled_line(path, line_no, ",".join(fields), str(exc)) from None

        q_rxlevmin = header_row(header, "q_rxlevmin", path)[0]
        declared = header_row(header, "cells", path, int)[0]
        if declared != len(cells):
            raise ValueError(f"{path}: header declares {declared} cells, found {len(cells)}")
        for cell, (line_no, fields) in zip(cells, header["cell"]):
            unknown = [nb_id for nb_id in cell.neighbors if nb_id not in cell_rows]
            if unknown:
                reason = f"neighbors {unknown} are not cells of the grid"
                raise garbled_line(path, line_no, ",".join(fields), reason)
        spec = read_spec(header, path, len(cells))
        m = spec.m
        try:
            # The rows fill the stack in place; read_rows holds them to the
            # grid's rule of finite or NaN values.
            grid = CoverageGrid(spec, cells, np.zeros((len(cells), m, m)), q_rxlevmin)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        layer_row = np.dtype([("", np.float64)] * m)
        for k, cell in enumerate(cells):
            rows = read_rows(path, fh, start + k * m, m, layer_row, f"cell {cell.cell_id!r}: ")
            grid.rsrp[k] = rows.view(np.float64).reshape(m, m)
        read_end(path, fh, start + len(cells) * m, len(cells) * m)
    return grid
