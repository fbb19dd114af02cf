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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, TextIO

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
        if self.pixel_size <= 0:
            raise ValueError(f"pixel_size must be positive, got {self.pixel_size}")

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
    """
    filled = np.where(np.isnan(grid.rsrp), -np.inf, grid.rsrp)
    best = np.argmax(filled, axis=0).astype(np.int32)
    best_val = np.take_along_axis(filled, best[None].astype(np.intp), axis=0)[0]
    uncovered = ~np.isfinite(best_val) | (best_val < grid.q_rxlevmin)

    runner = filled.copy()
    ii, jj = np.meshgrid(np.arange(grid.spec.m), np.arange(grid.spec.m), indexing="ij")
    runner[best, ii, jj] = -np.inf
    second = np.argmax(runner, axis=0).astype(np.int32)
    second_val = np.take_along_axis(runner, second[None].astype(np.intp), axis=0)[0]
    second[~np.isfinite(second_val)] = NO_SECOND

    best[uncovered] = UNCOVERED
    second[uncovered] = NO_SECOND
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
# Coverage grid file format
#
# Plain-text, single file:
#   line 1: "hotloc-grid,1"                      (magic, format version)
#   header rows: m,<int> / pixel_size,<float> / origin,<x>,<y> /
#                q_rxlevmin,<float> / cells,<count>
#   cell rows:   cell,<id>,<x>,<y>,<azimuth_deg>,<nb1;nb2;...>
#   marker row:  rsrp
#   layer rows:  <cell_id>,<i>,<j>,<rsrp_dbm>
#
# Cell ids are distinct, every neighbor id names a cell row, and no id holds
# ",", ";", a NUL or a line break. Layer rows may come in any order, with
# blank lines between them. Each (cell, pixel) pair appears at most once,
# with 0 <= i, j < m. A pair that is absent, or whose value is nan, means
# no coverage from that cell at that pixel. The writer emits the covered
# pixels of each layer in row-major order, layer by layer.
# ---------------------------------------------------------------------------

_GRID_MAGIC = "hotloc-grid,1"

# The longest repr of a double, e.g. "-2.2250738585072014e-308".
_REPR_WIDTH = 24
# Distinct values formatted per batch, which bounds the Python strings
# alive at once.
_REPR_CHUNK = 1 << 12


def pixel_prefixes(m: int) -> list[bytes]:
    """The ``b"i,j,"`` prefixes of the data rows of an m x m raster, in
    row-major order."""
    coords = [b"%d," % n for n in range(m)]
    return list(map(b"".join, itertools.product(coords, repeat=2)))


def repr_lookup(values: np.ndarray) -> Callable[[np.ndarray], list[bytes]]:
    """A function that gives the ASCII ``repr`` of each float64 of an
    array whose values all occur in ``values``, as a list of bytes.

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

    def lookup(part: np.ndarray) -> list[bytes]:
        keys = np.asarray(part, np.float64).view(np.uint64)
        return texts[np.searchsorted(distinct, keys)].tolist()

    return lookup


def reject_separators(what: str, name: str, separators: str) -> None:
    """Raise ValueError naming ``name`` when it holds one of ``separators``
    or a line break, which would split or merge the fields and rows of a
    text artifact. A NUL, passed as a separator, would merge ids: numpy
    drops trailing NULs from the strings it reads."""
    found = "".join(sorted(set(name) & set(separators + "\n\r")))
    if found:
        raise ValueError(f"{what} {name!r} contains {found!r}, which the file format cannot hold")


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
    pixels = np.array(pixel_prefixes(spec.m), dtype=object)
    layers = grid.rsrp.reshape(grid.n_cells, -1)
    reprs = repr_lookup(layers[~np.isnan(layers)])
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for cell, layer in zip(grid.cells, layers):
            covered = ~np.isnan(layer)
            if not covered.any():
                continue
            # The cell id leads every row: it opens the block and follows
            # each line break of the join.
            lead = f"{cell.cell_id},".encode()
            rows = map(bytes.__add__, pixels[covered].tolist(), reprs(layer[covered]))
            fh.write(lead + (b"\n" + lead).join(rows) + b"\n")


def header_row(
    header: dict[str, list[str]], key: str, path: str | Path, convert=float, count: int = 1
) -> list:
    """The ``count`` values of header row ``key`` of a text artifact, each
    passed through ``convert``. Raises ValueError naming the file and the
    row when the row is missing or garbled."""
    values = header.get(key)
    try:
        if values is None or len(values) != count:
            raise ValueError
        return [convert(v) for v in values]
    except ValueError:
        raise ValueError(f"{path}: missing or garbled {key!r} header row") from None


def garbled_line(path: str | Path, line_no: int, line: str, reason: str) -> ValueError:
    """The error for a garbled row of a text artifact, naming the file and
    the 1-based line."""
    return ValueError(f"{path}: line {line_no}: {reason}: {line!r}")


def read_header_lines(fh: TextIO, marker: str) -> list[str]:
    """The lines of the open text file ``fh`` up to and including the first
    one equal to ``marker``, or to the end of the file, without their line
    ends. ``fh`` is left at the line after the marker."""
    lines = []
    for line in iter(fh.readline, ""):
        lines.append(line.rstrip("\n"))
        if lines[-1] == marker:
            break
    return lines


_PIXEL_ROW = np.dtype([("i", np.intp), ("j", np.intp), ("v", np.float64)])
# Data rows parsed per np.loadtxt call, which bounds the parsed rows alive
# at once.
_ROW_BLOCK = 1 << 14


def _row_blocks(fh: TextIO, dtype: np.dtype):
    """The data rows left in ``fh`` parsed as ``dtype``, in blocks of up to
    ``_ROW_BLOCK`` rows; loadtxt leaves ``fh`` at the row after a block."""
    while True:
        with warnings.catch_warnings():
            # numpy 1.x reads "1.5" into an integer column with only a
            # DeprecationWarning; the rows must hold plain integers. A
            # block without rows, or with blank lines, is valid.
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("ignore", UserWarning)
            block = np.loadtxt(
                fh, dtype=dtype, delimiter=",", comments=None, ndmin=1, max_rows=_ROW_BLOCK
            )
        yield block
        # max_rows counts data rows only, so a short block is the last.
        if len(block) < _ROW_BLOCK:
            return


def scatter_pixel_rows(
    path: str | Path,
    fh: TextIO,
    first_line: int,
    out: np.ndarray,
    cell_ids: list[str] | None = None,
    weights: bool = False,
) -> None:
    """Read the data rows left in the open text file ``fh`` and write their
    values into ``out``. Rows are ``i,j,value`` into an (m, m) raster, or
    ``<cell_id>,i,j,value`` into the (n, m, m) stack whose layer k belongs
    to ``cell_ids[k]``; those ids must hold no NUL character, since numpy
    drops trailing NULs from its strings. ``first_line`` is the 0-based
    line number of the first row. Empty lines are skipped.

    Every row must parse, name a known cell, hold indices in ``[0, m)``,
    name a pixel no earlier row named and hold a finite or NaN value; with
    ``weights`` its value must be finite and non-negative. The rows are
    parsed, checked and scattered in blocks; only when that fails does
    :func:`_first_bad_row` read them again one by one to raise a
    ValueError naming the file and the first bad line."""
    m = out.shape[-1]
    start = fh.tell()
    dtype = _PIXEL_ROW
    if cell_ids is not None:
        # One character wider than the longest known id, so that a longer
        # id is cut to a string that matches none.
        width = max(map(len, cell_ids), default=0) + 1
        ids = np.array(cell_ids, dtype=f"U{width}")
        layers = np.argsort(ids)
        known = ids[layers]
        dtype = np.dtype([("cell", known.dtype), *_PIXEL_ROW.descr])
    taken = np.zeros(out.size, dtype=bool)
    rows = 0
    try:
        for block in _row_blocks(fh, dtype):
            i, j, v = block["i"], block["j"], block["v"]
            good = (i >= 0) & (i < m) & (j >= 0) & (j < m) & ~np.isinf(v)
            if weights:
                good &= np.isfinite(v) & (v >= 0)
            if cell_ids is not None:
                left = np.searchsorted(known, block["cell"], "left")
                good &= np.searchsorted(known, block["cell"], "right") > left
            if not good.all():
                break
            flat = i * m + j
            if cell_ids is not None:
                flat += layers[left] * (m * m)
            taken[flat] = True
            np.put(out, flat, v)
            rows += len(block)
        else:
            if np.count_nonzero(taken) == rows:
                return
    except (ValueError, DeprecationWarning) as exc:
        # The scan passes the few spellings Python reads and numpy does
        # not, such as "1_0".
        raise _first_bad_row(path, fh, start, first_line, m, cell_ids, weights) or ValueError(
            f"{path}: garbled data row: {exc}"
        ) from None
    raise _first_bad_row(path, fh, start, first_line, m, cell_ids, weights)


def _first_bad_row(
    path: str | Path,
    fh: TextIO,
    start: int,
    first_line: int,
    m: int,
    cell_ids: list[str] | None,
    weights: bool,
) -> ValueError | None:
    """The error for the first data row from position ``start`` of ``fh``
    that does not parse, names an unknown cell, a pixel outside the grid
    or a pixel already given, or holds an infinite value (with ``weights``,
    a negative or non-finite one), or None when every row is good."""
    fh.seek(start)
    known = set(cell_ids or ())
    seen: dict[tuple, int] = {}
    for line_no, line in enumerate(fh, first_line + 1):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            if cell_ids is None:
                cell_id = None
                i, j, value = line.split(",")
            else:
                cell_id, i, j, value = line.split(",")
            number = float(value)
            if weights and not (math.isfinite(number) and number >= 0):
                raise ValueError("weight must be finite and non-negative")
            if math.isinf(number):
                raise ValueError("value must be finite or NaN")
            if cell_id is not None and cell_id not in known:
                raise ValueError(f"unknown cell id {cell_id!r}")
            pixel = (int(i), int(j))
            if not (0 <= pixel[0] < m and 0 <= pixel[1] < m):
                raise ValueError(f"pixel {pixel} outside the {m}x{m} grid")
            first = seen.setdefault((cell_id, pixel), line_no)
            if first != line_no:
                raise ValueError(f"pixel {pixel} already given on line {first}")
        except ValueError as exc:
            return garbled_line(path, line_no, line, str(exc))
    return None


def load_grid(path: str | Path) -> CoverageGrid:
    """Read a coverage grid written by :func:`save_grid`. A garbled header
    row, a repeated cell id, a neighbor that names no cell and an id that
    holds a NUL raise ValueError naming the file, and the line for a cell
    row; so do the data rows :func:`scatter_pixel_rows` rejects."""
    with open(path, encoding="utf-8") as fh:
        lines = read_header_lines(fh, "rsrp")
        if not lines or lines[0] != _GRID_MAGIC:
            raise ValueError(f"{path}: not a hotloc coverage grid file")

        header: dict[str, list[str]] = {}
        cells: list[CellInfo] = []
        # The 0-based line of each cell row, by cell id.
        cell_rows: dict[str, int] = {}
        row = 1
        try:
            while row < len(lines) and lines[row] != "rsrp":
                parts = lines[row].split(",")
                if parts[0] == "cell":
                    _, cell_id, x, y, az_deg, nbs = parts
                    neighbors = tuple(n for n in nbs.split(";") if n)
                    reject_separators("cell id", cell_id, "\0")
                    for nb_id in neighbors:
                        reject_separators("neighbor id", nb_id, "\0")
                    first = cell_rows.setdefault(cell_id, row)
                    if first != row:
                        raise ValueError(f"cell id {cell_id!r} already given on line {first + 1}")
                    cells.append(
                        CellInfo(
                            cell_id=cell_id,
                            site_position=(float(x), float(y)),
                            azimuth=math.radians(float(az_deg)),
                            neighbors=neighbors,
                        )
                    )
                else:
                    header[parts[0]] = parts[1:]
                row += 1
        except ValueError as exc:
            raise garbled_line(path, row + 1, lines[row], str(exc)) from None
        if row == len(lines):
            raise ValueError(f"{path}: missing rsrp section")

        spec = GridSpec(
            m=header_row(header, "m", path, int)[0],
            pixel_size=header_row(header, "pixel_size", path)[0],
            origin=tuple(header_row(header, "origin", path, count=2)),
        )
        q_rxlevmin = header_row(header, "q_rxlevmin", path)[0]
        declared = header_row(header, "cells", path, int)[0]
        if declared != len(cells):
            raise ValueError(f"{path}: header declares {declared} cells, found {len(cells)}")
        for cell in cells:
            unknown = [nb_id for nb_id in cell.neighbors if nb_id not in cell_rows]
            if unknown:
                line = cell_rows[cell.cell_id]
                raise garbled_line(
                    path, line + 1, lines[line], f"neighbors {unknown} are not cells of the grid"
                )

        rsrp = np.full((len(cells), spec.m, spec.m), np.nan)
        scatter_pixel_rows(path, fh, row + 1, rsrp, list(cell_rows))

    return CoverageGrid(
        spec=spec,
        cells=cells,
        rsrp=rsrp,
        q_rxlevmin=q_rxlevmin,
    )
