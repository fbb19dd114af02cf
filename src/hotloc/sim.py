"""Seeded discrete-event traffic simulator.

An alternative KPI source to the analytic oracle: UEs arrive as a Poisson
stream, are dropped onto pixels sampled from the ground-truth weight map,
download a fixed-size file at a round-robin capacity share, optionally
move at constant speed with specular reflection at the map edges, and hand
over when a configured neighbor beats the serving cell by the margin. The
per-cell counters accumulated along the way are emitted as a KpiSet.

Tick order: arrivals, scheduling (rate share, counter sampling), file
completion, movement, handover checks. All randomness flows from one
seeded generator, so identical inputs give identical output.

The UEs in flight are held as parallel arrays (:class:`_ActiveUes`), one
entry per UE in admission order, and every phase but one is whole-array
work. Arrivals are admitted by their rank among the tick's arrivals for
the same best cell; counters are sampled with ``np.add.at`` on (serving
cell, zone); completions drop out by a boolean mask that keeps the order;
movement reflects all mobile UEs at once. A handover trigger depends only
on the serving cell and the pixel, so it is one lookup per UE in an int8
(cell, pixel) table built before the first tick. The switches themselves
resolve one triggering UE at a time in array order: whether a UE finds a
free slot in its target depends on the handovers before it in the same
tick. The result is the same, event for event, as a per-UE loop in that
order.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from hotloc.grid import (
    TA_ZONE_COUNT,
    UNCOVERED,
    CoverageGrid,
    ServerMaps,
    aoa_zone_layer,
    ta_zone_layer,
)
from hotloc.kpi import CellKpis, KpiSet, WeightMap

KPI_SOURCE_SIM = "sim"


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs.

    ``arrival_rate`` may be zero (an idle network is a valid, if dull,
    run); everything else defining capacity or time must be positive.
    ``max_ue_per_cell`` is the resource-slot cap used both for admission
    and for declaring a tick fully loaded.
    """

    arrival_rate: float = 2.0
    file_size_bits: float = 1e6
    mobile_fraction: float = 0.2
    speed_kmh: float = 8.33
    handover_margin_db: float = 6.0
    duration_s: float = 600.0
    tick_s: float = 1.0
    capacity_per_cell_bps: float = 2e7
    mu0_bps: float = 2e6
    max_ue_per_cell: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in (
            "arrival_rate", "file_size_bits", "mobile_fraction", "speed_kmh",
            "handover_margin_db", "duration_s", "tick_s", "capacity_per_cell_bps", "mu0_bps",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        for name in ("file_size_bits", "duration_s", "tick_s", "capacity_per_cell_bps", "mu0_bps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.mobile_fraction <= 1.0:
            raise ValueError("mobile_fraction must lie in [0, 1]")
        if self.speed_kmh < 0 or self.handover_margin_db < 0:
            raise ValueError("speed and handover margin must be non-negative")
        if self.max_ue_per_cell < 1:
            raise ValueError("max_ue_per_cell must be at least 1")

    @property
    def n_ticks(self) -> int:
        return max(1, int(round(self.duration_s / self.tick_s)))


@dataclass
class _ActiveUes:
    """The UEs whose download is in flight, as parallel arrays in admission
    order. ``pixel`` is the flat index ``i * m + j`` of the UE's pixel."""

    ue_id: np.ndarray
    x: np.ndarray
    y: np.ndarray
    pixel: np.ndarray
    serving: np.ndarray
    remaining_bits: np.ndarray
    mobile: np.ndarray
    heading: np.ndarray
    start_tick: np.ndarray

    @classmethod
    def empty(cls) -> _ActiveUes:
        return cls(
            ue_id=np.empty(0, dtype=np.int64),
            x=np.empty(0),
            y=np.empty(0),
            pixel=np.empty(0, dtype=np.intp),
            serving=np.empty(0, dtype=np.intp),
            remaining_bits=np.empty(0),
            mobile=np.empty(0, dtype=bool),
            heading=np.empty(0),
            start_tick=np.empty(0, dtype=np.int64),
        )

    def keep(self, mask: np.ndarray) -> _ActiveUes:
        return _ActiveUes(**{name: col[mask] for name, col in vars(self).items()})

    def extend(self, new: _ActiveUes) -> _ActiveUes:
        return _ActiveUes(
            **{name: np.concatenate((col, getattr(new, name))) for name, col in vars(self).items()}
        )


class _EventLog:
    def __init__(self, path: str | None, cell_ids: list[str]):
        self._fh = open(path, "w", newline="") if path else None
        self._writer = None
        # Cell index UNCOVERED (-1) picks the trailing empty name.
        self._names = [*cell_ids, ""]
        if self._fh:
            self._writer = csv.writer(self._fh)
            self._writer.writerow(["t", "event", "cell_id", "ue_id"])

    @property
    def enabled(self) -> bool:
        return self._writer is not None

    def write(self, t: int, events, cells: np.ndarray, ue_ids: np.ndarray) -> None:
        """One row per entry of ``cells``/``ue_ids``; ``events`` is one event
        name for all rows or an array of names."""
        if self._writer is None:
            return
        events = repeat(events) if isinstance(events, str) else events.tolist()
        names = [self._names[c] for c in cells.tolist()]
        self._writer.writerows(zip(repeat(t), events, names, ue_ids.tolist()))

    def close(self) -> None:
        if self._fh:
            self._fh.close()


def _admit(best: np.ndarray, attached: np.ndarray, max_ue: int) -> np.ndarray:
    """Admission mask for one tick's arrivals, in draw order: an arrival
    gets in when its best cell is covered and fewer earlier arrivals of the
    tick chose that cell than it has free slots."""
    order = np.argsort(best, kind="stable")
    ranked = best[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - np.searchsorted(ranked, ranked, side="left")
    return (best != UNCOVERED) & (rank < max_ue - attached[best])


def _reflect(pos: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Fold coordinates back into [lo, hi] by specular reflection, as often
    as it takes; the mask reports an odd number of reflections (the
    velocity component flips)."""
    flipped = np.zeros(pos.shape, dtype=bool)
    while True:
        below, above = pos < lo, pos > hi
        out = below | above
        if not np.count_nonzero(out):
            return pos, flipped
        pos = np.where(below, 2 * lo - pos, np.where(above, 2 * hi - pos, pos))
        flipped ^= out


def _neighbor_matrix(grid: CoverageGrid) -> np.ndarray:
    """Configured neighbor indices per cell in configured order, padded
    with -1 to the longest list."""
    lists = [[grid.cell_index(nb) for nb in cell.neighbors] for cell in grid.cells]
    matrix = np.full((len(lists), max(map(len, lists), default=0)), -1, dtype=np.intp)
    for idx, nbrs in enumerate(lists):
        matrix[idx, : len(nbrs)] = nbrs
    return matrix


def _handover_slots(rsrp: np.ndarray, neighbors: np.ndarray, margin_db: float) -> np.ndarray:
    """Per (cell, flat pixel): the column in ``neighbors`` of the neighbor a
    UE served by the cell at the pixel reports, or -1 when none beats the
    serving level by the margin. NaN levels read as -inf, and the first of
    equally strong neighbors wins. The table is as narrow as the zone
    layers (int8 up to 127 neighbors per cell)."""
    slots = np.full(rsrp.shape, -1, dtype=np.min_scalar_type(-1 - neighbors.shape[1]))
    for cell, nbrs in enumerate(neighbors):
        nbrs = nbrs[nbrs >= 0]
        if nbrs.size:
            serving = np.where(np.isnan(rsrp[cell]), -math.inf, rsrp[cell])
            candidates = np.where(np.isnan(rsrp[nbrs]), -math.inf, rsrp[nbrs])
            trigger = candidates.max(axis=0) > serving + margin_db
            slots[cell, trigger] = np.argmax(candidates[:, trigger], axis=0)
    return slots


# Cells per zone-layer call are chosen so that a call's float64
# temporaries hold at most this many elements (2 MB each). The desk grid
# takes one call per layer; at m=240 with 183 cells, one call for all
# cells took 1.1 s and a 423 MB allocation peak, blocks of this size
# 0.43 s and 30 MB.
ZONE_BLOCK_ELEMENTS = 1 << 18


def _zone_stacks(grid: CoverageGrid) -> tuple[np.ndarray, np.ndarray]:
    """The TA and AoA zone layers of every cell, flattened to (cell,
    pixel), built a block of cells per zone-layer call."""
    n_cells, pixels = grid.n_cells, grid.spec.m**2
    ta = np.empty((n_cells, pixels), dtype=np.int8)
    aoa = np.empty((n_cells, pixels), dtype=np.int8)
    step = max(1, ZONE_BLOCK_ELEMENTS // pixels)
    for first in range(0, n_cells, step):
        block = slice(first, first + step)
        sites = grid.sites(np.arange(n_cells)[block, None, None])
        ta[block] = ta_zone_layer(grid.spec, sites).reshape(-1, pixels)
        aoa[block] = aoa_zone_layer(grid.spec, sites).reshape(-1, pixels)
    return ta, aoa


def run_simulation(
    config: SimConfig,
    truth: WeightMap,
    grid: CoverageGrid,
    servers: ServerMaps,
    event_log_path: str | None = None,
) -> KpiSet:
    """Run the discrete-event loop and aggregate per-cell counters into a
    KpiSet (source ``"sim"``)."""
    spec = grid.spec
    if truth.spec != spec:
        raise ValueError("truth map does not match the grid")
    total_weight = truth.total()
    if total_weight <= 0:
        raise ValueError("truth map is all zero, nowhere to place UEs")
    if abs(total_weight - 1.0) > 1e-6:
        raise ValueError("truth map must be normalized")

    m = spec.m
    n_cells = len(grid.cells)
    rng = np.random.default_rng(config.seed)
    position_cdf = np.cumsum(truth.values.reshape(-1))
    position_cdf /= position_cdf[-1]

    # After a handover the serving cell is not the pixel's best server,
    # so the zones come from every cell's layers, not the serving tables.
    ta_layers, aoa_layers = _zone_stacks(grid)
    best_of = servers.best.reshape(-1).astype(np.intp)
    neighbors = _neighbor_matrix(grid)
    handover_slots = _handover_slots(
        grid.rsrp.reshape(n_cells, -1), neighbors, config.handover_margin_db
    )
    max_ue = config.max_ue_per_cell

    ta_counts = np.zeros((n_cells, TA_ZONE_COUNT), dtype=np.int64)
    aoa_counts = np.zeros((n_cells, 3), dtype=np.int64)
    reports = np.zeros((n_cells, n_cells), dtype=np.int64)
    full_ticks = np.zeros(n_cells, dtype=np.int64)
    # Cell and rate of every completed download, in completion order. Packed
    # at eight bytes each, they cost a busy desk hour's 138k completions
    # about 2 MB less peak memory than per-tick numpy chunks.
    done_cells = array("q")
    done_rates = array("d")

    ues = _ActiveUes.empty()
    attached = np.zeros(n_cells, dtype=np.int64)
    next_ue = 0
    step = config.speed_kmh / 3.6 * config.tick_s
    xmin, ymin = spec.origin
    center_x, center_y = (c.reshape(-1) for c in spec.center_coords())
    xmax, ymax = xmin + spec.extent, ymin + spec.extent
    log = _EventLog(event_log_path, [c.cell_id for c in grid.cells])

    try:
        for t in range(config.n_ticks):
            # Arrivals: positions from the traffic weights, admission by
            # coverage and slot availability.
            n_arrivals = int(rng.poisson(config.arrival_rate * config.tick_s))
            if n_arrivals:
                pix = np.searchsorted(position_cdf, rng.random(n_arrivals), side="right")
                pix = np.minimum(pix, position_cdf.size - 1)
                mobile = rng.random(n_arrivals) < config.mobile_fraction
                headings = rng.uniform(0.0, 2.0 * math.pi, n_arrivals)
                ue_ids = np.arange(next_ue, next_ue + n_arrivals)
                next_ue += n_arrivals
                best = best_of[pix]
                admitted = _admit(best, attached, max_ue)
                if log.enabled:
                    log.write(t, np.where(admitted, "arrive", "block"), best, ue_ids)
                if np.count_nonzero(admitted):
                    cells = best[admitted]
                    attached += np.bincount(cells, minlength=n_cells)
                    ues = ues.extend(
                        _ActiveUes(
                            ue_id=ue_ids[admitted],
                            x=center_x[pix[admitted]],
                            y=center_y[pix[admitted]],
                            pixel=pix[admitted],
                            serving=cells,
                            remaining_bits=np.full(cells.size, config.file_size_bits),
                            mobile=mobile[admitted],
                            heading=headings[admitted],
                            start_tick=np.full(cells.size, t),
                        )
                    )

            # Scheduling: equal capacity share capped at mu0; sample the
            # occupancy and load counters while the shares are known.
            full_ticks[attached >= max_ue] += 1
            serving, pixel = ues.serving, ues.pixel
            np.add.at(ta_counts, (serving, ta_layers[serving, pixel]), 1)
            np.add.at(aoa_counts, (serving, aoa_layers[serving, pixel] + 1), 1)
            rate = np.minimum(config.mu0_bps, config.capacity_per_cell_bps / attached[serving])
            ues.remaining_bits = np.maximum(0.0, ues.remaining_bits - rate * config.tick_s)

            # Completions.
            done = ues.remaining_bits <= 0.0
            if np.count_nonzero(done):
                cells = serving[done]
                elapsed = (t - ues.start_tick[done] + 1) * config.tick_s
                done_cells.extend(cells.tolist())
                done_rates.extend((config.file_size_bits / elapsed).tolist())
                attached -= np.bincount(cells, minlength=n_cells)
                log.write(t, "complete", cells, ues.ue_id[done])
                ues = ues.keep(~done)

            # Movement with specular reflection.
            if step > 0 and np.count_nonzero(ues.mobile):
                moving = ues.mobile
                heading = ues.heading[moving]
                x, flip_x = _reflect(ues.x[moving] + step * np.sin(heading), xmin, xmax)
                y, flip_y = _reflect(ues.y[moving] + step * np.cos(heading), ymin, ymax)
                heading = np.where(flip_x, -heading, heading)
                heading = np.where(flip_y, math.pi - heading, heading)
                ues.x[moving] = x
                ues.y[moving] = y
                ues.heading[moving] = np.mod(heading, 2.0 * math.pi)
                # Reflected coordinates are inside the map, so only the
                # far edge needs clamping into the last pixel.
                i = np.minimum(((x - xmin) / spec.pixel_size).astype(np.intp), m - 1)
                j = np.minimum(((y - ymin) / spec.pixel_size).astype(np.intp), m - 1)
                ues.pixel[moving] = i * m + j

            # Handover: the first strongest configured neighbor beating
            # serving by the margin files a report; the switch needs a free
            # slot, so switches resolve in array order.
            serving = ues.serving
            slot = handover_slots[serving, ues.pixel]
            trigger = np.flatnonzero(slot >= 0)
            if trigger.size:
                source = serving[trigger]
                target = neighbors[source, slot[trigger]]
                np.add.at(reports, (source, target), 1)
                switched = []
                for k, cell, dest in zip(trigger.tolist(), source.tolist(), target.tolist()):
                    if attached[dest] >= max_ue:
                        continue
                    attached[cell] -= 1
                    attached[dest] += 1
                    serving[k] = dest
                    switched.append(k)
                log.write(t, "handover", serving[switched], ues.ue_id[switched])
    finally:
        log.close()

    done_cells = np.frombuffer(done_cells, dtype=np.int64)
    done_rates = np.frombuffer(done_rates, dtype=np.float64)
    cells_out: dict[str, CellKpis] = {}
    for idx, cell in enumerate(grid.cells):
        occupancy = int(ta_counts[idx].sum())
        if occupancy:
            ta = ta_counts[idx] / occupancy
            aoa = aoa_counts[idx] / occupancy
        else:
            ta = np.zeros(TA_ZONE_COUNT)
            aoa = np.zeros(3)
        total_reports = int(reports[idx].sum())
        neighbor_level = {
            grid.cells[nb].cell_id: int(reports[idx, nb]) / total_reports
            for nb in np.flatnonzero(reports[idx]).tolist()
        }
        rates = done_rates[done_cells == idx]
        if rates.size:
            amt = float(np.mean(rates))
            hmt = float(rates.size / np.sum(1.0 / rates))
            hmt = min(hmt, amt)
        else:
            amt = hmt = 0.0
        cells_out[cell.cell_id] = CellKpis(
            ta=ta,
            aoa=aoa,
            neighbor_level=neighbor_level,
            load_time=float(full_ticks[idx] / config.n_ticks),
            amt_bps=amt,
            hmt_bps=hmt,
        )

    kpis = KpiSet(cells=cells_out, source=KPI_SOURCE_SIM, window_s=config.duration_s)
    kpis.validate(grid)
    return kpis
