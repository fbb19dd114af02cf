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

The UEs in flight are held as one int64 and one float64 block
(:class:`_ActiveUes`), one column per UE in admission order, and every
phase but one is whole-array work; a tick's cost is mostly its count of
numpy calls, so each phase touches each block once. A tick's arrivals
take one draw of 3n uniforms and are admitted by their rank among the
tick's arrivals for the same best cell. The TA and AoA samples are one
lookup per UE in an int8 (cell, pixel) table of zone codes and one
``np.add.at`` on (serving cell, code); the TA and AoA histograms are the
code counts' sums at the end of the run. The per-cell rate share is
computed once per tick and drained from every UE; completions drop out
of both blocks at once, in order; movement moves the (2, k) positions of
the k mobile UEs together and reflects only when one has left the map.
A handover trigger depends only on the serving cell and the pixel, so it
is one lookup per UE in an int8 (cell, pixel) table built before the
first tick. The switches themselves resolve one triggering UE at a time
in array order: whether a UE finds a free slot in its target depends on
the handovers before it in the same tick. The result is the same, event
for event, as a per-UE loop in that order.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from hotloc.bounds import MAX_DB, MAX_MAGNITUDE, Bounded, ConfigError, bounded
from hotloc.grid import (
    TA_ZONE_COUNT,
    UNCOVERED,
    CoverageGrid,
    GridSpec,
    ServerMaps,
    aoa_zone_layer,
    ta_zone_layer,
)
from hotloc.kpi import CellKpis, KpiSet, WeightMap

KPI_SOURCE_SIM = "sim"

# The tick loop costs about 0.15 ms a tick on desk (its busy hour of 3,600
# ticks takes about 0.55 s of CPU on a Xeon vCPU), so a run of this many
# ticks takes minutes.
MAX_TICKS = 10**6
# Each arrival of a tick takes about 100 bytes in the tick's draw and
# admission arrays, so a tick of this many arrivals takes about 100 MB.
MAX_ARRIVALS_PER_TICK = 10**6


@dataclass(frozen=True)
class SimConfig(Bounded):
    """Simulation knobs.

    ``arrival_rate`` may be zero (an idle network is a valid, if dull,
    run); everything else defining capacity or time must be positive.
    ``max_ue_per_cell`` is the resource-slot cap used both for admission
    and for declaring a tick fully loaded. A run takes at most
    :data:`MAX_TICKS` ticks and :data:`MAX_ARRIVALS_PER_TICK` arrivals in
    the mean per tick.
    """

    arrival_rate: float = bounded(2.0, ge=0)
    # The harmonic mean divides by file_size_bits over a download's time.
    file_size_bits: float = bounded(1e6, ge=1.0, le=MAX_MAGNITUDE)
    mobile_fraction: float = bounded(0.2, ge=0, le=1)
    speed_kmh: float = bounded(8.33, ge=0)
    handover_margin_db: float = bounded(6.0, ge=0, le=MAX_DB)
    duration_s: float = bounded(600.0, gt=0)
    tick_s: float = bounded(1.0, gt=0)
    capacity_per_cell_bps: float = bounded(2e7, gt=0, le=MAX_MAGNITUDE)
    mu0_bps: float = bounded(2e6, gt=0, le=MAX_MAGNITUDE)
    # Slot counts are compared with int64 counters.
    max_ue_per_cell: int = bounded(50, ge=1, le=np.iinfo(np.int64).max)
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        ticks = self.duration_s / self.tick_s
        if ticks > MAX_TICKS:
            raise ConfigError(("duration_s", "tick_s"), f"must be at most {MAX_TICKS} ticks, got {ticks:g}")
        arrivals = self.arrival_rate * self.tick_s
        if arrivals > MAX_ARRIVALS_PER_TICK:
            raise ConfigError(
                ("arrival_rate", "tick_s"),
                f"must give at most {MAX_ARRIVALS_PER_TICK} arrivals per tick, got {arrivals:g}",
            )

    @property
    def n_ticks(self) -> int:
        return max(1, int(round(self.duration_s / self.tick_s)))


# Rows of the packed UE blocks of :class:`_ActiveUes`.
UE_ID, PIXEL, SERVING, START_TICK = range(4)
X, Y, HEADING, REMAINING_BITS = range(4)


@dataclass
class _ActiveUes:
    """The UEs whose download is in flight, one column per UE in admission
    order: ``ints`` holds the rows :data:`UE_ID`, :data:`PIXEL` (the flat
    index ``i * m + j``), :data:`SERVING` and :data:`START_TICK`, ``floats``
    the rows :data:`X`, :data:`Y`, :data:`HEADING` and
    :data:`REMAINING_BITS`, and ``mobile`` marks the UEs that move."""

    ints: np.ndarray
    floats: np.ndarray
    mobile: np.ndarray

    @classmethod
    def empty(cls) -> _ActiveUes:
        return cls(np.empty((4, 0), dtype=np.int64), np.empty((4, 0)), np.empty(0, dtype=bool))

    def keep(self, index: np.ndarray) -> _ActiveUes:
        return _ActiveUes(
            self.ints.take(index, axis=1), self.floats.take(index, axis=1), self.mobile.take(index)
        )

    def extend(self, new: _ActiveUes) -> _ActiveUes:
        return _ActiveUes(
            np.concatenate((self.ints, new.ints), axis=1),
            np.concatenate((self.floats, new.floats), axis=1),
            np.concatenate((self.mobile, new.mobile)),
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


def _reflect(
    pos: np.ndarray, lo: float | np.ndarray, hi: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fold coordinates back into [lo, hi] by specular reflection, as often
    as it takes; the mask reports an odd number of reflections (the
    velocity component flips). The bounds broadcast against ``pos``."""
    flipped = np.zeros(pos.shape, dtype=bool)
    while True:
        below, above = pos < lo, pos > hi
        out = below | above
        if not np.count_nonzero(out):
            return pos, flipped
        pos = np.where(below, 2 * lo - pos, np.where(above, 2 * hi - pos, pos))
        flipped ^= out


def check_step(config: SimConfig, spec: GridSpec) -> None:
    """Raise ConfigError naming ``sim.speed_kmh``, ``sim.tick_s`` and
    ``grid.extent_m`` when a UE moves more than twice the map's extent in
    one tick. A shorter move folds at most twice in :func:`_reflect`; a
    step near the float range never settles there."""
    step = config.speed_kmh / 3.6 * config.tick_s
    if step > 2.0 * spec.extent:
        raise ConfigError(
            ("sim.speed_kmh", "sim.tick_s", "grid.extent_m"),
            f"moves a UE {step:g} m per tick, more than twice the map's extent of {spec.extent:g} m",
        )


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
# A (TA ring, AoA zone) pair has one of this many codes.
ZONE_CODES = TA_ZONE_COUNT * 3


def _zone_stacks(grid: CoverageGrid) -> np.ndarray:
    """The zone code ``ta * 3 + aoa + 1`` of every (cell, flat pixel): the
    column of a UE's sample in the (cell, :data:`ZONE_CODES`) counts. The
    TA and AoA zone layers are built a block of cells per call."""
    n_cells, pixels = grid.n_cells, grid.spec.m**2
    codes = np.empty((n_cells, pixels), dtype=np.int8)
    step = max(1, ZONE_BLOCK_ELEMENTS // pixels)
    for first in range(0, n_cells, step):
        block = slice(first, first + step)
        sites = grid.sites(np.arange(n_cells)[block, None, None])
        code = ta_zone_layer(grid.spec, sites) * np.int8(3)
        code += aoa_zone_layer(grid.spec, sites)
        code += np.int8(1)
        codes[block] = code.reshape(-1, pixels)
    return codes


def run_simulation(
    config: SimConfig,
    truth: WeightMap,
    grid: CoverageGrid,
    servers: ServerMaps,
    event_log_path: str | None = None,
) -> KpiSet:
    """Run the discrete-event loop and aggregate per-cell counters into a
    KpiSet (source ``"sim"``). A step the map cannot hold
    (:func:`check_step`) raises ConfigError."""
    spec = grid.spec
    check_step(config, spec)
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
    last_pixel = position_cdf.size - 1

    # After a handover the serving cell is not the pixel's best server,
    # so the zones come from every cell's layers, not the serving tables.
    zone_codes = _zone_stacks(grid)
    best_of = servers.best.reshape(-1).astype(np.intp)
    neighbors = _neighbor_matrix(grid)
    handover_slots = _handover_slots(
        grid.rsrp.reshape(n_cells, -1), neighbors, config.handover_margin_db
    )
    max_ue = config.max_ue_per_cell

    zone_counts = np.zeros((n_cells, ZONE_CODES), dtype=np.int64)
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
    centers = np.stack([c.reshape(-1) for c in spec.center_coords()])
    lo = np.array(spec.origin).reshape(2, 1)
    hi = lo + spec.extent
    log = _EventLog(event_log_path, [c.cell_id for c in grid.cells])

    try:
        for t in range(config.n_ticks):
            # Arrivals: positions from the traffic weights, admission by
            # coverage and slot availability. One draw of 3n uniforms is
            # the position, mobility and heading draws of n arrivals in
            # turn (a heading is 2*pi*u, as uniform(0, 2*pi) makes it).
            n_arrivals = int(rng.poisson(config.arrival_rate * config.tick_s))
            if n_arrivals:
                draw = rng.random(3 * n_arrivals)
                pix = np.minimum(
                    np.searchsorted(position_cdf, draw[:n_arrivals], side="right"), last_pixel
                )
                best = best_of[pix]
                admitted = _admit(best, attached, max_ue)
                if log.enabled:
                    ue_ids = np.arange(next_ue, next_ue + n_arrivals)
                    log.write(t, np.where(admitted, "arrive", "block"), best, ue_ids)
                new = admitted.nonzero()[0]
                if new.size:
                    cells = best.take(new)
                    attached += np.bincount(cells, minlength=n_cells)
                    ints = np.empty((4, new.size), dtype=np.int64)
                    ints[UE_ID] = new + next_ue
                    ints[PIXEL] = pix.take(new)
                    ints[SERVING] = cells
                    ints[START_TICK] = t
                    floats = np.empty((4, new.size))
                    floats[X : Y + 1] = centers.take(ints[PIXEL], axis=1)
                    floats[HEADING] = draw.take(new + 2 * n_arrivals) * (2.0 * math.pi)
                    floats[REMAINING_BITS] = config.file_size_bits
                    mobile = draw.take(new + n_arrivals) < config.mobile_fraction
                    ues = ues.extend(_ActiveUes(ints, floats, mobile))
                next_ue += n_arrivals

            # Scheduling: equal capacity share capped at mu0; sample the
            # occupancy and load counters while the shares are known.
            full_ticks += attached >= max_ue
            serving, pixel = ues.ints[SERVING], ues.ints[PIXEL]
            np.add.at(zone_counts, (serving, zone_codes[serving, pixel]), 1)
            # The bits each cell drains from each of its UEs; an empty
            # cell divides by one, not zero, and drains nothing.
            drain = np.minimum(config.mu0_bps, config.capacity_per_cell_bps / np.maximum(attached, 1))
            drain *= config.tick_s
            remaining = ues.floats[REMAINING_BITS]
            remaining -= drain[serving]

            # Completions.
            done = remaining <= 0.0
            if np.count_nonzero(done):
                gone = done.nonzero()[0]
                cells = serving.take(gone)
                elapsed = (t - ues.ints[START_TICK].take(gone) + 1) * config.tick_s
                done_cells.frombytes(cells.tobytes())
                done_rates.frombytes((config.file_size_bits / elapsed).tobytes())
                attached -= np.bincount(cells, minlength=n_cells)
                if log.enabled:
                    log.write(t, "complete", cells, ues.ints[UE_ID].take(gone))
                ues = ues.keep((~done).nonzero()[0])

            # Movement with specular reflection, on the (2, k) positions of
            # the k mobile UEs.
            if step > 0 and np.count_nonzero(ues.mobile):
                moving = ues.mobile.nonzero()[0]
                pos = ues.floats[X : Y + 1].take(moving, axis=1)
                heading = ues.floats[HEADING].take(moving)
                pos[0] += step * np.sin(heading)
                pos[1] += step * np.cos(heading)
                if np.count_nonzero((pos < lo) | (pos > hi)):
                    pos, flipped = _reflect(pos, lo, hi)
                    heading = np.where(flipped[0], -heading, heading)
                    heading = np.where(flipped[1], math.pi - heading, heading)
                ues.floats[X : Y + 1, moving] = pos
                ues.floats[HEADING, moving] = np.mod(heading, 2.0 * math.pi)
                # Reflected coordinates are inside the map, so only the
                # far edge needs clamping into the last pixel.
                i, j = np.minimum(((pos - lo) / spec.pixel_size).astype(np.intp), m - 1)
                ues.ints[PIXEL, moving] = i * m + j

            # Handover: the first strongest configured neighbor beating
            # serving by the margin files a report; the switch needs a free
            # slot, so switches resolve in array order.
            serving = ues.ints[SERVING]
            slot = handover_slots[serving, ues.ints[PIXEL]]
            trigger = (slot >= 0).nonzero()[0]
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
                if log.enabled:
                    log.write(t, "handover", serving[switched], ues.ints[UE_ID, switched])
    finally:
        log.close()

    done_cells = np.frombuffer(done_cells, dtype=np.int64)
    done_rates = np.frombuffer(done_rates, dtype=np.float64)
    zone_counts = zone_counts.reshape(n_cells, TA_ZONE_COUNT, 3)
    ta_counts, aoa_counts = zone_counts.sum(axis=2), zone_counts.sum(axis=1)
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
