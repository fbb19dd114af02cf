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

The UEs in flight are held as three blocks (:class:`_ActiveUes`), one
column per UE in admission order, and every phase but one is whole-array
work; a tick's cost is mostly its count of numpy calls, so each phase
touches each block once.

A UE's place is one flat key, ``serving * m**2 + pixel``, into two
(cell, pixel) tables built before the first tick: the int8 code of the
TA ring and AoA zone (the TA rings once per site), and the column of the
neighbor the UE reports (int8 up to 127 neighbors per cell). A tick reads
a table with one ``take`` on its flat view. The UE-ticks' keys are kept
and their zone codes counted some thousands at a time, in one bincount
over ``cell * ZONE_CODES + code`` (:class:`_ZoneSamples`); the TA and AoA
histograms are the code counts' sums at the end of the run. A handover
adds ``(dest - cell) * m**2`` to the switching UE's keys.

The generator is read only for arrivals, and an arrival's pixel, best
cell, mobility and heading follow from its draws alone, as do its rank
among the arrivals of its tick with the same best cell and the pixels it
moves through. So the ticks run in blocks of about
:data:`BLOCK_ARRIVALS` arrivals (:func:`_block_ticks`). A block first
makes each of its ticks' draws in tick order, a Poisson count and then
one draw of 3n uniforms (the position, mobility and heading draws of n
arrivals in turn), and derives the columns, ranks and keys of all its
arrivals in whole-block calls (:class:`_Arrivals`). A tick then admits
the arrivals whose rank is below their best cell's free slots and takes
their columns in one go. The event log is written a block at a time.

A UE's keys are a queue: row 0 holds this tick's key and row r the key r
ticks on. A mover's rows come from its track, made with its arrival
block by moving it step by step at its velocity, with specular
reflection at the map edges (:class:`_Tracks`); a UE that stays holds
one key in every row. Movement is then one shift of the queue by a row.
The queue holds a row for every tick a download can last
(:func:`_lifetime`): no cell holds more than ``max_ue_per_cell`` UEs, so
every tick drains at least ``min(mu0, capacity / max_ue_per_cell) *
tick_s`` from each UE, and as rounding is monotone no download outlives
the first k at which k such drains empty its file; on the desk busy hour
that is 10 ticks. When the bound is above :data:`TRACK_CAP`, each UE
holds one key, and every mover makes one move a tick, by the same
builder, from the position, velocity and heading the last left it at
(:data:`MOVER`).

The per-cell rate share is computed once per tick and drained from every
UE; completions drop out of the blocks at once, in order, with their
elapsed ticks, and their rates are formed at the end of the run. A
handover trigger depends only on the key. The switches resolve one
triggering UE at a time in array order: whether a UE finds a free slot
in its target depends on the handovers before it in the same tick. The
result is the same, event for event, as a per-UE loop in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

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
    text_rows,
)
from hotloc.kpi import CellKpis, KpiSet, WeightMap

KPI_SOURCE_SIM = "sim"

# The tick loop costs about 0.05 ms a tick on desk (its busy hour of 3,600
# ticks takes about 0.19 s of CPU on a Xeon vCPU), so a run of this many
# ticks takes about a minute.
MAX_TICKS = 10**6
# A tick with more than BLOCK_ARRIVALS arrivals in the mean is a block of
# its own. At the peak its arrivals take about 290 bytes each when every
# one moves and holds TRACK_CAP keys, in the block's draws, columns, keys
# and tracks or in their admitted copies in the UE blocks, so a tick of
# this many arrivals takes about 290 MB.
MAX_ARRIVALS_PER_TICK = 10**6
# Arrivals a block of ticks holds in the mean. A block's draws, columns
# and keys take about 160 bytes an arrival while they are made on the
# desk busy hour (10 keys, a fifth of the arrivals move), and about 290
# when every arrival moves and holds TRACK_CAP keys. Blocks of 1024 to
# 16384 arrivals ran the desk busy hour (40 arrivals a tick) in the same
# CPU time within the host's noise; blocks of 256, which make their
# movers' tracks every 6 ticks, took about a fifth more.
BLOCK_ARRIVALS = 1 << 10
# Keys a UE's queue holds at most (see :func:`_lifetime`). Above it the
# movers move tick by tick: a queue refilled when it runs out would make
# each tick a build of TRACK_CAP moves for the movers of one admission
# tick, and an hour of 250-tick downloads on desk (2 arrivals/s, a fifth
# moving) took 0.50 s of CPU that way against 0.28 s tick by tick.
TRACK_CAP = 16


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


def _block_ticks(config: SimConfig) -> int:
    """Ticks per block: as many as hold :data:`BLOCK_ARRIVALS` arrivals in
    the mean, at least one and at most the run."""
    mean = config.arrival_rate * config.tick_s
    if mean * config.n_ticks <= BLOCK_ARRIVALS:
        return config.n_ticks
    return max(1, int(BLOCK_ARRIVALS / mean))


# Rows of the packed UE blocks of :class:`_ActiveUes`. MOVER and the float
# rows from X on are held only in a run whose movers move tick by tick.
UE_ID, SERVING, START_TICK, MOVER = range(4)
REMAINING_BITS, X, Y, VX, VY, HEADING = range(6)


@dataclass
class _ActiveUes:
    """The UEs whose download is in flight, one column per UE in admission
    order. ``ints`` holds the rows :data:`UE_ID`, :data:`SERVING` and
    :data:`START_TICK`; ``keys`` the UE's key ``serving * m**2 + pixel``
    for this tick in row 0 and for the ticks after it in the rows below
    (:class:`_Tracks`); ``floats`` the row :data:`REMAINING_BITS`. When
    movers move tick by tick, :data:`MOVER` is 1 for a UE that moves, and
    the rows :data:`X` to :data:`HEADING` hold the position, step velocity
    and heading its key was made from."""

    ints: np.ndarray
    keys: np.ndarray
    floats: np.ndarray

    def part(self, start: int, end: int) -> _ActiveUes:
        return _ActiveUes(self.ints[:, start:end], self.keys[:, start:end], self.floats[:, start:end])

    def keep(self, index: np.ndarray) -> _ActiveUes:
        return _ActiveUes(
            self.ints.take(index, axis=1), self.keys.take(index, axis=1), self.floats.take(index, axis=1)
        )

    def extend(self, new: _ActiveUes) -> _ActiveUes:
        return _ActiveUes(
            np.concatenate((self.ints, new.ints), axis=1),
            np.concatenate((self.keys, new.keys), axis=1),
            np.concatenate((self.floats, new.floats), axis=1),
        )


class _Completions:
    """Cell and elapsed ticks of every completed download, in completion
    order.

    They are written into chunks of at least :attr:`CHUNK` entries, a new
    chunk whenever a tick's completions do not fit in the last, and are
    never copied: a buffer grown a tick at a time is copied among a block
    of ticks' arrays and leaves holes in the heap, which cost the desk
    busy hour about 1.2 MB of peak RSS, and joining the chunks at the end
    of the run would cost as much again."""

    CHUNK = 1 << 14

    def __init__(self):
        self.parts: list[tuple[np.ndarray, np.ndarray]] = []
        self.count = 0
        self.cells = np.empty(0, dtype=np.int64)
        self.elapsed = np.empty(0, dtype=np.int64)

    def add(self, cells: np.ndarray, elapsed: np.ndarray) -> None:
        end = self.count + cells.size
        if end > self.cells.size:
            self.parts.append((self.cells[: self.count], self.elapsed[: self.count]))
            size = max(cells.size, self.CHUNK)
            self.count, end = 0, cells.size
            self.cells = np.empty(size, dtype=np.int64)
            self.elapsed = np.empty(size, dtype=np.int64)
        self.cells[self.count : end] = cells
        self.elapsed[self.count : end] = elapsed
        self.count = end

    def rates_of(self, cell: int, file_size_bits: float, tick_s: float) -> np.ndarray:
        """The rates ``file_size_bits / (elapsed * tick_s)`` of the cell's
        completions, in completion order."""
        parts = [*self.parts, (self.cells[: self.count], self.elapsed[: self.count])]
        return np.concatenate(
            [file_size_bits / (elapsed[cells == cell] * tick_s) for cells, elapsed in parts]
        )


class _ZoneSamples:
    """The (serving cell, zone code) counts of every UE-tick. A tick hands
    in a copy of its UEs' keys; once they pass :attr:`LIMIT` entries, and
    at the end of the run, the code of each is read from the flat
    (cell, pixel) zone-code table and all are counted in one bincount
    over ``cell * ZONE_CODES + code``."""

    LIMIT = 1 << 14

    def __init__(self, zone_codes: np.ndarray):
        n_cells, self.m2 = zone_codes.shape
        self.codes = zone_codes.reshape(-1)
        self.counts = np.zeros((n_cells, ZONE_CODES), dtype=np.int64)
        self.keys: list[np.ndarray] = []
        self.size = 0

    def add(self, keys: np.ndarray) -> None:
        self.keys.append(keys.copy())
        self.size += keys.size
        if self.size > self.LIMIT:
            self.count()

    def count(self) -> np.ndarray:
        """The counts so far, (cell, :data:`ZONE_CODES`)."""
        if self.keys:
            keys = np.concatenate(self.keys, dtype=np.intp)
            self.keys, self.size = [], 0
            bins = keys // self.m2 * ZONE_CODES + self.codes.take(keys)
            self.counts += np.bincount(bins, minlength=self.counts.size).reshape(self.counts.shape)
        return self.counts


# Event codes of the event log; an arrival's code is BLOCK less its
# admission flag.
ARRIVE, BLOCK, COMPLETE, HANDOVER = range(4)
_EVENT_NAMES = np.array([b"arrive", b"block", b"complete", b"handover"])


def _csv_field(text: str) -> bytes:
    """``text`` as csv.writer writes a field: quoted, with its quotes
    doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text.encode()


class _EventLog:
    """The rows ``t,event,cell_id,ue_id`` of ``events.csv``, in the bytes
    csv.writer writes them (``\\r\\n`` line ends). Rows are kept until
    :meth:`flush` formats and writes them in one go."""

    def __init__(self, path: str | None, cell_ids: list[str]):
        self._fh = open(path, "wb") if path else None
        # Cell index UNCOVERED (-1) picks the trailing empty name.
        self._names = np.array([_csv_field(c) for c in [*cell_ids, ""]])
        self._rows: list[tuple[int, int | np.ndarray, np.ndarray, np.ndarray]] = []
        if self._fh:
            self._fh.write(b"t,event,cell_id,ue_id\r\n")

    @property
    def enabled(self) -> bool:
        return self._fh is not None

    def write(self, t: int, events, cells: np.ndarray, ue_ids: np.ndarray) -> None:
        """One row per entry of ``cells``/``ue_ids``; ``events`` is one event
        code for all rows or an array of codes."""
        if self._fh and cells.size:
            self._rows.append((t, events, cells, ue_ids))

    def flush(self) -> None:
        if not self._rows:
            return
        ticks, events, cells, ue_ids = zip(*self._rows)
        self._rows = []
        counts = [c.size for c in cells]
        events = np.concatenate(
            [np.full(n, e) if isinstance(e, int) else e for e, n in zip(events, counts)]
        )
        fields = [
            np.repeat(np.array(ticks).astype("S"), counts),
            _EVENT_NAMES[events],
            self._names[np.concatenate(cells)],
            np.concatenate(ue_ids).astype("S"),
        ]
        self._fh.write(text_rows(fields, end=b"\r\n"))

    def close(self) -> None:
        if self._fh:
            try:
                self.flush()
            finally:
                self._fh.close()


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


class _Tracks:
    """Moves UEs by their step velocity, with specular reflection at the
    map edges, and gives the flat pixel ``i * m + j`` after each move. A
    UE's velocity is ``step * sin(heading)`` and ``step * cos(heading)``,
    made once on arrival and again only when the UE reflects; its new
    heading is folded by ``np.mod`` into [0, 2*pi].

    ``np.mod`` can fold a heading to 2*pi itself: ``pi + 2**-51``
    reflected off a y edge is ``-2**-51``, and ``np.mod(-2**-51, 2*pi)``
    rounds to 2*pi. Such a UE moves once at the velocity of 2*pi (``sin``
    is -2.4e-16 there) and then at that of heading 0, as it did when
    every heading was folded on every move. A heading is 2*pi only after
    such a fold, so the state a track ends in carries the fold into the
    next track of the UE."""

    def __init__(self, step: float, spec: GridSpec):
        self.step = step
        self.spec = spec
        self.lo = np.array(spec.origin).reshape(2, 1)
        self.hi = self.lo + spec.extent

    def velocity(self, heading: np.ndarray) -> np.ndarray:
        """The (2, n) step velocities of n headings."""
        return self.step * np.stack((np.sin(heading), np.cos(heading)))

    def build(self, state: np.ndarray, out: np.ndarray) -> None:
        """Write the flat pixels of n UEs after each of ``len(out)`` moves
        into ``out``, (moves, n). ``state`` holds their rows :data:`X` to
        :data:`HEADING`, (5, n), and is left as the last move leaves it.
        The tracks are made :data:`BLOCK_ARRIVALS` UEs at a time, which
        bounds their positions' memory when one tick brings more."""
        if state.shape[1] > BLOCK_ARRIVALS:
            for i in range(0, state.shape[1], BLOCK_ARRIVALS):
                self.build(state[:, i : i + BLOCK_ARRIVALS], out[:, i : i + BLOCK_ARRIVALS])
            return
        pos, velocity, heading = state[:2], state[2:4], state[4]
        track = np.empty((len(out), *pos.shape))
        refold = bool(np.count_nonzero(heading == 2.0 * math.pi))
        for move in range(len(out)):
            pos += velocity
            if refold:
                # Reflecting a heading of 0 gives the heading that
                # reflecting one of 2*pi gives, so the fold may come first.
                stale = heading == 2.0 * math.pi
                heading[stale] = 0.0
                velocity[:, stale] = self.velocity(np.zeros(1))
                refold = False
            if np.count_nonzero((pos < self.lo) | (pos > self.hi)):
                pos[...], flipped = _reflect(pos, self.lo, self.hi)
                turned = (flipped[0] | flipped[1]).nonzero()[0]
                if turned.size:
                    turn = heading.take(turned)
                    turn = np.where(flipped[0].take(turned), -turn, turn)
                    turn = np.where(flipped[1].take(turned), math.pi - turn, turn)
                    turn = np.mod(turn, 2.0 * math.pi)
                    heading[turned] = turn
                    velocity[:, turned] = self.velocity(turn)
                    refold = bool(np.count_nonzero(turn == 2.0 * math.pi))
            track[move] = pos
        # Reflected coordinates are inside the map, so only the far edge
        # needs clamping into the last pixel.
        track -= self.lo
        track /= self.spec.pixel_size
        m = self.spec.m
        index = np.minimum(track.astype(np.intp), m - 1)
        np.multiply(index[:, 0], m, out=out)
        out += index[:, 1]


def _lifetime(config: SimConfig, cap: int) -> int:
    """The most ticks a download can last, or ``cap`` when that is fewer.

    A cell never holds more than ``max_ue_per_cell`` UEs, so every tick
    drains at least ``d = min(mu0, capacity / max_ue_per_cell) * tick_s``
    from each UE, and rounding is monotone in each operand of the loop's
    division, minimum, product and difference. So a download's bits left
    are never above those of ``k`` repeated ``bits -= d`` steps, and it
    ends by the first ``k`` at which those reach zero. ``bits - d`` can
    equal ``bits``, so the steps stop at ``cap``."""
    drain = min(config.mu0_bps, config.capacity_per_cell_bps / config.max_ue_per_cell) * config.tick_s
    bits = config.file_size_bits
    for ticks in range(1, cap):
        bits -= drain
        if bits <= 0.0:
            return ticks
    return cap


class _Arrivals:
    """Draws the arrivals of a block of ticks and derives their columns.

    Every tick makes the same calls on the generator in the same order,
    a Poisson count and then one draw of 3n uniforms, whatever the block
    size; the rest is whole-block work. Each arrival gets :attr:`rows`
    keys, one for every tick its download can last: the tick it arrives
    in and the ``rows - 1`` after it; a UE that does not move has the same
    key in every row. When a download can last more than
    :data:`TRACK_CAP` ticks, the run is :attr:`stepwise`: each arrival
    has one key, every mover makes one move a tick from where the last
    left it, and the columns also hold :data:`MOVER` and each mover's
    start state."""

    # The rank of an arrival that no cell covers: no free-slot count
    # exceeds it.
    NEVER = np.iinfo(np.int64).max

    def __init__(
        self,
        config: SimConfig,
        truth: WeightMap,
        best_of: np.ndarray,
        n_cells: int,
        tracks: _Tracks,
    ):
        self.mean = config.arrival_rate * config.tick_s
        self.file_size_bits = config.file_size_bits
        self.mobile_fraction = config.mobile_fraction
        self.cdf = np.cumsum(truth.values.reshape(-1))
        self.cdf /= self.cdf[-1]
        self.best_of = best_of
        self.n_cells = n_cells
        self.m2 = truth.spec.m**2
        # The narrowest type that holds every key, and the negative ones
        # of uncovered arrivals.
        self.key_type = np.min_scalar_type(-n_cells * self.m2)
        self.centers = np.stack([c.reshape(-1) for c in truth.spec.center_coords()])
        self.tracks = tracks
        moving = tracks.step > 0 and config.mobile_fraction > 0
        lifetime = _lifetime(config, TRACK_CAP + 1) if moving else 1
        self.stepwise = lifetime > TRACK_CAP
        self.rows = 1 if self.stepwise else lifetime
        self.int_rows = MOVER + 1 if self.stepwise else START_TICK + 1
        self.float_rows = HEADING + 1 if self.stepwise else REMAINING_BITS + 1

    def none(self) -> _ActiveUes:
        """No UEs, in the shape of this run's blocks."""
        return _ActiveUes(
            np.empty((self.int_rows, 0), dtype=np.int64),
            np.empty((self.rows, 0), dtype=self.key_type),
            np.empty((self.float_rows, 0)),
        )

    def block(
        self, rng: np.random.Generator, ticks: range, first_ue: int
    ) -> tuple[_ActiveUes, np.ndarray, list[int]]:
        """The arrivals of ``ticks`` in draw order with their UE ids from
        ``first_ue`` on, the rank of each among the arrivals of its tick
        with the same best cell (:attr:`NEVER` when uncovered), and the
        end of each tick's arrivals in them. The :data:`SERVING` row holds
        the best cell."""
        counts, draws = [], []
        for _ in ticks:
            n = int(rng.poisson(self.mean))
            counts.append(n)
            if n:
                draws.append(rng.random(3 * n).reshape(3, n))
        u = np.concatenate(draws, axis=1) if draws else np.empty((3, 0))
        del draws
        n = u.shape[1]
        pix = np.minimum(np.searchsorted(self.cdf, u[0], side="right"), self.cdf.size - 1)
        best = self.best_of[pix]
        tick = np.repeat(np.arange(len(ticks)), counts)
        # One group per (tick, best cell); UNCOVERED (-1) groups sit
        # between the ticks' cells.
        group = tick * (self.n_cells + 1) + best
        order = np.argsort(group, kind="stable")
        ranked = group.take(order)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n) - np.searchsorted(ranked, ranked, side="left")
        rank[best == UNCOVERED] = self.NEVER
        del group, order, ranked

        ints = np.empty((self.int_rows, n), dtype=np.int64)
        ints[UE_ID] = np.arange(first_ue, first_ue + n)
        ints[SERVING] = best
        ints[START_TICK] = tick + ticks.start
        base = best * self.m2
        keys = np.empty((self.rows, n), dtype=self.key_type)
        keys[:] = base + pix
        floats = np.empty((self.float_rows, n))
        floats[REMAINING_BITS] = self.file_size_bits
        moving = (u[1] < self.mobile_fraction).nonzero()[0]
        if self.stepwise:
            ints[MOVER] = 0
            ints[MOVER, moving] = 1
        if moving.size and (self.rows > 1 or self.stepwise):
            state = np.empty((HEADING + 1, moving.size))
            state[X : Y + 1] = self.centers.take(pix.take(moving), axis=1)
            # A heading is 2*pi*u, as uniform(0, 2*pi) makes it.
            np.multiply(u[2].take(moving), 2.0 * math.pi, out=state[HEADING])
            state[VX : VY + 1] = self.tracks.velocity(state[HEADING])
            if self.stepwise:
                floats[X:, moving] = state[X:]
            else:
                track = np.empty((self.rows - 1, moving.size), dtype=self.key_type)
                self.tracks.build(state[X:], track)
                track += base.take(moving)
                keys[1:, moving] = track
        return _ActiveUes(ints, keys, floats), rank, list(accumulate(counts))


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
    serving level by the margin; int8 up to 127 neighbors per cell. A
    running maximum from the serving level plus the margin (-inf where that
    is NaN) takes a neighbor only when strictly greater, so the first of
    equal neighbors wins and a NaN one never does."""
    slots = np.full(rsrp.shape, -1, dtype=np.min_scalar_type(-1 - neighbors.shape[1]))
    for cell, nbrs in enumerate(neighbors):
        strongest = rsrp[cell] + margin_db
        strongest[np.isnan(strongest)] = -math.inf
        for column, nb in enumerate(nbrs[nbrs >= 0]):
            beats = rsrp[nb] > strongest
            np.copyto(strongest, rsrp[nb], where=beats)
            np.copyto(slots[cell], column, where=beats)
    return slots


# A (TA ring, AoA zone) pair has one of this many codes.
ZONE_CODES = TA_ZONE_COUNT * 3


def _zone_stacks(grid: CoverageGrid) -> np.ndarray:
    """The zone code ``ta * 3 + aoa + 1`` of every (cell, flat pixel): the
    column of a UE's sample in the (cell, :data:`ZONE_CODES`) counts. Each
    run of cells with one ``site_position`` (a site's sectors) shares its
    TA rings, as in :func:`hotloc.scenario.synthesize_rsrp`."""
    codes = np.empty((grid.n_cells, grid.spec.m**2), dtype=np.int8)
    site = None
    for code, cell in zip(codes, grid.cells):
        if cell.site_position != site:
            site = cell.site_position
            rings = ta_zone_layer(grid.spec, cell).reshape(-1) * np.int8(3) + np.int8(1)
        np.add(rings, aoa_zone_layer(grid.spec, cell).reshape(-1), out=code)
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

    n_cells = len(grid.cells)
    rng = np.random.default_rng(config.seed)

    # After a handover the serving cell is not the pixel's best server,
    # so the zones come from every cell's layers, not the serving tables.
    samples = _ZoneSamples(_zone_stacks(grid))
    neighbors = _neighbor_matrix(grid)
    rsrp = grid.rsrp.reshape(n_cells, -1)
    slots = _handover_slots(rsrp, neighbors, config.handover_margin_db).reshape(-1)
    m2 = spec.m**2
    max_ue = config.max_ue_per_cell

    reports = np.zeros((n_cells, n_cells), dtype=np.int64)
    full_ticks = np.zeros(n_cells, dtype=np.int64)
    done = _Completions()

    attached = np.zeros(n_cells, dtype=np.int64)
    next_ue = 0
    tracks = _Tracks(config.speed_kmh / 3.6 * config.tick_s, spec)
    incoming = _Arrivals(config, truth, servers.best.reshape(-1).astype(np.intp), n_cells, tracks)
    rows, stepwise = incoming.rows, incoming.stepwise
    ues = incoming.none()
    per_block = _block_ticks(config)
    log = _EventLog(event_log_path, [c.cell_id for c in grid.cells])

    try:
        for first in range(0, config.n_ticks, per_block):
            ticks = range(first, min(first + per_block, config.n_ticks))
            arrivals, rank, ends = incoming.block(rng, ticks, next_ue)
            next_ue += ends[-1]
            start = 0
            for t, end in zip(ticks, ends):
                # Arrivals: an arrival gets in when its best cell is
                # covered and fewer earlier arrivals of the tick chose that
                # cell than it has free slots.
                if end > start:
                    best = arrivals.ints[SERVING, start:end]
                    admitted = rank[start:end] < max_ue - attached.take(best)
                    if log.enabled:
                        log.write(t, BLOCK - admitted, best, arrivals.ints[UE_ID, start:end])
                    new = admitted.nonzero()[0]
                    if new.size:
                        if new.size < end - start:
                            batch = arrivals.keep(new + start)
                        else:
                            batch = arrivals.part(start, end)
                        attached += np.bincount(batch.ints[SERVING], minlength=n_cells)
                        ues = ues.extend(batch)
                    start = end

                # Scheduling: equal capacity share capped at mu0; sample the
                # occupancy and load counters while the shares are known.
                full_ticks += attached >= max_ue
                samples.add(ues.keys[0])
                # The bits each cell drains from each of its UEs; an empty
                # cell divides by one, not zero, and drains nothing.
                drain = np.minimum(
                    config.mu0_bps, config.capacity_per_cell_bps / np.maximum(attached, 1)
                )
                drain *= config.tick_s
                serving = ues.ints[SERVING]
                remaining = ues.floats[REMAINING_BITS]
                remaining -= drain.take(serving)

                # Completions.
                finished = remaining <= 0.0
                if np.count_nonzero(finished):
                    gone = finished.nonzero()[0]
                    cells = serving.take(gone)
                    done.add(cells, t + 1 - ues.ints[START_TICK].take(gone))
                    attached -= np.bincount(cells, minlength=n_cells)
                    if log.enabled:
                        log.write(t, COMPLETE, cells, ues.ints[UE_ID].take(gone))
                    ues = ues.keep((~finished).nonzero()[0])

                # Movement: the next tick's keys move up to row 0, or each
                # mover makes its move from where the last left it.
                if rows > 1:
                    ues.keys[:-1] = ues.keys[1:]
                if stepwise:
                    movers = ues.ints[MOVER].nonzero()[0]
                    if movers.size:
                        state = ues.floats[X:].take(movers, axis=1)
                        track = np.empty((1, movers.size), dtype=ues.keys.dtype)
                        tracks.build(state, track)
                        track += ues.ints[SERVING].take(movers) * m2
                        ues.keys[:, movers] = track
                        ues.floats[X:, movers] = state

                # Handover: the first strongest configured neighbor beating
                # serving by the margin files a report; the switch needs a
                # free slot, so switches resolve in array order.
                slot = slots.take(ues.keys[0])
                trigger = (slot >= 0).nonzero()[0]
                if trigger.size:
                    serving = ues.ints[SERVING]
                    source = serving[trigger]
                    target = neighbors[source, slot[trigger]]
                    np.add.at(reports, (source, target), 1)
                    switched, moved = [], []
                    for k, cell, dest in zip(trigger.tolist(), source.tolist(), target.tolist()):
                        if attached[dest] >= max_ue:
                            continue
                        attached[cell] -= 1
                        attached[dest] += 1
                        serving[k] = dest
                        switched.append(k)
                        moved.append((dest - cell) * m2)
                    if switched:
                        ues.keys[:, switched] += np.array(moved)
                    if log.enabled:
                        log.write(t, HANDOVER, serving[switched], ues.ints[UE_ID, switched])
            log.flush()
    finally:
        log.close()

    zone_counts = samples.count().reshape(n_cells, TA_ZONE_COUNT, 3)
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
        rates = done.rates_of(idx, config.file_size_bits, config.tick_s)
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
