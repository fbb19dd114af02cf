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

The UEs in flight are one packed int64 block, one column per UE in
admission order, its float rows read through a float64 view. A tick's
cost is mostly its count of numpy calls, so a tick admits with one
``concatenate`` (none when no UE is in flight) and drops its completions
with one ``compress``, and its zone samples are buffered and counted
many ticks at once.

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
holds one key, and every UE makes one move a tick in place, by the same
builder, from the position, velocity and heading the last left it at; a
UE that stays has zero velocity, and only a mover (:data:`MOVER`) takes
the new key, as a pixel's center can map to another pixel when the
origin dwarfs the pixel size.

The per-cell rate share is computed once per tick and drained from every
UE; completions drop out of the block at once, in order, with their
elapsed ticks, and their rates are formed at the end of the run. Every
tick checks every UE's key for a handover trigger, and the switches
resolve one triggering UE at a time in array order: whether a UE finds a
free slot in its target depends on the handovers before it in the same
tick. The result is the same, event for event, as a per-UE loop in that
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

# The tick loop costs about 0.07 ms a tick on desk (its busy hour of 3,600
# ticks takes about 0.24 s of CPU on a shared Xeon vCPU), so a run of this
# many ticks takes about a minute.
MAX_TICKS = 10**6
# A tick with more than BLOCK_ARRIVALS arrivals in the mean is a block of
# its own. At the peak its arrivals take about 250 bytes each when every
# one moves and holds TRACK_CAP keys, while the block is made: 168 in its
# packed columns (21 int64 rows), their rank, the movers' index and the
# states their tracks are made from (not the draws, pixels, best cells
# and ticks, each dropped once used). Admitted into an empty UE block
# they are not copied: a tick of this many takes 250 MB.
MAX_ARRIVALS_PER_TICK = 10**6
# Arrivals a block of ticks holds in the mean. Making a block peaks at
# about 180 bytes an arrival on the desk busy hour (15 int64 rows with 10
# keys, a fifth of the arrivals move), and about 250 when every arrival
# moves and holds TRACK_CAP keys (21 rows); the tracks are made
# BLOCK_ARRIVALS movers at a time, each move's pixels written as it is
# made. Blocks of 1024 to 16384 arrivals ran the desk busy hour (40
# arrivals a tick) in the same CPU time within the host's noise; blocks
# of 256, which make their movers' tracks every 6 ticks, took about a
# fifth more.
BLOCK_ARRIVALS = 1 << 10
# Keys a UE's queue holds at most (see :func:`_lifetime`). Above it the
# movers move tick by tick: a queue refilled when it runs out would make
# each tick a build of TRACK_CAP moves for the movers of one admission
# tick, and an hour of 250-tick downloads on desk (2 arrivals/s, a fifth
# moving) took 0.50 s of CPU that way against 0.28 s tick by tick.
TRACK_CAP = 16
# Entries of the zone-sample buffer (:class:`_ZoneSamples`) and of each
# chunk of completions (:class:`_Completions`).
BUFFER_ENTRIES = 1 << 14


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
    # Not a key of the ``sim`` section: ScenarioConfig copies its root
    # ``seed`` here.
    seed: int = field(default=0, metadata={"key": None})

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


# Rows of the packed UE block, one int64 column per UE. REMAINING_BITS and
# the rows from X to HEADING hold float64 bits, read through
# ``.view(np.float64)``; those from X on are held only in a run whose
# movers move tick by tick. The key rows follow (:class:`_Arrivals`).
UE_ID, SERVING, START_TICK, MOVER, REMAINING_BITS, X, Y, VX, VY, HEADING = range(10)


class _Completions:
    """Cell and elapsed ticks of every completed download, in completion
    order.

    They are written into chunks of at least :data:`BUFFER_ENTRIES`
    entries, a new chunk whenever a tick's completions do not fit in the
    last, and are never copied: a buffer grown a tick at a time is copied
    among a block of ticks' arrays and leaves holes in the heap, which cost
    the desk busy hour about 1.2 MB of peak RSS, and joining the chunks at
    the end of the run would cost as much again."""

    def __init__(self):
        self.parts: list[tuple[np.ndarray, np.ndarray]] = []
        self.count = 0
        self.cells = np.empty(0, dtype=np.int64)
        self.elapsed = np.empty(0, dtype=np.int64)

    def add(self, cells: np.ndarray, elapsed: np.ndarray) -> None:
        end = self.count + cells.size
        if end > self.cells.size:
            self.parts.append((self.cells[: self.count], self.elapsed[: self.count]))
            size = max(cells.size, BUFFER_ENTRIES)
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
    """The (serving cell, zone code) counts of every UE-tick. A tick's
    UEs' keys are copied into a buffer of :data:`BUFFER_ENTRIES` entries;
    when the next tick's would not fit, and at the end of the run, the code
    of each is read from the flat (cell, pixel) zone-code table and all are
    counted in one bincount over ``cell * ZONE_CODES + code``. A tick of
    more UEs than the buffer holds is counted at once."""

    def __init__(self, zone_codes: np.ndarray):
        n_cells, self.m2 = zone_codes.shape
        self.codes = zone_codes.reshape(-1)
        self.counts = np.zeros((n_cells, ZONE_CODES), dtype=np.int64)
        self.keys = np.empty(BUFFER_ENTRIES, dtype=np.int64)
        self.size = 0

    def add(self, keys: np.ndarray) -> None:
        end = self.size + keys.size
        if end > self.keys.size:
            self.count()
            if keys.size > self.keys.size:
                self._tally(keys)
                return
            end = keys.size
        self.keys[self.size : end] = keys
        self.size = end

    def _tally(self, keys: np.ndarray) -> None:
        bins = keys // self.m2 * ZONE_CODES + self.codes.take(keys)
        self.counts += np.bincount(bins, minlength=self.counts.size).reshape(self.counts.shape)

    def count(self) -> np.ndarray:
        """The counts so far, (cell, :data:`ZONE_CODES`)."""
        if self.size:
            self._tally(self.keys[: self.size])
            self.size = 0
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

    def velocity(self, heading: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (2, n) step velocities of n headings, made in ``out`` when
        it is given."""
        if out is None:
            out = np.empty((2, heading.size))
        np.sin(heading, out=out[0])
        np.cos(heading, out=out[1])
        out *= self.step
        return out

    def build(self, state: np.ndarray, out: np.ndarray) -> None:
        """Write the flat pixels of n UEs after each of ``len(out)`` moves
        into ``out``, (moves, n). ``state`` holds their position, step
        velocity and heading, the rows :data:`X` to :data:`HEADING` as
        floats (5, n), and is left as the last move leaves it."""
        pos, velocity, heading = state[:2], state[2:4], state[4]
        m = self.spec.m
        scaled = np.empty(pos.shape)
        index = np.empty(pos.shape, dtype=np.intp)
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
            # Reflected coordinates are inside the map, so only the far
            # edge needs clamping into the last pixel.
            np.subtract(pos, self.lo, out=scaled)
            scaled /= self.spec.pixel_size
            np.copyto(index, scaled, casting="unsafe")
            np.minimum(index, m - 1, out=index)
            np.multiply(index[0], m, out=out[move])
            out[move] += index[1]


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
    left it, and the columns also hold each arrival's start state, at zero
    velocity on its pixel's center for one that stays. :data:`MOVER` is 1
    for a mover."""

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
        self.centers = np.stack([c.reshape(-1) for c in truth.spec.center_coords()])
        self.tracks = tracks
        moving = tracks.step > 0 and config.mobile_fraction > 0
        lifetime = _lifetime(config, TRACK_CAP + 1) if moving else 1
        self.stepwise = lifetime > TRACK_CAP
        self.rows = 1 if self.stepwise else lifetime
        # The first key row of the packed block.
        self.key_row = HEADING + 1 if self.stepwise else REMAINING_BITS + 1

    def none(self) -> np.ndarray:
        """No UEs, in the shape of this run's packed block."""
        return np.empty((self.key_row + self.rows, 0), dtype=np.int64)

    def block(
        self, rng: np.random.Generator, ticks: range, first_ue: int
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The arrivals of ``ticks`` as packed columns in draw order with
        their UE ids from ``first_ue`` on, the rank of each among the
        arrivals of its tick with the same best cell (:attr:`NEVER` when
        uncovered), and the end of each tick's arrivals in them. The
        :data:`SERVING` row holds the best cell."""
        counts, draws = [], []
        for _ in ticks:
            n = int(rng.poisson(self.mean))
            counts.append(n)
            if n:
                draws.append(rng.random(3 * n).reshape(3, n))
        u = np.concatenate(draws, axis=1) if draws else np.empty((3, 0))
        del draws
        n = u.shape[1]
        # The uniforms are looked up in increasing order, which narrows
        # each binary search to the rest of the cdf.
        ascending = np.argsort(u[0])
        pix = np.empty(n, dtype=np.intp)
        pix[ascending] = np.searchsorted(self.cdf, u[0].take(ascending), side="right")
        np.minimum(pix, self.cdf.size - 1, out=pix)
        moving = (u[1] < self.mobile_fraction).nonzero()[0]
        # A heading is 2*pi*u, as uniform(0, 2*pi) makes it.
        heading = u[2].take(moving)
        heading *= 2.0 * math.pi
        # The draws are spent; the packed block is made without them.
        del u, ascending
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

        # Each column is dropped once the block holds it; a mover's base
        # key is then taken from its SERVING row.
        ues = np.empty((self.key_row + self.rows, n), dtype=np.int64)
        ues[UE_ID] = np.arange(first_ue, first_ue + n)
        ues[SERVING] = best
        del best
        np.add(tick, ticks.start, out=ues[START_TICK])
        del tick
        ues[REMAINING_BITS].view(np.float64)[:] = self.file_size_bits
        keys = ues[self.key_row :]
        np.multiply(ues[SERVING], self.m2, out=keys[0])
        keys[0] += pix
        keys[1:] = keys[0]
        ues[MOVER] = 0
        ues[MOVER, moving] = 1
        if self.stepwise:
            # A UE that stays rests on its pixel's center at zero velocity.
            rest = ues[X : HEADING + 1].view(np.float64)
            rest[:2] = self.centers.take(pix, axis=1)
            rest[2:] = 0.0
        if moving.size and (self.rows > 1 or self.stepwise):
            # The rows X to HEADING.
            state = np.empty((5, moving.size))
            # "clip" takes into state with no buffer; every pixel is on the map.
            self.centers.take(pix.take(moving), axis=1, out=state[:2], mode="clip")
            del pix
            state[4] = heading
            del heading
            self.tracks.velocity(state[4], out=state[2:4])
            if self.stepwise:
                rest[:, moving] = state
            else:
                # The tracks are made BLOCK_ARRIVALS movers at a time,
                # which bounds their memory when one tick brings more.
                for i in range(0, moving.size, BLOCK_ARRIVALS):
                    part = moving[i : i + BLOCK_ARRIVALS]
                    track = np.empty((self.rows - 1, part.size), dtype=np.int64)
                    self.tracks.build(state[:, i : i + BLOCK_ARRIVALS], track)
                    track += ues[SERVING].take(part) * self.m2
                    keys[1:, part] = track
        return ues, rank, list(accumulate(counts))


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
    rows, stepwise, key_row = incoming.rows, incoming.stepwise, incoming.key_row
    ues = incoming.none()
    per_block = _block_ticks(config)
    mu0, capacity, tick_s = config.mu0_bps, config.capacity_per_cell_bps, config.tick_s
    log = _EventLog(event_log_path, [c.cell_id for c in grid.cells])
    logged = log.enabled

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
                    best = arrivals[SERVING, start:end]
                    admitted = rank[start:end] < max_ue - attached.take(best)
                    if logged:
                        # A copy: the admitted UEs' serving row may be
                        # their columns of the block, which a handover
                        # changes before the log is written.
                        log.write(t, BLOCK - admitted, best.copy(), arrivals[UE_ID, start:end])
                    new = admitted.nonzero()[0]
                    if new.size:
                        if new.size < end - start:
                            batch = arrivals.take(new + start, axis=1)
                        else:
                            batch = arrivals[:, start:end]
                        attached += np.bincount(batch[SERVING], minlength=n_cells)
                        # With no UE in flight the batch is the UE block,
                        # with no copy when every arrival got in.
                        ues = np.concatenate((ues, batch), axis=1) if ues.shape[1] else batch
                    start = end
                    if end == ends[-1]:
                        # The block's last arrivals are in; a UE block
                        # that is a view of their columns keeps them.
                        arrivals = rank = best = batch = None

                # Scheduling: equal capacity share capped at mu0; sample the
                # occupancy and load counters while the shares are known.
                full_ticks += attached >= max_ue
                samples.add(ues[key_row])
                # The bits each cell drains from each of its UEs; an empty
                # cell divides by one, not zero, and drains nothing.
                drain = np.minimum(mu0, capacity / np.maximum(attached, 1))
                drain *= tick_s
                remaining = ues[REMAINING_BITS].view(np.float64)
                remaining -= drain.take(ues[SERVING])

                # Completions.
                finished = remaining <= 0.0
                if np.count_nonzero(finished):
                    ue_id, cells, start_tick = ues[: START_TICK + 1].take(finished.nonzero()[0], axis=1)
                    done.add(cells, t + 1 - start_tick)
                    attached -= np.bincount(cells, minlength=n_cells)
                    if logged:
                        log.write(t, COMPLETE, cells, ue_id)
                    ues = ues.compress(remaining > 0.0, axis=1)

                # Movement: the next tick's keys move up to row 0, or each
                # mover makes its move from where the last left it.
                if rows > 1:
                    ues[key_row:-1] = ues[key_row + 1 :]
                if stepwise:
                    # Every UE moves in place; one that stays has zero
                    # velocity and keeps its key.
                    track = np.empty((1, ues.shape[1]), dtype=np.int64)
                    tracks.build(ues[X : HEADING + 1].view(np.float64), track)
                    track += ues[SERVING] * m2
                    np.copyto(ues[key_row], track[0], where=ues[MOVER] != 0)

                # Handover: the first strongest configured neighbor beating
                # serving by the margin files a report; the switch needs a
                # free slot, so switches resolve in array order.
                slot = slots.take(ues[key_row])
                trigger = (slot >= 0).nonzero()[0]
                if trigger.size:
                    serving = ues[SERVING]
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
                        ues[key_row:, switched] += np.array(moved)
                    if logged:
                        log.write(t, HANDOVER, serving[switched], ues[UE_ID, switched])
            log.flush()
    finally:
        log.close()

    zone_counts = samples.count().reshape(n_cells, TA_ZONE_COUNT, 3)
    ta_counts, aoa_counts = zone_counts.sum(axis=2), zone_counts.sum(axis=1)
    # An idle cell's counts are all 0, and so are its fractions.
    occupancy = np.maximum(ta_counts.sum(axis=1), 1)[:, None]
    ta_fractions, aoa_fractions = ta_counts / occupancy, aoa_counts / occupancy
    cells_out: dict[str, CellKpis] = {}
    for idx, cell in enumerate(grid.cells):
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
            ta=ta_fractions[idx],
            aoa=aoa_fractions[idx],
            neighbor_level=neighbor_level,
            load_time=float(full_ticks[idx] / config.n_ticks),
            amt_bps=amt,
            hmt_bps=hmt,
        )

    kpis = KpiSet(cells=cells_out, source=KPI_SOURCE_SIM, window_s=config.duration_s)
    kpis.validate(grid)
    return kpis
