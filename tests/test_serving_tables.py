"""Bit-for-bit pins of the oracle, steps 1-5 and the center/edge RSRP
thresholds against per-cell reference loops.

The references below compute each KPI one cell at a time, over a
full-grid mask and full-grid zone layers per cell. The production
functions must return the same bits on seeded random grids whose
geometry sits on the edge cases: uncovered pixels, a cell that serves no
pixel, pixels without a second-best server or with one that is not a
configured neighbor, pixels centered on a site, AoA offsets at the
sector edges and at -pi, distances on TA ring boundaries, odd and even
pixel counts per cell, and no, some or every cell congested. The desk
scenario is one more case.

The scalar zone functions below compute one pixel's TA ring and AoA
sector; ``test_grid.py`` pins the zone layers against them. The
zone-layer functions read ``site_position`` and ``azimuth`` off their
second argument and broadcast them against the (m, m) pixel grid, so one
call with stacked or per-pixel site arrays must equal the per-cell
calls.

Every (cell, pixel) table is a function of the pixel's center alone, so
padding the map around the same center must leave its interior bit for
bit as it was.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import DESK_CONFIG, SIM_CONFIG, random_truth
from hotloc import sim
from hotloc.grid import (
    NO_SECOND,
    TA_GRANULARITY_M,
    TA_ZONE_COUNT,
    UNCOVERED,
    CellInfo,
    CoverageGrid,
    GridSpec,
    aoa_zone_layer,
    compute_server_maps,
    ta_zone_layer,
)
from hotloc.kpi import (
    KPI_LABELS,
    CellKpis,
    KpiSet,
    OracleParams,
    oracle_kpis,
    throughput_curve,
)
from hotloc.localize import (
    LocalizerParams,
    _rsrp0_per_cell,
    step1_ta,
    step2_aoa,
    step3_neighbor,
    step4_load,
    step5_throughput,
)
from hotloc.scenario import build_cells, build_scenario, load_scenario_config, synthesize_rsrp

# Reference implementations -------------------------------------------------


def angle_and_distance(cell, point):
    """Bearing (radians clockwise from North) and Euclidean distance from
    the cell site to a world-coordinate point. A zero-length offset has
    bearing 0 by convention."""
    dx = point[0] - cell.site_position[0]
    dy = point[1] - cell.site_position[1]
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        return 0.0, 0.0
    return math.atan2(dx, dy) % (2.0 * math.pi), dist


def spec_pixel_center(spec, pixel):
    x0, y0 = spec.origin
    return (x0 + (pixel[0] + 0.5) * spec.pixel_size, y0 + (pixel[1] + 0.5) * spec.pixel_size)


def ta_zone(spec, cell, pixel):
    """Timing-advance ring of one pixel in one cell: floor(distance /
    78.25 m), clamped to the open-ended last ring."""
    _, dist = angle_and_distance(cell, spec_pixel_center(spec, pixel))
    return min(int(dist / TA_GRANULARITY_M), TA_ZONE_COUNT - 1)


def wrap_pi(angle):
    """Wrap to the half-open interval (-pi, pi]."""
    # In-range angles pass through untouched; the modulo arithmetic below
    # can shift them by a few ulp, enough to cross a closed zone boundary.
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = angle % (2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    return wrapped


def aoa_zone(spec, cell, pixel):
    """Bearing sector of one pixel relative to the cell boresight: 0 for
    offsets in [-pi/6, pi/6], +1 in (pi/6, pi], -1 in (-pi, -pi/6), and 0
    for a pixel centered on the site."""
    bearing, dist = angle_and_distance(cell, spec_pixel_center(spec, pixel))
    if dist == 0.0:
        return 0
    delta = wrap_pi(bearing - cell.azimuth)
    if abs(delta) <= math.pi / 6:
        return 0
    return 1 if delta > 0 else -1


def reference_oracle_kpis(truth, grid, servers, params):
    cells = {}
    for k, cell in enumerate(grid.cells):
        mask = servers.best == k
        w = truth.values[mask]
        total = float(w.sum())
        if total <= 0.0:
            cells[cell.cell_id] = CellKpis.empty()
            continue

        ta_zones = ta_zone_layer(grid.spec, cell)[mask]
        ta = np.bincount(ta_zones, weights=w, minlength=TA_ZONE_COUNT) / total

        aoa_zones = aoa_zone_layer(grid.spec, cell)[mask] + 1
        aoa = np.bincount(aoa_zones, weights=w, minlength=3) / total

        second = servers.second[mask]
        neighbor_level = {}
        masses = []
        for nb_id in cell.neighbors:
            nb_idx = grid.cell_index(nb_id)
            masses.append((nb_id, float(w[second == nb_idx].sum())))
        nb_total = sum(mass for _, mass in masses)
        if nb_total > 0:
            neighbor_level = {nb: mass / nb_total for nb, mass in masses}

        load = min(1.0, total / params.rho_cap)

        rates = throughput_curve(grid.rsrp[k][mask], grid.q_rxlevmin, params)
        amt = float((w * rates).sum()) / total
        hmt = total / float((w / rates).sum())
        hmt = min(hmt, amt)

        cells[cell.cell_id] = CellKpis(ta, aoa, neighbor_level, load, amt, hmt)
    return KpiSet(cells=cells, source="oracle", window_s=None)


def reference_step1(kpis, grid, servers):
    out = np.zeros((grid.spec.m, grid.spec.m))
    for k, cell in enumerate(grid.cells):
        mask = servers.best == k
        if not mask.any():
            continue
        zones = ta_zone_layer(grid.spec, cell)
        out[mask] = kpis.cells[cell.cell_id].ta[zones[mask]]
    return out


def reference_step2(kpis, grid, servers):
    out = np.zeros((grid.spec.m, grid.spec.m))
    for k, cell in enumerate(grid.cells):
        mask = servers.best == k
        if not mask.any():
            continue
        zones = aoa_zone_layer(grid.spec, cell) + 1
        out[mask] = kpis.cells[cell.cell_id].aoa[zones[mask]]
    return out


def reference_step3(kpis, grid, servers):
    out = np.zeros((grid.spec.m, grid.spec.m))
    for k, cell in enumerate(grid.cells):
        mask = servers.best == k
        if not mask.any():
            continue
        levels = kpis.cells[cell.cell_id].neighbor_level
        if not levels:
            continue
        table = np.zeros(grid.n_cells + 1)
        for nb_id, frac in levels.items():
            table[grid.cell_index(nb_id)] = frac
        out[mask] = table[servers.second[mask]]
    return out


def reference_step4(kpis, grid, servers, params):
    rho = np.array([kpis.cells[c.cell_id].load_time for c in grid.cells])
    out = np.zeros((grid.spec.m, grid.spec.m))
    for k in range(grid.n_cells):
        if rho[k] <= params.rho_threshold:
            continue
        mask = servers.best == k
        if not mask.any():
            continue
        similar = np.flatnonzero(np.abs(rho[k] - rho) < params.epsilon)
        own = grid.rsrp[k][mask]
        rho_sum = np.zeros(own.shape)
        count = np.zeros(own.shape)
        for other in similar:
            diff = np.abs(own - grid.rsrp[other][mask])
            near = np.nan_to_num(diff, nan=np.inf) < params.lambda_ho_db
            rho_sum += np.where(near, rho[other], 0.0)
            count += near
        out[mask] = rho_sum / count
    return out


def reference_rsrp0(grid, servers, params):
    if params.rsrp0_dbm is not None:
        return np.full(grid.n_cells, params.rsrp0_dbm)
    thresholds = np.full(grid.n_cells, -np.inf)
    for k in range(grid.n_cells):
        mask = servers.best == k
        if mask.any():
            thresholds[k] = np.median(grid.rsrp[k][mask])
    return thresholds


def reference_step5(kpis, grid, servers, params):
    rsrp0 = reference_rsrp0(grid, servers, params)
    out = np.zeros((grid.spec.m, grid.spec.m))
    for k, cell in enumerate(grid.cells):
        ck = kpis.cells[cell.cell_id]
        mask = servers.best == k
        if not mask.any():
            continue
        gap = min(max((ck.amt_bps - ck.hmt_bps) / params.mu0_bps, 0.0), 1.0)
        center = grid.rsrp[k][mask] >= rsrp0[k]
        out[mask] = np.where(center, gap, 1.0 - gap)
    return out


# Seeded cases ----------------------------------------------------------------

# Pixel centers a whole number of pixels from a site that sits on a pixel
# center are exact multiples of half a TA ring away, so every even step
# along an axis lands exactly on a ring boundary.
PIXEL = TA_GRANULARITY_M / 2
M = 14
N_CELLS = 8
Q_RXLEVMIN = -110.0
HALF = math.pi / 6
# Sites 0-2 sit on pixel centers with pixels due North or South of them:
# bearing 0 against azimuth pi/6 and bearing pi against 5*pi/6 put the
# offset on the sector edges (within the one ulp the layer's wrap leaves),
# and bearing pi against azimuth 0 gives the offset -pi that the layer
# folds onto +pi.
EDGE_AZIMUTHS = (HALF, math.pi - HALF, 0.0)
IDLE_CELL = N_CELLS - 1
ORACLE = OracleParams(rho_cap=0.15)


def pixel_center(i, j):
    return ((i + 0.5) * PIXEL, (j + 0.5) * PIXEL)


def random_case(seed):
    """A seeded grid, its server maps and a sparse truth map."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(m=M, pixel_size=PIXEL)
    cx, cy = spec.center_coords()
    ids = [f"C{k}" for k in range(N_CELLS)]
    sites, azimuths = [], []
    for k in range(N_CELLS):
        if k < 5:
            sites.append(pixel_center(*rng.integers(2, M - 2, size=2)))
        else:
            sites.append(tuple(rng.uniform(-2 * PIXEL, (M + 2) * PIXEL, size=2)))
        azimuths.append(EDGE_AZIMUTHS[k] if k < 3 else float(rng.uniform(0, 2 * math.pi)))
    cells = []
    for k in range(N_CELLS):
        others = [cid for cid in ids if cid != ids[k]]
        count = int(rng.integers(0, 4))
        neighbors = tuple(rng.permutation(others)[:count].tolist())
        cells.append(CellInfo(ids[k], sites[k], azimuths[k], neighbors))

    rsrp = np.empty((N_CELLS, M, M))
    for k, (x, y) in enumerate(sites):
        dist = np.hypot(cx - x, cy - y)
        rsrp[k] = -70.0 - 25.0 * np.log10(1.0 + dist / 50.0) + rng.normal(0.0, 4.0, (M, M))
        rsrp[k][rng.random((M, M)) < 0.15] = np.nan
    # The idle cell is everywhere weaker than cell 0, so it serves nothing
    # but can still be the runner-up.
    rsrp[IDLE_CELL] = rsrp[0] - 1.0
    # A corner nobody covers well enough, and a strip only cell 1 reaches.
    rsrp[:, :2, :2] = Q_RXLEVMIN - 5.0
    rsrp[:, M - 1, :3] = np.nan
    rsrp[1, M - 1, :3] = -80.0

    grid = CoverageGrid(spec=spec, cells=cells, rsrp=rsrp, q_rxlevmin=Q_RXLEVMIN)
    servers = compute_server_maps(grid)
    truth = random_truth(spec, rng, sparse=True)
    return grid, servers, truth


def desk_case():
    scenario = build_scenario(load_scenario_config(DESK_CONFIG))
    return scenario.grid, scenario.servers, scenario.truth


SEEDS = range(6)
CASES = [*(pytest.param(seed, id=f"seed{seed}") for seed in SEEDS), pytest.param("desk", id="desk")]


def build(case):
    return desk_case() if case == "desk" else random_case(case)


def with_loads(kpis, loads):
    cells = {cid: replace(ck, load_time=float(load)) for (cid, ck), load in zip(kpis.cells.items(), loads)}
    return KpiSet(cells=cells, source=kpis.source, window_s=kpis.window_s)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_kpis(got, want):
    assert list(got.cells) == list(want.cells)
    assert (got.source, got.window_s) == (want.source, want.window_s)
    for cid, w in want.cells.items():
        g = got.cells[cid]
        assert_same_bits(g.ta, w.ta)
        assert_same_bits(g.aoa, w.aoa)
        assert list(g.neighbor_level.items()) == list(w.neighbor_level.items())
        assert np.array_equal(list(g.neighbor_level.values()), list(w.neighbor_level.values()))
        for name in ("load_time", "amt_bps", "hmt_bps"):
            assert getattr(g, name) == getattr(w, name), (cid, name)
            assert math.copysign(1.0, getattr(g, name)) == math.copysign(1.0, getattr(w, name))


def test_random_cases_hold_the_edge_cases():
    served_counts = set()
    for seed in SEEDS:
        grid, servers, truth = random_case(seed)
        best, second = servers.best, servers.second
        covered = best != UNCOVERED
        assert (~covered).any()
        assert not (best == IDLE_CELL).any() and (second == IDLE_CELL).any()
        assert (covered & (second == NO_SECOND)).any()
        unlisted = [
            (b, s)
            for b, s in zip(best[covered].tolist(), second[covered].tolist())
            if s != NO_SECOND and grid.cells[s].cell_id not in grid.cells[b].neighbors
        ]
        assert unlisted
        counts = np.bincount(best[covered], minlength=N_CELLS)
        served_counts.update(int(c) % 2 for c in counts[counts > 0])
        cx, cy = grid.spec.center_coords()
        for k in range(3):
            x, y = grid.cells[k].site_position
            on_site = (cx == x) & (cy == y)
            assert on_site.sum() == 1
            assert ((cx == x) & (cy > y)).any() and ((cx == x) & (cy < y)).any()
            dist = np.hypot(cx - x, cy - y)
            assert (dist == TA_GRANULARITY_M).any()
            assert (dist == 2 * TA_GRANULARITY_M).any()
    assert served_counts == {0, 1}
    # The -pi fold: bearing pi against azimuth 0 (cell 2).
    assert (math.pi - EDGE_AZIMUTHS[2] + math.pi) % (2 * math.pi) - math.pi == -math.pi


@pytest.mark.parametrize("case", CASES)
def test_oracle_matches_reference(case):
    grid, servers, truth = build(case)
    params = ORACLE if case != "desk" else load_scenario_config(DESK_CONFIG).oracle
    want = reference_oracle_kpis(truth, grid, servers, params)
    assert_same_kpis(oracle_kpis(truth, grid, servers, params), want)


def test_oracle_matches_reference_on_an_all_zero_cell_mass():
    grid, servers, truth = random_case(0)
    values = truth.values.copy()
    values[servers.best == 1] = 0.0
    truth = replace(truth, values=values / values.sum())
    want = reference_oracle_kpis(truth, grid, servers, ORACLE)
    assert want.cells["C1"].is_empty()
    assert_same_kpis(oracle_kpis(truth, grid, servers, ORACLE), want)


LOADS = {
    "oracle": None,
    "none": lambda n, rng: np.full(n, 0.5),
    "all": lambda n, rng: rng.uniform(0.75, 1.0, n),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("loads", list(LOADS))
@pytest.mark.parametrize("rsrp0", [None, -95.0])
def test_steps_match_reference(case, loads, rsrp0):
    grid, servers, truth = build(case)
    kpis = reference_oracle_kpis(truth, grid, servers, ORACLE)
    if LOADS[loads] is not None:
        kpis = with_loads(kpis, LOADS[loads](grid.n_cells, np.random.default_rng(7)))
    params = LocalizerParams(rsrp0_dbm=rsrp0)
    rho = np.array([ck.load_time for ck in kpis.cells.values()])
    congested = rho > params.rho_threshold
    if loads == "none":
        assert not congested.any()
    elif loads == "all":
        assert congested.all()

    for step, ref, label in (
        (step1_ta, reference_step1, KPI_LABELS[0]),
        (step2_aoa, reference_step2, KPI_LABELS[1]),
        (step3_neighbor, reference_step3, KPI_LABELS[2]),
    ):
        got = step(kpis, grid, servers)
        assert got.label == label
        assert_same_bits(got.values, ref(kpis, grid, servers))
    assert_same_bits(step4_load(kpis, grid, servers, params).values,
                     reference_step4(kpis, grid, servers, params))
    assert_same_bits(step5_throughput(kpis, grid, servers, params).values,
                     reference_step5(kpis, grid, servers, params))
    assert_same_bits(_rsrp0_per_cell(grid, servers, params), reference_rsrp0(grid, servers, params))


def site_arrays(grid, index):
    """Stand-in for a cell whose site and azimuth are arrays: the sites of
    ``grid.cells[index]``, shaped as ``index`` is."""
    x = np.array([c.site_position[0] for c in grid.cells])
    y = np.array([c.site_position[1] for c in grid.cells])
    az = np.array([c.azimuth for c in grid.cells])
    return SimpleNamespace(site_position=(x[index], y[index]), azimuth=az[index])


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("layer", [ta_zone_layer, aoa_zone_layer])
def test_broadcast_zone_layers_equal_per_cell_calls(case, layer):
    grid, servers, _ = build(case)
    per_cell = np.stack([layer(grid.spec, cell) for cell in grid.cells])

    stacked = layer(grid.spec, site_arrays(grid, np.arange(grid.n_cells)[:, None, None]))
    assert_same_bits(stacked, per_cell)

    covered = servers.best != UNCOVERED
    serving = layer(grid.spec, site_arrays(grid, servers.best))
    assert serving.shape == servers.best.shape and serving.dtype == np.int8
    ii, jj = np.nonzero(covered)
    assert_same_bits(serving[covered], per_cell[servers.best[covered], ii, jj])


@pytest.mark.parametrize("case", CASES)
def test_grid_sites_and_serving_rsrp(case):
    grid, servers, _ = build(case)
    for index in (np.arange(grid.n_cells)[:, None, None], servers.best):
        sites, want = grid.sites(index), site_arrays(grid, index)
        assert_same_bits(sites.site_position[0], want.site_position[0])
        assert_same_bits(sites.site_position[1], want.site_position[1])
        assert_same_bits(sites.azimuth, want.azimuth)
    serving = servers.level
    covered = servers.best != UNCOVERED
    assert np.isnan(serving[~covered]).all()
    ii, jj = np.nonzero(covered)
    assert_same_bits(serving[covered], grid.rsrp[servers.best[covered], ii, jj])


def sectored_cells(sectors, order):
    """``sectors`` cells at each site of :func:`random_case`, sector ``s``
    turned ``s`` sectors' width from the case's azimuth, in site-major,
    sector-major or a seeded shuffled order. Sector-major order splits
    every run of one site's cells to a cell; the shuffled order mixes runs
    of one cell and of several."""
    grid, _, _ = random_case(0)
    step = 2.0 * math.pi / sectors
    by_site = [
        CellInfo(f"{c.cell_id}{s}", c.site_position, c.azimuth + s * step, ())
        for c in grid.cells
        for s in range(sectors)
    ]
    if order == "sector-major":
        return [cell for s in range(sectors) for cell in by_site[s::sectors]]
    if order == "shuffled":
        return [by_site[k] for k in np.random.default_rng(sectors).permutation(len(by_site))]
    return by_site


@pytest.mark.parametrize("sectors", [1, 3, 26])
@pytest.mark.parametrize("order", ["site-major", "sector-major", "shuffled"])
def test_simulator_zone_stacks_equal_per_cell_calls(order, sectors):
    # One int8 code per (cell, pixel), ta * 3 + aoa + 1, whatever the
    # order of the cells.
    cells = sectored_cells(sectors, order)
    spec = GridSpec(m=M, pixel_size=PIXEL)
    grid = CoverageGrid(spec, cells, np.full((len(cells), M, M), np.nan), Q_RXLEVMIN)
    got = sim._zone_stacks(grid)
    ta = np.stack([ta_zone_layer(spec, cell) for cell in cells]).astype(np.int64)
    aoa = np.stack([aoa_zone_layer(spec, cell) for cell in cells]).astype(np.int64)
    want = (ta * 3 + aoa + 1).reshape(len(cells), -1).astype(np.int8)
    assert_same_bits(got, want)
    assert got.min() >= 0 and got.max() < sim.ZONE_CODES


# Padding ---------------------------------------------------------------------


def setup_tables(config, cells):
    """Every (cell, pixel) and per-pixel table a run builds from the cells'
    layers, each with the map's (m, m) as its last two axes. The truth map
    is left out: its floor and its normalisation cover the whole map, so
    padding moves every one of its values."""
    grid = CoverageGrid(config.spec, cells, synthesize_rsrp(config, cells), config.q_rxlevmin_dbm)
    servers = compute_server_maps(grid)
    shape = grid.rsrp.shape
    slots = sim._handover_slots(
        grid.rsrp.reshape(grid.n_cells, -1), sim._neighbor_matrix(grid), config.sim.handover_margin_db
    )
    return {
        "cube": grid.rsrp,
        "best": servers.best,
        "second": servers.second,
        "level": servers.level,
        "zone codes": sim._zone_stacks(grid).reshape(shape),
        "handover slots": slots.reshape(shape),
    }


def padded(config, k):
    """``config`` on its map grown by ``k`` pixels on each side around the
    same center."""
    spec = config.spec
    x0, y0 = spec.origin
    step = k * spec.pixel_size
    return replace(config, spec=GridSpec(spec.m + 2 * k, spec.pixel_size, (x0 - step, y0 - step)))


def edge_site_case():
    """Desk's radio model on a 16-pixel map with two three-sector sites one
    pixel inside its West and North edges, every cell the others'
    neighbor. The hex layout centers its sites, so the cells are built
    here."""
    config = replace(load_scenario_config(DESK_CONFIG), spec=GridSpec(m=16, pixel_size=25.0))
    sites = [(25.0, 212.5), (187.5, 375.0)]
    ids = [f"E{s}{sec}" for s in range(len(sites)) for sec in range(3)]
    cells = [
        CellInfo(ids[k], sites[k // 3], (k % 3) * 2.0 * math.pi / 3, tuple(c for c in ids if c != ids[k]))
        for k in range(len(ids))
    ]
    return config, cells


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("case", ["desk", "sim-small", "edge-site"])
def test_padding_keeps_every_table_inside_the_map(case, k):
    if case == "edge-site":
        config, cells = edge_site_case()
        wide_cells = cells
    else:
        config = load_scenario_config(DESK_CONFIG if case == "desk" else SIM_CONFIG)
        cells = build_cells(config)
        wide_cells = build_cells(padded(config, k))
        assert wide_cells == cells
    want = setup_tables(config, cells)
    got = setup_tables(padded(config, k), wide_cells)
    assert got.keys() == want.keys()
    for name, table in want.items():
        assert_same_bits(got[name][..., k:-k, k:-k], table)
