"""Metamorphic tests: transformations of the input that must leave the
report alone, or move every map with them.

* The order of the cell rows of ``grid.csv`` carries no meaning: an
  operator's coverage export lists cells in whatever order it likes.
  Reversing or shuffling the rows of the desk and sim-small grids must
  leave ``report.json`` byte-identical, and the server maps must name the
  same cells. The permuted grid goes through ``save_grid`` and
  ``load_grid``, so the reader keeps the file's order and the tie rule
  alone makes the result order-free.
* The desk world mirrored about its vertical centre line, and
  transposed (x and y swapped), gives the same best servers and the
  transformed maps, to 1e-12.
"""

import math

import numpy as np
import pytest

from conftest import DESK_CONFIG, SIM_CONFIG
from hotloc.grid import NO_SECOND, UNCOVERED, CellInfo, CoverageGrid, compute_server_maps, load_grid, save_grid
from hotloc.kpi import KPI_LABELS, WeightMap, oracle_kpis, rasterize_potential_map
from hotloc.localize import compute_kpi_maps, localize
from hotloc.nnls import build_system
from hotloc.pipeline import KPI_SOURCE_ORACLE, fit_importance, run_stages
from hotloc.scenario import build_scenario, load_scenario_config
from hotloc.sim import KPI_SOURCE_SIM

AFTER_SCENARIO = ("kpis", "maps", "optimize", "localize", "evaluate")
REL = 1e-12


def run_with_rows(config_path, kpi_source, out, order=None):
    """The stage flow on ``config_path``'s scenario, with the rows of
    ``grid.csv`` (cells and layers together) put in ``order`` between the
    scenario stage and the rest: the run of the stages after it, which
    read the grid from the files."""
    config = load_scenario_config(config_path)
    run_stages(("scenario",), config, out)
    if order is not None:
        grid = load_grid(out / "grid.csv")
        cells = [grid.cells[k] for k in order]
        save_grid(CoverageGrid(grid.spec, cells, grid.rsrp[order], grid.q_rxlevmin), out / "grid.csv")
        assert [c.cell_id for c in load_grid(out / "grid.csv").cells] == [c.cell_id for c in cells]
    return run_stages(AFTER_SCENARIO, config, out, kpi_source=kpi_source)


def server_ids(run):
    """The cell id of each pixel's best and second server, None where
    there is none."""
    ids = np.array([c.cell_id for c in run.grid.cells] + [None], dtype=object)
    best, second = run.servers.best, run.servers.second
    return ids[np.where(best == UNCOVERED, -1, best)], ids[np.where(second == NO_SECOND, -1, second)]


CASES = [(DESK_CONFIG, KPI_SOURCE_ORACLE), (SIM_CONFIG, KPI_SOURCE_SIM)]


@pytest.fixture(scope="module", params=CASES, ids=["desk-oracle", "sim-small-sim"])
def in_file_order(request, tmp_path_factory):
    config_path, kpi_source = request.param
    run = run_with_rows(config_path, kpi_source, tmp_path_factory.mktemp("rows"))
    return config_path, kpi_source, run


@pytest.mark.parametrize("how", ["reversed", "shuffled"])
def test_report_does_not_follow_the_row_order(in_file_order, tmp_path, how):
    config_path, kpi_source, base = in_file_order
    n = base.grid.n_cells
    order = np.arange(n)[::-1] if how == "reversed" else np.random.default_rng(21).permutation(n)
    assert order.tolist() != list(range(n))
    run = run_with_rows(config_path, kpi_source, tmp_path, order)
    assert (tmp_path / "report.json").read_bytes() == (base.out_dir / "report.json").read_bytes()
    for got, want in zip(server_ids(run), server_ids(base)):
        assert got.tolist() == want.tolist()
    # The maps are indices into the grid's rows, so they map through the
    # permutation.
    covered = run.servers.best != UNCOVERED
    np.testing.assert_array_equal(order[run.servers.best[covered]], base.servers.best[covered])


# ---------------------------------------------------------------------------
# Symmetries of the desk world.


def mirrored(grid, scenario_maps):
    """The world mirrored about the vertical line through the map's
    centre: x -> 2c - x, azimuth -> 2 pi - azimuth, pixel (i, j) ->
    (m-1-i, j)."""
    twice_centre = 2.0 * grid.spec.origin[0] + grid.spec.extent

    def cell(c):
        x, y = c.site_position
        return CellInfo(c.cell_id, (twice_centre - x, y), (2.0 * math.pi - c.azimuth) % (2.0 * math.pi), c.neighbors)

    return transformed(grid, scenario_maps, cell, lambda a: a[..., ::-1, :])


def transposed(grid, scenario_maps):
    """The world transposed: x and y swap, azimuth -> pi/2 - azimuth,
    pixel (i, j) -> (j, i)."""
    ox, oy = grid.spec.origin

    def cell(c):
        x, y = c.site_position
        azimuth = (0.5 * math.pi - c.azimuth) % (2.0 * math.pi)
        return CellInfo(c.cell_id, (ox + (y - oy), oy + (x - ox)), azimuth, c.neighbors)

    return transformed(grid, scenario_maps, cell, lambda a: np.swapaxes(a, -1, -2))


def transformed(grid, scenario_maps, cell, pixels):
    grid = CoverageGrid(
        grid.spec, [cell(c) for c in grid.cells], np.ascontiguousarray(pixels(grid.rsrp)), grid.q_rxlevmin
    )
    maps = [WeightMap(np.ascontiguousarray(pixels(w.values)), w.spec, w.label) for w in scenario_maps]
    return grid, maps, pixels


def desk_chain(grid, truth, prior, config):
    """The oracle, steps 1-7 and the fit, in memory."""
    servers = compute_server_maps(grid)
    kpis = oracle_kpis(truth, grid, servers, config.oracle)
    kpi_maps = compute_kpi_maps(kpis, grid, servers, config.localizer)
    x, _ = fit_importance(build_system(kpi_maps, prior))
    result = localize(kpi_maps, x, config.localizer, servers.uncovered_mask())
    maps = dict(zip(KPI_LABELS, kpi_maps), fused=result.fused, smoothed=result.smoothed)
    return servers, {label: wmap.values for label, wmap in maps.items()}, np.array(x.values)


@pytest.fixture(scope="module")
def desk_world():
    config = load_scenario_config(DESK_CONFIG)
    scenario = build_scenario(config)
    prior = rasterize_potential_map(scenario.potential, config.spec)
    world = (scenario.grid, [scenario.truth, prior])
    return config, world, desk_chain(scenario.grid, scenario.truth, prior, config)


@pytest.mark.parametrize("transform", [mirrored, transposed])
def test_desk_symmetry(desk_world, transform):
    config, (grid, scenario_maps), (servers, maps, x) = desk_world
    grid_t, (truth_t, prior_t), pixels = transform(grid, scenario_maps)
    servers_t, maps_t, x_t = desk_chain(grid_t, truth_t, prior_t, config)
    np.testing.assert_array_equal(servers_t.best, pixels(servers.best))
    for label, values in maps.items():
        want = pixels(values)
        np.testing.assert_allclose(maps_t[label], want, rtol=REL, atol=REL * np.abs(want).max(), err_msg=label)
    np.testing.assert_allclose(x_t, x, rtol=REL, atol=REL * np.abs(x).max())


def test_desk_has_second_server_ties(desk_world):
    """The row-order test bites: at some desk pixels the second server's
    level is also another cell's, so a tie broken by row would move
    them."""
    _, (grid, _), (servers, _, _) = desk_world
    levels = np.where(np.isnan(grid.rsrp), -np.inf, grid.rsrp)
    ii, jj = np.nonzero(servers.second != NO_SECOND)
    runner_up = levels[servers.second[ii, jj], ii, jj]
    levels[servers.best[ii, jj], ii, jj] = -np.inf
    assert np.count_nonzero((levels[:, ii, jj] == runner_up).sum(axis=0) > 1) > 100
