import copy
import json
import math
import time
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from conftest import DESK_CONFIG, SIM_CONFIG, put_byte
from hotloc.evaluate import EvalConfig, report_to_dict
from hotloc.grid import CellInfo, GridSpec
from hotloc.kpi import OracleParams
from hotloc.localize import LocalizerParams
from hotloc.scenario import (
    ConfigError,
    MAX_CUBE_BYTES,
    _SHADOWING_SEED_OFFSET,
    LayoutParams,
    PathlossParams,
    build_cells,
    build_scenario,
    hex_site_positions,
    load_scenario_config,
    parse_scenario_config,
    synthesize_rsrp,
)
from hotloc.pipeline import StageError, run_pipeline
from hotloc.sim import SimConfig


def minimal_config(**overrides):
    data = {
        "grid": {"extent_m": 1500.0, "pixel_size_m": 25.0},
        "traffic": {
            "components": [
                {"center": [700.0, 700.0], "sigma_m": 100.0, "amplitude": 2.0}
            ]
        },
    }
    data.update(overrides)
    return data


# A 2 km map whose center is the world origin.
CENTERED_ON_ORIGIN = GridSpec(m=80, pixel_size=25.0, origin=(-1000.0, -1000.0))


class TestHexLayout:
    def test_single_site_sits_at_center(self):
        out = hex_site_positions(1, 500.0, GridSpec(m=60, pixel_size=25.0))
        np.testing.assert_array_equal(out, [[750.0, 750.0]])

    def test_first_ring_at_isd(self):
        out = hex_site_positions(7, 500.0, CENTERED_ON_ORIGIN)
        center = out[0]
        ring = out[1:]
        dists = np.hypot(ring[:, 0] - center[0], ring[:, 1] - center[1])
        np.testing.assert_allclose(dists, 500.0)

    def test_min_pairwise_spacing_is_isd(self):
        out = hex_site_positions(19, 400.0, CENTERED_ON_ORIGIN)
        assert out.shape == (19, 2)
        diffs = out[:, None, :] - out[None, :, :]
        dists = np.hypot(diffs[..., 0], diffs[..., 1])
        dists[np.eye(19, dtype=bool)] = np.inf
        assert dists.min() == pytest.approx(400.0)


class TestLayoutParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="site_count"):
            LayoutParams(site_count=0)
        with pytest.raises(ValueError, match="isd_m"):
            LayoutParams(isd_m=0.0)
        with pytest.raises(ValueError, match="beamwidth"):
            PathlossParams(beamwidth_deg=0.0)


class TestBuildCells:
    def test_tri_sector_ids_and_azimuths(self):
        config = parse_scenario_config(minimal_config())
        cells = build_cells(config)
        assert len(cells) == 21
        ids = [c.cell_id for c in cells]
        assert ids[:3] == ["BS01A", "BS01B", "BS01C"]
        assert ids[-1] == "BS07C"
        first_site = cells[:3]
        np.testing.assert_allclose(
            [c.azimuth for c in first_site], [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
        )
        assert first_site[0].site_position == first_site[1].site_position

    @pytest.mark.parametrize("sites, first, last", [(99, "BS01A", "BS99C"), (127, "BS001A", "BS127C")])
    def test_ids_sort_in_row_order(self, sites, first, last):
        # compute_server_maps breaks ties by id, so a generated layout's
        # ids sort in row order: the site number takes the width of the
        # largest one, and BS100A follows BS099A, not BS10A.
        config = parse_scenario_config(minimal_config(layout={"site_count": sites, "isd_m": 100.0}))
        ids = [c.cell_id for c in build_cells(config)]
        assert (ids[0], ids[-1]) == (first, last)
        assert ids == sorted(ids)

    def test_neighbor_lists_follow_site_distance(self):
        config = parse_scenario_config(minimal_config())
        cells = {c.cell_id: c for c in build_cells(config)}
        # The center site sees every ring site within 1.5 ISD: all other
        # cells are neighbors.
        assert len(cells["BS01A"].neighbors) == 20
        assert "BS01A" not in cells["BS01A"].neighbors
        # A ring site sees itself, the center and its two ring-adjacent
        # sites: 4 sites x 3 sectors minus itself.
        assert len(cells["BS02A"].neighbors) == 11
        assert set(cells["BS02A"].neighbors) >= {"BS02B", "BS02C", "BS01A"}

    def test_single_site_neighbors_are_its_sectors(self):
        config = load_scenario_config(SIM_CONFIG)
        cells = build_cells(config)
        assert len(cells) == 3
        by_id = {c.cell_id: c for c in cells}
        assert set(by_id["BS01A"].neighbors) == {"BS01B", "BS01C"}

    def test_site_off_the_map_is_rejected(self):
        data = minimal_config(grid={"extent_m": 800.0, "pixel_size_m": 25.0})
        with pytest.raises(ConfigError, match="falls outside the map") as excinfo:
            parse_scenario_config(data)
        assert excinfo.value.source == "layout.site_count"

    def test_huge_site_count_stops_at_the_first_site_off_the_map(self):
        # Seven sites fit; the lattice is built no further than site 7.
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=r"site 7 at \(.*\) falls outside the map") as excinfo:
            hex_site_positions(10**8, 500.0, GridSpec(m=60, pixel_size=25.0))
        assert time.perf_counter() - start < 1.0
        assert excinfo.value.source == "layout.site_count"

    @pytest.mark.parametrize("extent, count", [(1500.0, 10**8), (400_000.0, 50_000)])
    def test_huge_site_count_refused_before_the_cells_are_built(self, extent, count):
        # The cell count bounds the RSRP cube before any site is laid out:
        # on a 400 km map 50,000 sites fit, and comparing every pair of
        # them would take hours.
        data = minimal_config(grid={"extent_m": extent, "pixel_size_m": 25.0}, layout={"site_count": count})
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=f"an RSRP cube of {3 * count} x") as excinfo:
            parse_scenario_config(data)
        assert time.perf_counter() - start < 1.0
        assert excinfo.value.source == "layout.site_count"

    def test_dense_layout_loads_in_seconds(self):
        # 3,000 sites 1 m apart: a pairwise neighbor loop in Python took
        # 32 s on a 2-vCPU host.
        data = minimal_config(layout={"site_count": 3000, "isd_m": 1.0})
        start = time.perf_counter()
        cells = build_cells(parse_scenario_config(data))
        assert time.perf_counter() - start < 5.0
        assert len(cells) == 9000
        # A site in the lattice's interior has six sites within 1.5 isd.
        # Site numbers take four digits, as 3000 does.
        assert set(cells[0].neighbors) == {f"BS{s:04d}{x}" for s in range(1, 8) for x in "ABC"} - {"BS0001A"}

    @pytest.mark.parametrize("count", [27, 1e308])
    def test_more_sectors_than_id_letters_rejected(self, count):
        data = minimal_config(layout={"site_count": 1, "sectors_per_site": count})
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="at most 26") as excinfo:
            parse_scenario_config(data)
        assert time.perf_counter() - start < 1.0
        assert excinfo.value.source == "layout.sectors_per_site"

    def test_26_sectors_run_from_a_to_z(self):
        data = minimal_config(layout={"site_count": 1, "sectors_per_site": 26})
        ids = [c.cell_id for c in build_cells(parse_scenario_config(data))]
        assert ids == [f"BS01{chr(c)}" for c in range(ord("A"), ord("Z") + 1)]


class TestSynthesizeRsrp:
    def build(self, **layout_overrides):
        data = minimal_config()
        if layout_overrides:
            data["layout"] = layout_overrides
        config = parse_scenario_config(data)
        scenario = build_scenario(config)
        return config, scenario

    def test_no_distance_loss_inside_d0(self):
        config, scenario = self.build()
        grid = scenario.grid
        cell = grid.cells[0]  # BS01A, azimuth 0
        spec = config.spec
        i = int((cell.site_position[0] - spec.origin[0]) / spec.pixel_size)
        j = int((cell.site_position[1] - spec.origin[1]) / spec.pixel_size)
        x = spec.origin[0] + (i + 0.5) * spec.pixel_size
        y = spec.origin[1] + (j + 0.5) * spec.pixel_size
        dx, dy = x - cell.site_position[0], y - cell.site_position[1]
        assert math.hypot(dx, dy) < 25.0  # inside the reference distance
        delta = math.atan2(dx, dy) - cell.azimuth
        pattern = min(12.0 * (delta / math.radians(65.0)) ** 2, 25.0)
        # Within d0 the log-distance term vanishes; only tx - ref_loss and
        # the antenna pattern remain.
        assert grid.rsrp[0, i, j] == pytest.approx(46.0 - 116.0 - pattern, abs=1e-12)

    def test_boresight_beats_off_boresight(self):
        config, scenario = self.build()
        grid = scenario.grid
        cell = grid.cells[0]  # north-facing
        x0, y0 = cell.site_position
        spec = config.spec
        d = 8 * spec.pixel_size
        north = grid.rsrp[0][
            int(x0 / spec.pixel_size), int((y0 + d) / spec.pixel_size)
        ]
        east = grid.rsrp[0][
            int((x0 + d) / spec.pixel_size), int(y0 / spec.pixel_size)
        ]
        assert north > east

    def test_level_decays_with_distance_on_boresight(self):
        config, scenario = self.build()
        grid = scenario.grid
        cell = grid.cells[0]
        x0, y0 = cell.site_position
        spec = config.spec
        i = int(x0 / spec.pixel_size)
        j = int(y0 / spec.pixel_size)
        column = grid.rsrp[0][i, j + 2 : spec.m]
        finite = column[np.isfinite(column)]
        assert (np.diff(finite) < 0).all()

    def test_prune_floor_creates_nan(self):
        _, scenario = self.build(pathloss={"prune_below_dbm": -95.0})
        assert np.isnan(scenario.grid.rsrp).any()

    def test_shadowing_is_seeded(self):
        data = minimal_config()
        data["layout"] = {"pathloss": {"shadowing_sigma_db": 4.0}}
        config = parse_scenario_config(data)
        a = build_scenario(config).grid.rsrp
        b = build_scenario(config).grid.rsrp
        np.testing.assert_array_equal(a, b)
        other = build_scenario(replace(config, seed=99)).grid.rsrp
        assert not np.array_equal(a, other, equal_nan=True)


# The per-cell reference for ``synthesize_rsrp``: distance, bearing and
# path loss for every cell, then its pattern and, with shadowing, one
# normal layer per cell in cell order.
def per_cell_rsrp(config, cells):
    p = config.layout.pathloss
    cx, cy = config.spec.center_coords()
    beam = math.radians(p.beamwidth_deg)
    layers = np.empty((len(cells), config.spec.m, config.spec.m))
    rng = (
        np.random.default_rng(config.seed + _SHADOWING_SEED_OFFSET)
        if p.shadowing_sigma_db > 0
        else None
    )
    for k, cell in enumerate(cells):
        dx = cx - cell.site_position[0]
        dy = cy - cell.site_position[1]
        dist = np.hypot(dx, dy)
        bearing = np.arctan2(dx, dy)
        delta = np.mod(bearing - cell.azimuth + math.pi, 2.0 * math.pi) - math.pi
        pattern = np.minimum(12.0 * (delta / beam) ** 2, p.max_attenuation_db)
        loss = p.ref_loss_db + 10.0 * p.exponent * np.log10(
            np.maximum(dist, p.d0_m) / p.d0_m
        )
        level = p.tx_power_dbm - loss - pattern
        if rng is not None:
            level = level + rng.normal(0.0, p.shadowing_sigma_db, size=level.shape)
        level[level < p.prune_below_dbm] = np.nan
        layers[k] = level
    return layers


class TestSynthesisMatchesPerCellLoop:
    """``synthesize_rsrp`` shares each site's geometry among its cells; its
    cube must hold the bits of :func:`per_cell_rsrp`."""

    # A 600 m map of 24 pixels: the center, a pixel center, a corner, a
    # point 1 cm inside the edge, a point on it and two sites beyond it.
    SITES = [
        (300.0, 300.0),
        (312.5, 287.5),
        (0.0, 0.0),
        (599.99, 150.0),
        (600.0, 600.0),
        (-180.0, 420.0),
        (350.0, 1250.0),
    ]

    def config(self, sigma, seed=3):
        data = minimal_config(grid={"extent_m": 600.0, "pixel_size_m": 25.0})
        # A prune floor inside the map's level range leaves NaNs.
        data["layout"] = {
            "site_count": 1,
            "pathloss": {"shadowing_sigma_db": sigma, "prune_below_dbm": -118.0},
        }
        return replace(parse_scenario_config(data), seed=seed)

    def cells(self, sectors, order):
        rng = np.random.default_rng(sectors)
        step = 2.0 * math.pi / sectors
        offset = rng.uniform(0.0, step)
        site_major = [
            CellInfo(f"S{s}-{sec}", site, (offset + sec * step) % (2.0 * math.pi))
            for s, site in enumerate(self.SITES)
            for sec in range(sectors)
        ]
        if order == "site-major":
            return site_major
        if order == "sector-major":
            return [site_major[s * sectors + sec] for sec in range(sectors) for s in range(len(self.SITES))]
        return [site_major[k] for k in rng.permutation(len(site_major))]

    @pytest.mark.parametrize("sigma", [0.0, 4.0])
    @pytest.mark.parametrize("order", ["site-major", "sector-major", "shuffled"])
    @pytest.mark.parametrize("sectors", [1, 3, 26])
    def test_hand_built_layouts(self, sectors, order, sigma):
        config = self.config(sigma)
        cells = self.cells(sectors, order)
        got = synthesize_rsrp(config, cells)
        want = per_cell_rsrp(config, cells)
        assert np.isnan(want).any() and np.isfinite(want).any()
        assert got.tobytes() == want.tobytes()

    def test_boresight_on_the_wrap(self):
        # Azimuths at 0 and just under 2 pi put pixels at delta = -pi.
        config = self.config(0.0)
        cells = [CellInfo("A", (300.0, 300.0), 0.0), CellInfo("B", (300.0, 300.0), math.nextafter(2 * math.pi, 0))]
        assert synthesize_rsrp(config, cells).tobytes() == per_cell_rsrp(config, cells).tobytes()

    @pytest.mark.parametrize("path", [DESK_CONFIG, SIM_CONFIG])
    @pytest.mark.parametrize("sigma", [0.0, 6.0])
    def test_shipped_configs(self, path, sigma):
        config = load_scenario_config(path)
        pathloss = replace(config.layout.pathloss, shadowing_sigma_db=sigma)
        config = replace(config, layout=replace(config.layout, pathloss=pathloss))
        cells = build_cells(config)
        assert synthesize_rsrp(config, cells).tobytes() == per_cell_rsrp(config, cells).tobytes()


class TestParseConfig:
    def test_missing_required_sections(self):
        with pytest.raises(ConfigError, match="grid: missing required field"):
            parse_scenario_config({"traffic": {}})
        with pytest.raises(ConfigError, match="traffic: missing required field"):
            parse_scenario_config({"grid": {"extent_m": 100.0, "pixel_size_m": 25.0}})

    def test_grid_errors_carry_dotted_paths(self):
        data = minimal_config(grid={"extent_m": 100.0, "pixel_size_m": 0.0})
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario_config(data)
        assert excinfo.value.source == "grid.pixel_size_m"
        data = minimal_config(grid={"extent_m": 110.0, "pixel_size_m": 25.0})
        with pytest.raises(ConfigError, match="integer multiple"):
            parse_scenario_config(data)

    def test_component_errors_are_indexed(self):
        data = minimal_config(
            traffic={"components": [{"center": [0.0, 0.0], "amplitude": 1.0}]}
        )
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario_config(data)
        assert excinfo.value.source == "traffic.components[0].sigma_m"

    def test_zone_errors_are_indexed(self):
        data = minimal_config(
            potential={"zones": [{"shape": "hexagon", "importance": 1.0}]}
        )
        with pytest.raises(ConfigError, match="unknown zone shape") as excinfo:
            parse_scenario_config(data)
        assert excinfo.value.source == "potential.zones[0].shape"

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="unsupported schema"):
            parse_scenario_config(minimal_config(schema=2))

    def test_non_numeric_parameter_rejected(self):
        data = minimal_config(localizer={"epsilon": "small"})
        with pytest.raises(ConfigError, match="must be a number") as excinfo:
            parse_scenario_config(data)
        assert excinfo.value.source == "localizer.epsilon"

    @pytest.mark.parametrize(
        "section, key",
        [
            ("sim", "handover_margin_db"),
            ("sim", "speed_kmh"),
            ("localizer", "epsilon"),
            ("oracle", "rho_cap"),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected(self, section, key, value):
        data = minimal_config(**{section: {key: value}})
        with pytest.raises(ConfigError, match="must be finite") as excinfo:
            parse_scenario_config(data)
        assert excinfo.value.source == f"{section}.{key}"

    def test_non_finite_pair_rejected(self):
        data = minimal_config(grid={"extent_m": 100.0, "pixel_size_m": 25.0, "origin": [0.0, math.inf]})
        with pytest.raises(ConfigError, match="finite") as excinfo:
            parse_scenario_config(data)
        assert excinfo.value.source == "grid.origin"

    def test_non_finite_lists_rejected(self):
        zone = {"shape": "rect", "importance": 1.0, "corners": [0.0, 0.0, math.nan, 100.0]}
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario_config(minimal_config(potential={"zones": [zone]}))
        assert excinfo.value.source == "potential.zones[0].corners"
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario_config(minimal_config(evaluation={"p_list": [0.01, math.nan]}))
        assert excinfo.value.source == "evaluation.p_list"

    def test_bad_item_of_a_number_list_named_by_its_path(self):
        component = {"center": [700.0, "text"], "sigma_m": 100.0, "amplitude": 2.0}
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario_config(minimal_config(traffic={"components": [component]}))
        assert excinfo.value.source == "traffic.components[0].center"
        assert str(excinfo.value).endswith(": traffic.components[0].center[1] is 'text'")

    def test_nan_literal_in_config_file(self, tmp_path):
        # Python's json module reads the non-standard NaN literal.
        path = tmp_path / "nan.json"
        text = json.dumps(minimal_config(sim={"handover_margin_db": 6.0}))
        path.write_text(text.replace("6.0", "NaN"))
        with pytest.raises(ConfigError, match="sim.handover_margin_db: must be finite"):
            load_scenario_config(path)

    def test_invalid_sim_block(self):
        data = minimal_config(sim={"arrival_rate": -2.0})
        with pytest.raises(ConfigError, match="sim"):
            parse_scenario_config(data)

    def test_seed_flows_into_sim(self):
        config = parse_scenario_config(minimal_config(seed=5))
        assert config.seed == 5
        assert config.sim.seed == 5
        overridden = parse_scenario_config(minimal_config(seed=5), seed_override=9)
        assert overridden.seed == 9
        assert overridden.sim.seed == 9
        reseeded = replace(config, seed=3)
        assert reseeded.seed == 3
        assert reseeded.sim.seed == 3
        assert config.seed == 5  # original untouched

    def test_replacing_the_seed_reseeds_the_simulator(self):
        config = load_scenario_config(SIM_CONFIG)
        assert config.sim.seed == 7
        assert replace(config, seed=5).sim.seed == 5
        # The master seed wins over a simulator seed set by hand, and no
        # assignment can part the two.
        assert replace(config, sim=replace(config.sim, seed=9)).sim.seed == 7
        with pytest.raises(FrozenInstanceError):
            config.seed = 5

    @pytest.mark.parametrize("seed, override", [(-1, None), (0, -1)])
    def test_negative_seed_rejected(self, tmp_path, seed, override):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config(seed=seed)))
        with pytest.raises(ConfigError) as excinfo:
            load_scenario_config(path, override)
        assert excinfo.value.source == "seed"
        assert str(excinfo.value) == "seed: must be non-negative, got -1"
        config = load_scenario_config(SIM_CONFIG)
        with pytest.raises(ConfigError, match="^seed: must be non-negative, got -1$"):
            replace(config, seed=-1)

    def test_empty_blocks_take_dataclass_defaults(self):
        config = parse_scenario_config(minimal_config(seed=4, layout={}, sim={}))
        assert config.layout == LayoutParams()
        assert config.sim == SimConfig(seed=4)

    def test_potential_file_is_the_config_section(self, desk_run):
        # potential.json of a run, read as a config's potential section,
        # gives the run's prior.
        data = json.loads(DESK_CONFIG.read_text())
        data["potential"] = json.loads((desk_run.out_dir / "potential.json").read_text())
        assert parse_scenario_config(data).potential == desk_run.scenario.potential

    def test_config_byte_not_utf8_named_by_line(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(SIM_CONFIG.read_bytes())
        message = put_byte(path, 4)
        with pytest.raises(ConfigError) as excinfo:
            load_scenario_config(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        with pytest.raises(ConfigError) as excinfo:
            load_scenario_config(path)
        assert str(excinfo.value).startswith(f"{path}: not JSON: ")


DISK_ZONE = {"shape": "disk", "center": [700.0, 700.0], "radius_m": 150.0, "importance": 1.0}


def rejected(data):
    """The ConfigError that parsing ``data`` raises."""
    with pytest.raises(ConfigError) as excinfo:
        parse_scenario_config(data)
    return excinfo.value


class TestStrictConfig:
    """Every section rejects keys it does not know, counts that are not
    integers and values of the wrong shape, with the dotted path."""

    @pytest.mark.parametrize(
        "path",
        [
            "",
            "grid",
            "layout",
            "layout.pathloss",
            "traffic",
            "traffic.components[0]",
            "potential",
            "potential.zones[0]",
            "oracle",
            "sim",
            "localizer",
            "evaluation",
        ],
    )
    def test_unknown_key_in_every_section(self, path):
        data = minimal_config(potential={"zones": [dict(DISK_ZONE)]})
        section = data
        for part in filter(None, path.replace("[0]", ".0").split(".")):
            section = section[int(part)] if part.isdigit() else section.setdefault(part, {})
        section["colour"] = 1.0
        error = rejected(data)
        assert error.source == (f"{path}.colour" if path else "colour")
        assert str(error).endswith("unknown key")

    def test_sim_block_has_no_seed(self):
        # The seed is a root key; the simulator takes it from there.
        assert rejected(minimal_config(sim={"seed": 3})).source == "sim.seed"

    def test_zone_keys_follow_the_shape(self):
        zone = dict(DISK_ZONE, corners=[0.0, 0.0, 100.0, 100.0])
        error = rejected(minimal_config(potential={"zones": [zone]}))
        assert error.source == "potential.zones[0].corners"
        assert str(error).endswith("is not a field of a disk zone")

    def test_disk_zone_without_radius_rejected(self):
        zone = {k: v for k, v in DISK_ZONE.items() if k != "radius_m"}
        error = rejected(minimal_config(potential={"zones": [zone]}))
        assert error.source == "potential.zones[0].radius_m"
        assert str(error).endswith("missing required field")

    @pytest.mark.parametrize("shape", [["disk"], {"disk": 1}, 3, None])
    def test_non_string_shape_rejected(self, shape):
        zone = dict(DISK_ZONE, shape=shape)
        error = rejected(minimal_config(potential={"zones": [zone]}))
        assert error.source == "potential.zones[0].shape"
        assert f"expected a string, got {shape!r}" in str(error)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("layout", "site_count"),
            ("layout", "sectors_per_site"),
            ("sim", "max_ue_per_cell"),
            ("evaluation", "peak_count"),
            (None, "seed"),
        ],
    )
    def test_fractional_count_rejected(self, section, key):
        data = minimal_config(**({section: {key: 2.5}} if section else {key: 2.5}))
        error = rejected(data)
        assert error.source == (f"{section}.{key}" if section else key)
        assert "expected an integer, got 2.5" in str(error)

    def test_integral_float_count_accepted(self):
        config = parse_scenario_config(
            minimal_config(seed=4.0, layout={"sectors_per_site": 3.0}, evaluation={"peak_count": 2.0})
        )
        assert config.seed == 4 and type(config.seed) is int
        assert type(config.sim.seed) is int
        assert type(config.layout.sectors_per_site) is int
        assert config.evaluation.peak_count == 2

    @pytest.mark.parametrize(
        "overrides, path, expected",
        [
            ({"layout": 3}, "layout", "an object"),
            ({"layout": {"pathloss": 3}}, "layout.pathloss", "an object"),
            ({"traffic": [1.0]}, "traffic", "an object"),
            ({"sim": None}, "sim", "an object"),
            ({"traffic": {"components": {"center": [0.0, 0.0]}}}, "traffic.components", "a list"),
            ({"potential": {"zones": DISK_ZONE}}, "potential.zones", "a list"),
        ],
    )
    def test_wrong_container_rejected(self, overrides, path, expected):
        error = rejected(minimal_config(**overrides))
        assert error.source == path
        assert f"expected {expected}" in str(error)

    def test_every_field_is_a_key(self):
        # A block spelled out with all its fields parses to the defaults.
        blocks = {
            "layout": LayoutParams(),
            "oracle": OracleParams(),
            "localizer": LocalizerParams(),
            "evaluation": EvalConfig(),
        }
        data = minimal_config(
            sim={k: v for k, v in asdict(SimConfig()).items() if k != "seed"},
            **{k: {f: v for f, v in asdict(b).items() if v is not None} for k, b in blocks.items()},
        )
        config = parse_scenario_config(data)
        assert config.sim == SimConfig()
        for key, block in blocks.items():
            assert getattr(config, key) == block


RECT_ZONE = {"shape": "rect", "importance": 1.0, "corners": [100.0, 0.0, 0.0, 100.0]}

# One case per range check of the config dataclasses, and per size bound
# of the config reader: (dotted key, value set there, the key named, or
# the keys named by a check over several).
RANGE_CASES = [
    ("layout.site_count", 0, None),
    ("layout.isd_m", 0.0, None),
    ("layout.sectors_per_site", 0, None),
    ("layout.sectors_per_site", 27, None),
    ("layout.neighbor_radius_factor", 0.0, None),
    ("layout.pathloss.exponent", 0.0, None),
    ("layout.pathloss.d0_m", 0.0, None),
    ("layout.pathloss.beamwidth_deg", 0.0, None),
    ("layout.pathloss.max_attenuation_db", -1.0, None),
    ("layout.pathloss.shadowing_sigma_db", -1.0, None),
    ("traffic.components", [], "traffic.floor"),
    ("traffic.components[0].sigma_m", 0.0, None),
    ("traffic.components[0].sigma_m", 1e308, None),
    ("traffic.components[0].amplitude", 0.0, None),
    ("potential.zones[0].importance", -1.0, None),
    ("potential.zones[0].radius_m", 0.0, None),
    ("potential.zones[0].radius_m", 1e308, None),
    ("potential.zones[0]", RECT_ZONE, "potential.zones[0].corners"),
    ("oracle.rho_cap", 0.0, None),
    ("oracle.mu0_bps", 0.0, None),
    ("oracle.r_min_bps", 0.0, None),
    ("sim.arrival_rate", -1.0, None),
    ("sim.arrival_rate", 1e308, None),
    ("sim.file_size_bits", 0.0, None),
    ("sim.mobile_fraction", 1.5, None),
    ("sim.speed_kmh", -1.0, None),
    ("sim.speed_kmh", 1e308, None),
    ("sim.handover_margin_db", -1.0, None),
    ("sim.duration_s", 0.0, None),
    ("sim.duration_s", 1e308, None),
    ("sim.tick_s", 0.0, None),
    ("sim.capacity_per_cell_bps", 0.0, None),
    ("sim.mu0_bps", 0.0, None),
    ("sim.max_ue_per_cell", 0, None),
    ("localizer.epsilon", 0.0, None),
    ("localizer.rho_threshold", 1.0, None),
    ("localizer.mu0_bps", 0.0, None),
    ("localizer.h", 0.0, None),
    ("evaluation.peak_count", 0, None),
    ("evaluation.suppression_radius_m", -1.0, None),
    ("evaluation.p_list", [0.0], None),
    ("grid.pixel_size_m", 0.0, None),
    ("grid.pixel_size_m", 1e308, None),
    ("grid.pixel_size_m", 1e-320, ("grid.extent_m", "grid.pixel_size_m")),
    ("grid.extent_m", 1e12, None),
    ("grid.extent_m", 1510.0, None),
    ("grid.origin", [1e308, 0.0], None),
    ("layout.site_count", 1e308, None),
    ("layout.pathloss.d0_m", 1e-320, None),
    ("layout.pathloss.exponent", 1e15, None),
    ("traffic.floor", 1e308, None),
    ("traffic.noise_sigma", 1e308, ("traffic.components", "traffic.noise_sigma")),
    ("traffic.components[0].amplitude", 1e308, None),
    ("traffic.components[0].center", [1e308, 0.0], None),
    ("potential.zones[0].center", [1e308, 0.0], None),
    ("oracle.mu0_bps", 1e-320, ("oracle.r_min_bps", "oracle.mu0_bps")),
    ("sim.tick_s", 1e-320, ("sim.duration_s", "sim.tick_s")),
    ("sim.tick_s", 1e308, ("sim.arrival_rate", "sim.tick_s")),
    ("sim.max_ue_per_cell", 1e308, None),
    ("evaluation.suppression_radius_m", 1e308, None),
    (
        "layout.pathloss.tx_power_dbm",
        0.0,
        (
            "layout.pathloss.tx_power_dbm",
            "layout.pathloss.ref_loss_db",
            "layout.pathloss.prune_below_dbm",
            "grid.q_rxlevmin_dbm",
        ),
    ),
]


def config_with(key, value, data=None):
    """A copy of ``data`` (by default ``minimal_config`` with one disk
    zone) with ``value`` at the dotted ``key``."""
    data = copy.deepcopy(data or minimal_config(potential={"zones": [dict(DISK_ZONE)]}))
    *parents, last = key.replace("[", ".").replace("]", "").split(".")
    section = data
    for part in parents:
        section = section[int(part)] if part.isdigit() else section.setdefault(part, {})
    section[int(last) if last.isdigit() else last] = value
    return data


class TestRangeErrors:
    """A value that a section's dataclass or the grid reader refuses is
    named by its own dotted key, not by its section's."""

    @pytest.mark.parametrize("key, value, field", RANGE_CASES, ids=lambda v: repr(v)[:40])
    def test_range_error_names_the_key(self, key, value, field):
        error = rejected(config_with(key, value))
        if isinstance(field, tuple):
            # A check over several keys names each of them.
            assert set(error.fields) == set(field)
            assert all(name in str(error) for name in field)
        else:
            assert error.source == (field or key)
        assert str(error).startswith(f"{error.source}: ")

    def test_cube_bound_admits_metro_at_m_1024(self):
        # 61 sites of 3 sectors at m=1024: a 1.5 GB cube, under the bound.
        grid = {"extent_m": 25600.0, "pixel_size_m": 25.0}
        config = parse_scenario_config(minimal_config(grid=grid, layout={"site_count": 61}))
        assert config.spec.m == 1024
        cube = 8 * 183 * 1024**2
        assert cube < MAX_CUBE_BYTES < 8 * 86 * 3 * 1024**2
        error = rejected(minimal_config(grid=grid, layout={"site_count": 86}))
        assert error.source == "layout.site_count"
        assert "258 x 1024 x 1024 float64 values" in str(error)


SIM_SMALL = json.loads(SIM_CONFIG.read_text())
EXTREME_VALUES = (1e308, -1e308, 1e-320, 0, -1, 1e15)


def numeric_leaves(value, path=""):
    """The dotted key of every number in the JSON document ``value``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from numeric_leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from numeric_leaves(item, f"{path}[{k}]")
    elif not isinstance(value, str):
        yield path


class TestExtremeValues:
    """Each numeric leaf of sim-small, set to each extreme value, either
    runs to finite outputs or is refused by a ConfigError that names it (a
    list item by its list), from the reader or from a stage. Keys of the
    sim section run with simulator KPIs, the others with the oracle's."""

    @pytest.mark.parametrize("key", list(numeric_leaves(SIM_SMALL)))
    def test_runs_or_names_the_key(self, key, tmp_path):
        source = "sim" if key.startswith("sim.") else "oracle"
        for value in EXTREME_VALUES:
            try:
                config = parse_scenario_config(config_with(key, value, SIM_SMALL))
                result = run_pipeline(config, tmp_path / repr(value), kpi_source=source)
            except (ConfigError, StageError) as exc:
                error = exc.cause if isinstance(exc, StageError) else exc
                named = isinstance(error, ConfigError) and any(
                    key == field or key.startswith(f"{field}[") for field in error.fields
                )
                assert named, f"{key} = {value!r}: {exc}"
            else:
                json.dumps(report_to_dict(result.report), allow_nan=False)


class TestBuildScenario:
    def test_shipped_configs_load(self):
        desk = load_scenario_config(DESK_CONFIG)
        assert desk.spec.m == 60
        assert desk.layout.site_count == 7
        small = load_scenario_config(SIM_CONFIG)
        assert small.spec.m == 32
        assert small.layout.site_count == 1

    def test_build_is_deterministic(self):
        config = load_scenario_config(SIM_CONFIG)
        a = build_scenario(config)
        b = build_scenario(config)
        np.testing.assert_array_equal(a.truth.values, b.truth.values)
        np.testing.assert_array_equal(a.grid.rsrp, b.grid.rsrp)
        np.testing.assert_array_equal(a.servers.best, b.servers.best)
        np.testing.assert_array_equal(a.servers.second, b.servers.second)

    def test_truth_is_normalized(self):
        scenario = build_scenario(load_scenario_config(SIM_CONFIG))
        assert scenario.truth.total() == pytest.approx(1.0, abs=1e-9)
        assert scenario.truth.values.min() >= 0.0

    def test_seed_changes_truth_with_noise(self):
        data = minimal_config()
        data["traffic"]["noise_sigma"] = 0.3
        config = parse_scenario_config(data)
        a = build_scenario(config).truth.values
        b = build_scenario(replace(config, seed=11)).truth.values
        assert not np.array_equal(a, b)
