"""Shared fixtures and small grid builders for the test suite."""

from pathlib import Path

import numpy as np
import pytest

from hotloc.grid import CellInfo, CoverageGrid, GridSpec, compute_server_maps
from hotloc.scenario import load_scenario_config

REPO_ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIG = REPO_ROOT / "configs" / "desk.json"
SIM_CONFIG = REPO_ROOT / "configs" / "sim-small.json"
GOLDEN_REPORT = Path(__file__).resolve().parent / "data" / "golden_report.json"


def constant_grid(cells, m=8, pixel=25.0, q_rxlevmin=-115.0, origin=(0.0, 0.0)):
    """Grid from (cell_id, site, azimuth_rad, rsrp_spec, neighbors) tuples.

    ``rsrp_spec`` is either a scalar painted everywhere or a full (m, m)
    array; NaN entries mean no coverage.
    """
    infos = []
    layers = []
    for cell_id, site, azimuth, rsrp_spec, neighbors in cells:
        infos.append(
            CellInfo(
                cell_id=cell_id,
                site_position=site,
                azimuth=azimuth,
                neighbors=tuple(neighbors),
            )
        )
        layer = np.asarray(rsrp_spec, dtype=np.float64)
        if layer.ndim == 0:
            layer = np.full((m, m), float(layer))
        layers.append(layer)
    spec = GridSpec(m=m, pixel_size=pixel, origin=origin)
    return CoverageGrid(
        spec=spec, cells=infos, rsrp=np.stack(layers), q_rxlevmin=q_rxlevmin
    )


def single_cell_grid(m=8, pixel=25.0, site=(0.0, 0.0), azimuth=0.0, level=-90.0):
    grid = constant_grid([("BS01A", site, azimuth, level, ())], m=m, pixel=pixel)
    return grid, compute_server_maps(grid)


def random_truth(spec: GridSpec, rng, sparse=False):
    """Normalized random weight map on the given grid."""
    from hotloc.kpi import LABEL_TRUTH, WeightMap

    values = rng.random((spec.m, spec.m))
    if sparse:
        values[rng.random((spec.m, spec.m)) < 0.5] = 0.0
        if values.sum() == 0:
            values[0, 0] = 1.0
    return WeightMap(values / values.sum(), spec, LABEL_TRUTH)


def put_byte(path: Path, line_no: int, byte: bytes = b"\xff") -> str:
    """Put ``byte`` at the start of the 1-based line ``line_no`` of the
    file ``path``; the message a loader must give for it, after the path."""
    lines = path.read_bytes().split(b"\n")
    lines[line_no - 1] = byte + lines[line_no - 1]
    path.write_bytes(b"\n".join(lines))
    return f"line {line_no}: byte {byte[0]:#04x} is not UTF-8"


@pytest.fixture()
def desk_config():
    return load_scenario_config(DESK_CONFIG)


@pytest.fixture()
def sim_config():
    return load_scenario_config(SIM_CONFIG)


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """One full oracle-KPI pipeline run on the committed desk scenario."""
    from hotloc.pipeline import run_pipeline

    config = load_scenario_config(DESK_CONFIG)
    out = tmp_path_factory.mktemp("desk-run")
    return run_pipeline(config, out, kpi_source="oracle")
