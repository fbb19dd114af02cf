"""Seeded workload inputs.

Each workload is a ``ScenarioConfig`` plus a KPI source, built in code
from the public dataclasses and the shipped desk config; no data file is
added. The README records why each workload exists.

A run repeats its workload many times. Repetition ``rep`` uses input draw
``rep % draws``; draw ``d`` of run seed ``s`` has the effective seed
``s * draws + d``, so draws never overlap across run seeds and draw 0 of
seed 0 is the default input the reference reports were recorded on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from hotloc.kpi import HotspotZone, PotentialHotspotSpec, TrafficComponent, TrafficModel
from hotloc.grid import GridSpec
from hotloc.pipeline import KPI_SOURCE_ORACLE, KPI_SOURCE_SIM
from hotloc.scenario import ScenarioConfig, load_scenario_config

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIG = ROOT / "configs" / "desk.json"
GOLDEN_REPORT = ROOT / "tests" / "data" / "golden_report.json"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# metro-oracle geometry: 61 sites (centre plus four hex rings) on a
# 240 x 240 map of 25 m pixels.
METRO_M = 240
METRO_SITES = 61
METRO_COMPONENTS = 20
METRO_SIGMA_M = 90.0
METRO_AMPLITUDE = 3.0
METRO_ZONE_RADIUS_M = 150.0
# Components are drawn in a disk of this many ISDs around the map centre,
# which the four rings cover; drawn over the whole map, most fall outside
# coverage and the scores say nothing about the localizer.
METRO_SPREAD_ISD = 4.0
# The component layout is drawn once, from this fixed seed, not from the
# run seed: across run seeds 0-4 a fresh layout moved the step7 peak
# distance between 548 and 1006 m, detection at p = 0.05 fivefold and the
# congested-cell count between 28 and 40, so no end-to-end bound could
# hold. Like desk-oracle, metro-oracle's outputs do not depend on the
# run seed.
METRO_LAYOUT_SEED = 0
# desk's rho_cap scaled by 21/183 keeps the per-cell load comparable:
# 29 of 183 cells come out congested at seed 0, so step 4 runs.
DESK_CELLS = 21

# desk-sim: a busy hour of traffic on the desk geometry.
SIM_ARRIVAL_RATE = 40.0
SIM_FILE_SIZE_BITS = 4e6
SIM_DURATION_S = 3600.0
# From one simulator seed to the next the step7 peak distance jumps
# between about 80, 110, 130 and 160 m as single peaks change partner;
# the quality metrics take the mean over this many draws. Their median
# flipped between the 130 and 160 m clusters from run to run.
SIM_DRAWS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    config: ScenarioConfig
    kpi_source: str
    # report.json of this input must match this file at rel 1e-12, or
    # None when no reference was recorded for the input.
    reference: Path | None


def desk_config(seed: int) -> ScenarioConfig:
    return load_scenario_config(DESK_CONFIG, seed_override=seed)


def desk_oracle(seed: int) -> Workload:
    # Noise and shadowing are zero, so every seed gives the golden report.
    return Workload("desk-oracle", desk_config(seed), KPI_SOURCE_ORACLE, GOLDEN_REPORT)


def metro_oracle(seed: int) -> Workload:
    desk = desk_config(seed)
    spec = GridSpec(m=METRO_M, pixel_size=desk.spec.pixel_size, origin=desk.spec.origin)
    isd = desk.layout.isd_m
    centre = (
        spec.origin[0] + spec.extent / 2.0,
        spec.origin[1] + spec.extent / 2.0,
    )
    rng = np.random.default_rng(METRO_LAYOUT_SEED)
    # Uniform in the disk: radius by the square root of a uniform draw.
    radius = METRO_SPREAD_ISD * isd * np.sqrt(rng.random(METRO_COMPONENTS))
    angle = rng.uniform(0.0, 2.0 * math.pi, METRO_COMPONENTS)
    centres = [
        (float(centre[0] + r * math.cos(a)), float(centre[1] + r * math.sin(a)))
        for r, a in zip(radius, angle)
    ]
    traffic = TrafficModel(
        components=[
            TrafficComponent(center=c, sigma=METRO_SIGMA_M, amplitude=METRO_AMPLITUDE)
            for c in centres
        ],
        floor=desk.traffic.floor,
        noise_sigma=desk.traffic.noise_sigma,
    )
    potential = PotentialHotspotSpec(
        zones=[
            HotspotZone(shape="disk", importance=1.0, center=c, radius=METRO_ZONE_RADIUS_M)
            for c in centres
        ]
    )
    config = replace(
        desk,
        spec=spec,
        layout=replace(desk.layout, site_count=METRO_SITES),
        traffic=traffic,
        potential=potential,
        oracle=replace(
            desk.oracle,
            rho_cap=desk.oracle.rho_cap * DESK_CELLS / (METRO_SITES * desk.layout.sectors_per_site),
        ),
        evaluation=replace(desk.evaluation, peak_count=METRO_COMPONENTS),
    )
    return Workload(
        "metro-oracle", config, KPI_SOURCE_ORACLE, REFERENCE_DIR / "metro-oracle.json"
    )


def desk_sim(seed: int) -> Workload:
    # The seed reaches the simulator; the desk traffic has no noise.
    desk = desk_config(seed)
    sim = replace(
        desk.sim,
        arrival_rate=SIM_ARRIVAL_RATE,
        file_size_bits=SIM_FILE_SIZE_BITS,
        duration_s=SIM_DURATION_S,
    )
    reference = REFERENCE_DIR / "desk-sim.json" if seed == 0 else None
    return Workload("desk-sim", replace(desk, sim=sim), KPI_SOURCE_SIM, reference)


WORKLOADS = {
    "desk-oracle": (desk_oracle, 1),
    "metro-oracle": (metro_oracle, 1),
    "desk-sim": (desk_sim, SIM_DRAWS),
}


def draws(name: str) -> int:
    """Number of distinct inputs a run of the workload cycles through."""
    return WORKLOADS[name][1]


def build(name: str, seed: int, draw: int = 0) -> Workload:
    make, count = WORKLOADS[name]
    return make(seed * count + draw % count)
