"""Traffic hotspot localization from per-cell O&M KPIs.

The package turns aggregated cell counters (timing-advance and
angle-of-arrival distributions, neighbor handover levels, load time and
throughput means) into a pixel-level traffic weight map over a coverage
grid, fuses the per-KPI maps with fitted non-negative importance factors
and smooths the result into a hotspot estimate.
"""

__version__ = "0.1.0"
