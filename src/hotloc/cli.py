"""Command-line entry points.

``hotloc pipeline`` runs every stage of :mod:`hotloc.pipeline` from one
config file. The other subcommands run their stages on the artifacts in
``--in`` (default: the output directory) and write to ``--out``, so one
working directory accumulates the full artifact set. Each is one entry of
:data:`STAGE_COMMANDS`: its stages, help, summary, options and KPI
source. It hands its stages to :func:`hotloc.pipeline.run_stages` and
echoes the summary; what a stage reads, computes and writes lives in the
pipeline. Every failure, reading the inputs included, ends the command
with ``hotloc: stage <name>: <message>`` on stderr and exit status 1,
printed by :func:`_fail` alone; a read fails under the subcommand's
name, and a bad config, or an input that does not match it, under
``config``.

A refused input is a :class:`hotloc.bounds.InputError` whose ``source``
is the file path or the dotted config key, ``where`` the line (``line
12``) or cell (``cell 'BS01A'``) inside it, or None, and ``message`` the
reason; its message reads ``<source>: <where>: <message>``, without a
part that is None. A :class:`hotloc.bounds.ConfigError` is the config
form: its source is the first key it names, and the other keys follow
the reason as ``(with <key>, ...)``. A stage's failure reaches
:func:`_fail` as a :class:`hotloc.pipeline.StageError` that keeps the
error as ``cause``.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import click

from hotloc.bounds import shown
from hotloc.grid import create
from hotloc.localize import KPI_COUNT, ImportanceVector
from hotloc.pipeline import (
    ALL_VARIANTS,
    KPI_SOURCE_ORACLE,
    KPI_SOURCE_SIM,
    Run,
    StageError,
    run_pipeline,
    run_stages,
)
from hotloc.scenario import ConfigError, load_scenario_config


def _fail(exc: Exception, name: str) -> None:
    """Print ``exc`` as ``hotloc: stage <s>: <exc>`` and exit 1: under its
    stage for a StageError, under ``config`` for a ConfigError (a bad
    config, or an input that does not match it) and under ``name`` for
    anything else (loading the inputs, say)."""
    stage = exc.stage if isinstance(exc, StageError) else "config" if isinstance(exc, ConfigError) else name
    click.echo(f"hotloc: stage {stage}: {exc}", err=True)
    sys.exit(1)


def _reported(name: str):
    """Run a subcommand so that every failure leaves through ``_fail``
    with the subcommand's stage ``name``. Click reports usage errors
    itself."""

    def wrap(fn):
        def command(**kwargs):
            try:
                fn(**kwargs)
            except click.UsageError:
                raise
            except Exception as exc:
                _fail(exc, name)

        command.__doc__ = fn.__doc__
        return command

    return wrap


def _format_x(x: ImportanceVector) -> str:
    return ", ".join(f"{v:.4g}" for v in x.values)


def _parse_x_override(_ctx, _param, value):
    if value is None:
        return None
    parts = value.split(",")
    if len(parts) != KPI_COUNT:
        raise click.BadParameter("expected five comma-separated values, e.g. 0.2,0.2,0.2,0.2,0.2")
    try:
        return ImportanceVector(tuple(float(p) for p in parts))
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


def _parse_seed(_ctx, _param, value):
    """A ``--seed`` value, or one part of ``--seeds``, as a non-negative
    int. A refused value is shown short (:func:`hotloc.bounds.shown`):
    click's own integer type echoes it whole, thousands of digits
    included."""
    if value is None:
        return None
    try:
        seed = int(value)
    except ValueError:  # int() also refuses more digits than sys.get_int_max_str_digits()
        seed = -1
    if seed < 0:
        raise click.BadParameter(f"expected a non-negative integer, got {shown(value)}")
    return seed


def _parse_seeds(ctx, param, value):
    """The ``--seeds`` list: each part read by :func:`_parse_seed`, and no
    seed given twice. A refused list is shown short."""
    if value is None:
        return None
    seeds = tuple(_parse_seed(ctx, param, part) for part in value.split(","))
    if len(set(seeds)) < len(seeds):
        raise click.BadParameter(f"seeds must not repeat, got {shown(value)}")
    return seeds


# Every option of a stage subcommand, by parameter name.
OPTIONS = {
    "config_path": click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Scenario configuration (JSON)."),
    "seed": click.option("--seed", metavar="INTEGER", callback=_parse_seed, default=None, help="Master seed override (non-negative)."),
    "out_dir": click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False), help="Output directory."),
    "in_dir": click.option("--in", "in_dir", type=click.Path(exists=True, file_okay=False), default=None, help="Input artifact directory (default: the output directory)."),
    "events": click.option("--events/--no-events", default=False, help="Also write the simulator's per-tick event log."),
    "x_override": click.option("--x-override", callback=_parse_x_override, default=None, help="Importance factors a,b,c,d,e (skips the fit)."),
}


@click.group()
def main() -> None:
    """KPI-driven traffic hotspot localization toolkit."""


class StageCommand(NamedTuple):
    """A stage subcommand: the stages it runs, in pipeline order; its help
    text; the summary it echoes from the finished run; the options it
    takes beside ``--config``, ``--seed`` and ``--out``, by parameter
    name (:data:`OPTIONS`); and where its KPIs come from."""

    stages: tuple[str, ...]
    help: str
    summary: Callable[[Run], str]
    options: tuple[str, ...] = ("in_dir",)
    kpi_source: str = KPI_SOURCE_ORACLE


def _means(run: Run) -> str:
    return ", ".join(f"{k}: {v.mean_distance_m:.1f} m" for k, v in sorted(run.report.variants.items()))


STAGE_COMMANDS = {
    "gen-scenario": StageCommand(
        ("scenario",),
        "Build the synthetic scenario: coverage grid, ground truth and potential-hotspot prior.",
        lambda run: f"scenario written to {run.out_dir} ({len(run.grid.cells)} cells, m={run.config.spec.m})",
        options=(),
    ),
    "oracle-kpis": StageCommand(
        ("kpis",),
        "Derive per-cell KPIs analytically from the ground-truth map.",
        lambda run: f"oracle KPIs for {len(run.kpis.cells)} cells written to {run.out_dir / 'kpis.json'}",
    ),
    "simulate": StageCommand(
        ("kpis",),
        "Run the discrete-event simulator and emit its KPI set.",
        lambda run: f"simulated KPIs for {len(run.kpis.cells)} cells written to {run.out_dir / 'kpis.json'}",
        options=("in_dir", "events"),
        kpi_source=KPI_SOURCE_SIM,
    ),
    "optimize": StageCommand(
        ("maps", "optimize"),
        "Build the per-KPI maps and fit the importance factors to the potential-hotspot prior.",
        lambda run: f"x = ({_format_x(run.x)}), residual {run.fit_residual:.6g}",
    ),
    "localize": StageCommand(
        ("localize",),
        "Fuse the per-KPI maps with the importance factors and smooth the result.",
        lambda run: f"fused and smoothed maps written to {run.out_dir} (x = {_format_x(run.x)})",
        options=("in_dir", "x_override"),
    ),
    "evaluate": StageCommand(
        ("evaluate",),
        "Fit the restricted variants and score every variant against the ground truth.",
        lambda run: f"report written to {run.out_dir / 'report.json'} ({_means(run)})",
    ),
}


def _register(name: str, entry: StageCommand) -> None:
    """Add the subcommand ``name`` to :func:`main`: it reads the config,
    runs the entry's stages and echoes its summary."""

    def command(config_path, seed, out_dir, in_dir=None, events=False, x_override=None) -> None:
        config = load_scenario_config(config_path, seed)
        run = run_stages(entry.stages, config, out_dir, in_dir, entry.kpi_source, x_override, events)
        click.echo(entry.summary(run))

    command.__doc__ = entry.help
    command = _reported(entry.stages[-1])(command)
    for option in reversed(("config_path", "seed", "out_dir", *entry.options)):
        command = OPTIONS[option](command)
    main.command(name)(command)


for _name, _entry in STAGE_COMMANDS.items():
    _register(_name, _entry)


@main.command("pipeline")
@OPTIONS["config_path"]
@OPTIONS["seed"]
@OPTIONS["out_dir"]
@click.option("--kpi-source", type=click.Choice([KPI_SOURCE_ORACLE, KPI_SOURCE_SIM]), default=KPI_SOURCE_ORACLE, help="Where the per-cell KPIs come from.")
@OPTIONS["x_override"]
@OPTIONS["events"]
@click.option("--seeds", callback=_parse_seeds, default=None, help="Comma-separated seed list: run once per seed into seed-N subdirectories and collect seeds.csv.")
@_reported("pipeline")
def pipeline_cmd(
    config_path: str,
    seed: int | None,
    out_dir: str,
    kpi_source: str,
    x_override: ImportanceVector | None,
    events: bool,
    seeds: tuple[int, ...] | None,
) -> None:
    """Run every stage from scenario generation to the evaluation report."""
    if seed is not None and seeds is not None:
        raise click.UsageError("--seed and --seeds exclude each other")
    if events and kpi_source != KPI_SOURCE_SIM:
        raise click.UsageError(f"--events writes the simulator's event log and needs --kpi-source {KPI_SOURCE_SIM}")
    out = Path(out_dir)

    if seeds is not None:
        rows = []
        for s in seeds:
            config = load_scenario_config(config_path, s)
            try:
                result = run_pipeline(
                    config, out / f"seed-{s}", kpi_source=kpi_source,
                    x_override=x_override, event_log=events,
                )
            except StageError as exc:
                raise StageError(exc.stage, exc.cause, seed=s) from exc.cause
            for label, variant in sorted(result.report.variants.items()):
                for p, detected in sorted(variant.detection.items()):
                    rows.append((s, label, variant.mean_distance_m, p, detected))
        with create(out / "seeds.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "variant", "mean_distance_m", "p", "detected"])
            for row in rows:
                writer.writerow([row[0], row[1], repr(row[2]), repr(row[3]), repr(row[4])])
        click.echo(f"{len(seeds)} runs under {out}, per-seed rows in {out / 'seeds.csv'}")
        return

    config = load_scenario_config(config_path, seed)
    result = run_pipeline(
        config, out, kpi_source=kpi_source, x_override=x_override, event_log=events
    )
    click.echo(f"x = ({_format_x(result.x)})")
    for label in ALL_VARIANTS:
        variant = result.report.variants[label]
        click.echo(f"{label}: mean peak distance {variant.mean_distance_m:.1f} m")
    click.echo(f"artifacts in {out}")


if __name__ == "__main__":
    main()
