"""A seeded mutation fuzz test over every file a stage command reads.

Each case copies one sim-small run, applies one random mutation to one
file that a stage command reads, or to the config file, and runs that
command's stages (its ``hotloc.cli.STAGE_COMMANDS`` entry) in process,
as the command does: the config through ``load_scenario_config``, then
``pipeline.run_stages``. The run must finish, or raise an
:class:`InputError` (bare, or as the ``cause`` of a ``StageError``)
whose ``source`` names what was mutated: the file, or for a value of the
config its dotted key. A file cut short, as a full disk or a killed run
leaves it, may only finish when its loader reads it back equal to the
whole file. The grid's binary cube file, ``grid.npy``, takes the
mutations of ``conftest.CUBE_MUTATIONS`` instead, each of which must be
refused naming it.
"""

import json
import random
import re
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import CUBE_MUTATIONS, SIM_CONFIG, mutate_cube
from hotloc.bounds import ConfigError, InputError
from hotloc.cli import STAGE_COMMANDS, main
from hotloc.grid import load_grid
from hotloc.kpi import load_kpi_set, load_weight_map
from hotloc.pipeline import StageError, load_importance, run_stages
from hotloc.scenario import load_scenario_config

SEED = 7
CASES = 300
# Seeded cases for each (file, command) pair of COMMANDS, beside the
# CASES drawn over all of them.
PAIR_CASES = 4

# The stage commands that read each text file; the grid's commands also
# read its cube file, grid.npy.
COMMANDS = {
    "config.json": ("optimize", "localize", "evaluate", "simulate", "gen-scenario"),
    "grid.csv": ("oracle-kpis", "optimize", "localize"),
    "truth.csv": ("oracle-kpis", "evaluate"),
    "kpis.json": ("optimize",),
    "potential.csv": ("optimize", "localize", "evaluate"),
    "q1.csv": ("localize", "evaluate"),
    "q3.csv": ("localize", "evaluate"),
    "q5.csv": ("localize", "evaluate"),
    "importance.json": ("localize",),
    "fused.csv": ("evaluate",),
    "smoothed.csv": ("evaluate",),
}
PAIRS = [(name, command) for name in sorted(COMMANDS) for command in COMMANDS[name]]

NUMBERS = ("nan", "inf", "1e308", "1e-320", "-1", "", "text", "1_0")
JSON_VALUES = (None, [], {}, "text", float("nan"), float("inf"), 1e308, 1e-320, -1, True, "0.5", 10**400)
STRAY = (",", ";", "\0", "é")
# Bytes that are not UTF-8 on their own: a continuation byte, the lead
# byte of a two-byte sequence and a byte UTF-8 never uses. The mutated
# text holds each as the surrogate escape of the byte.
NOT_UTF8 = tuple(bytes([b]).decode("utf-8", "surrogateescape") for b in (0x80, 0xC3, 0xFF))
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?|nan|inf")
# The row that ends the header of each CSV format that has one; grid.csv's
# header ends at its cells row, and its cell rows run to the end of the file.
MARKERS = ("i,j,weight",)


def json_paths(value, path=()):
    """The path of every value inside the JSON document ``value``."""
    if path:
        yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from json_paths(item, (*path, key))


def dotted(path) -> str:
    """A JSON path as the config reader names it: ``traffic.components[0].center``."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def mutate(rng: random.Random, name: str, text: str) -> tuple[str, str, str | None]:
    """One random mutation of the file ``name``: (kind, new text, the
    dotted path of the config value it replaced, or None)."""
    lines = text.split("\n")[:-1]
    marker = next((k for k, line in enumerate(lines) if line in MARKERS), None)
    kinds = ["number", "drop", "duplicate", "swap", "cut", "stray", "byte"]
    if name.endswith(".json"):
        kinds.append("json")
    if marker is not None:
        kinds += ["header", "blank"]
    kind = rng.choice(kinds)
    if kind == "number":
        match = rng.choice(list(NUMBER.finditer(text)))
        return kind, text[: match.start()] + rng.choice(NUMBERS) + text[match.end() :], None
    if kind == "json":
        doc = json.loads(text)
        path = rng.choice(list(json_paths(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = rng.choice(JSON_VALUES)
        return kind, json.dumps(doc), dotted(path)
    if kind == "cut":
        return kind, text[: rng.randrange(len(text))], None
    if kind in ("stray", "byte"):
        at = rng.randrange(len(text) + 1)
        insert = rng.choice(STRAY if kind == "stray" else NOT_UTF8)
        return kind, text[:at] + insert + text[at:], None
    k = rng.randrange(len(lines))
    if kind == "drop":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "swap":
        k = min(k, len(lines) - 2)
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    elif kind == "header":
        # A second copy of one header row, just before the marker row.
        lines.insert(marker, lines[rng.randrange(1, marker)])
    else:
        # A blank line among the data rows.
        lines.insert(rng.randrange(marker + 1, len(lines)), "")
    return kind, "\n".join(lines) + "\n", None


def read_back(path):
    """The file ``path`` as the stages' loader of its name reads it, in a
    form that ``==`` compares; None when the loader refuses it."""
    try:
        if path.name == "config.json":
            return load_scenario_config(path)
        if path.name == "importance.json":
            return load_importance(path)
        if path.name == "grid.csv":
            grid = load_grid(path)
            return grid.spec, grid.cells, grid.q_rxlevmin, grid.rsrp.tobytes()
        if path.name == "kpis.json":
            kpis = load_kpi_set(path)
            cells = {c: (k.ta.tolist(), k.aoa.tolist(), k.neighbor_level, k.load_time, k.amt_bps, k.hmt_bps)
                     for c, k in kpis.cells.items()}
            return kpis.source, kpis.window_s, cells
        wmap = load_weight_map(path)
        return wmap.spec, wmap.label, wmap.values.tobytes()
    except InputError:
        return None


def run_command(command: str, art) -> Exception | None:
    """Run ``command`` on the artifacts and config in ``art`` as the CLI
    does, in process; the exception it raised, or None. Anything but an
    InputError or a StageError is raised."""
    try:
        config = load_scenario_config(art / "config.json")
        entry = STAGE_COMMANDS[command]
        run_stages(entry.stages, config, art, kpi_source=entry.kpi_source)
    except (InputError, StageError) as exc:
        return exc
    return None


def related(key: str, field: str) -> bool:
    """Whether the dotted config key ``key`` is ``field``, or a key above
    or below it: ``potential.zones`` and ``potential.zones[0].center``."""
    return any(
        a == b or a.startswith((f"{b}.", f"{b}[")) for a, b in ((key, field), (field, key))
    )


def check_named(error: Exception | None, path, field: str | None, what: str) -> None:
    """A finished run (``error`` None), or an error that names the mutation
    of the file ``path``: a text mutation of the config is a ConfigError
    raised before any stage; a replaced config value is named by its key
    or one above or below it; any other file is the error's source, a
    map too large for the fit is named by its label, and a file off the
    config's grid is a ConfigError on a ``grid.*`` key."""
    if error is None:
        return
    cause = error.cause if isinstance(error, StageError) else error
    assert isinstance(cause, InputError), f"{what}: {type(cause).__name__}: {cause}"
    if path.name == "config.json" and field is None:
        named = isinstance(error, ConfigError) and bool(error.source)
    elif path.name == "config.json":
        named = isinstance(cause, ConfigError) and any(key and related(key, field) for key in cause.fields)
    else:
        label = f"map {path.stem!r}"
        off_grid = isinstance(error, ConfigError) and error.source.startswith("grid.")
        named = cause.source in (str(path), label) or (off_grid and str(path) in error.message)
    assert named, f"{what}: {error}"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """Every artifact of one sim-small ``hotloc pipeline`` run, with its
    config as ``config.json``."""
    out = tmp_path_factory.mktemp("fuzz") / "run"
    out.mkdir()
    config = shutil.copy(SIM_CONFIG, out / "config.json")
    result = CliRunner().invoke(main, ["pipeline", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


def mutated_run(run_dir, tmp_path, rng: random.Random, name: str, command: str) -> None:
    """Mutate ``name`` in a copy of the run and run ``command`` on it."""
    art = shutil.copytree(run_dir, tmp_path / "art")
    path = art / name
    kind, text, field = mutate(rng, name, path.read_text(encoding="utf-8"))
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    if kind == "cut":
        check_cut(run_dir, art, name, command, f"cut of {name} under {command}")
        return
    error = run_command(command, art)
    check_named(error, path, field, f"{kind} mutation of {name} under {command}")


def check_cut(run_dir, art, name: str, command: str, what: str) -> None:
    """Run ``command`` on ``art``, whose ``name`` is a prefix of the run's:
    it must be refused naming the file, or finish with the prefix read
    back equal to the whole file. The prefix is read before the run,
    which may write files of its own."""
    path = art / name
    read = read_back(path)
    error = run_command(command, art)
    check_named(error, path, None, what)
    if error is None:
        assert read is not None and read == read_back(run_dir / name), f"{what} read as another file"


@pytest.mark.parametrize("case", range(CASES))
def test_mutated_input_is_read_or_named(run_dir, tmp_path, case):
    rng = random.Random(SEED * CASES + case)
    name = rng.choice(sorted(COMMANDS))
    mutated_run(run_dir, tmp_path, rng, name, rng.choice(COMMANDS[name]))


@pytest.mark.parametrize(
    "name, command, case", [(name, command, case) for name, command in PAIRS for case in range(PAIR_CASES)]
)
def test_every_command_reads_or_names(run_dir, tmp_path, name, command, case):
    mutated_run(run_dir, tmp_path, random.Random(f"{SEED} {name} {command} {case}"), name, command)


@pytest.mark.parametrize("name, command", PAIRS)
def test_every_command_refuses_a_cut_file_or_reads_it_whole(run_dir, tmp_path, name, command):
    """Prefixes of each file under each command that reads it: the whole
    file but its final newline, a cut before each "," or ";" of its last
    64 bytes (a grid's last cell row cut there has fewer neighbours), and
    seeded cuts inside its last row, at a line end and anywhere."""
    data = (run_dir / name).read_bytes()
    rng = random.Random(f"{SEED} cut {name} {command}")
    last_row = data.rfind(b"\n", 0, len(data) - 1) + 1
    line_ends = [k + 1 for k in range(len(data) - 1) if data[k] == ord("\n")]
    cuts = {len(data) - 1, rng.randrange(last_row, len(data)), rng.randrange(len(data))}
    cuts.update(k for k in range(max(0, len(data) - 64), len(data)) if data[k] in b",;")
    if line_ends:
        cuts.add(rng.choice(line_ends))
    for cut in sorted(cuts):
        art = shutil.copytree(run_dir, tmp_path / f"art{cut}")
        (art / name).write_bytes(data[:cut])
        check_cut(run_dir, art, name, command, f"{name} cut to {cut} of {len(data)} bytes under {command}")


@pytest.mark.parametrize("kind", CUBE_MUTATIONS)
@pytest.mark.parametrize("command", COMMANDS["grid.csv"])
def test_broken_cube_is_named(run_dir, tmp_path, command, kind):
    art = shutil.copytree(run_dir, tmp_path / "art")
    cube = art / "grid.npy"
    mutate_cube(cube, kind, np.random.default_rng(sorted(COMMANDS["grid.csv"]).index(command)))
    error = run_command(command, art)
    cause = error.cause if isinstance(error, StageError) else error
    assert isinstance(cause, InputError), f"{kind} cube under {command} ran"
    assert cause.source == str(cube), f"{kind} cube under {command}: {error}"


def test_printed_form(run_dir, tmp_path):
    """The CLI prints a refusal once, as ``hotloc: stage <s>: <source>:
    <where>: <message>``."""
    art = shutil.copytree(run_dir, tmp_path / "art")
    lines = (art / "q1.csv").read_text().split("\n")
    lines[7] = "0,1,-1.0"
    (art / "q1.csv").write_text("\n".join(lines))
    result = CliRunner().invoke(main, ["localize", "--config", str(art / "config.json"), "--out", str(art)])
    assert result.exit_code == 1
    error = run_command("localize", art)
    assert (error.source, error.where) == (str(art / "q1.csv"), "line 8")
    assert result.stderr == f"hotloc: stage localize: {art / 'q1.csv'}: line 8: {error.message}\n"


# The header rows of the sweep, by file, and the command that reads each.
HEADER_ROWS = {
    "grid.csv": (("m", "pixel_size", "origin", "q_rxlevmin", "cells"), "oracle-kpis"),
    "q1.csv": (("m", "pixel_size", "origin"), "localize"),
    "truth.csv": (("m", "pixel_size", "origin"), "oracle-kpis"),
}
EXTREMES = ("1e308", "-1e308", "1e-320", "0", "-1", "1e15", "nan", "inf")


@pytest.mark.parametrize("value", EXTREMES)
@pytest.mark.parametrize(
    "name, key", [(name, key) for name, (keys, _) in HEADER_ROWS.items() for key in keys]
)
def test_extreme_header_value_is_read_or_named(run_dir, tmp_path, name, key, value):
    """Each value of a header row set to an extreme: the run finishes, or
    its error's source is the file, or a ``grid.*`` key of the config
    whose message names the file."""
    art = shutil.copytree(run_dir, tmp_path / "art")
    path = art / name
    lines = path.read_text().split("\n")
    (k,) = [k for k, line in enumerate(lines) if line.startswith(f"{key},")]
    lines[k] = ",".join([key] + [value] * (lines[k].count(",")))
    path.write_text("\n".join(lines))
    command = HEADER_ROWS[name][1]
    check_named(run_command(command, art), path, None, f"{name} {key} {value} under {command}")
