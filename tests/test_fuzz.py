"""A seeded mutation fuzz test over every file a stage command reads.

Each case copies one sim-small run, applies one random mutation to one
file that a stage command reads, or to the config file, and runs that
command through ``CliRunner``. The command must exit 0, or exit 1 with
``hotloc: stage <s>:`` on stderr and either the mutated file's name or,
for a value of the config, its dotted path.
"""

import json
import random
import re
import shutil

import pytest
from click.testing import CliRunner

from conftest import SIM_CONFIG
from hotloc.cli import main

SEED = 7
CASES = 300

# The stage commands that read each file.
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

NUMBERS = ("nan", "inf", "1e308", "1e-320", "-1", "", "text")
JSON_VALUES = (None, [], {}, "text", float("nan"), float("inf"), 1e308, 1e-320, -1)
STRAY = (",", ";", "\0", "é")
# Bytes that are not UTF-8 on their own: a continuation byte, the lead
# byte of a two-byte sequence and a byte UTF-8 never uses. The mutated
# text holds each as the surrogate escape of the byte.
NOT_UTF8 = tuple(bytes([b]).decode("utf-8", "surrogateescape") for b in (0x80, 0xC3, 0xFF))
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?|nan|inf")
# The row that ends the header of each CSV format.
MARKERS = ("rsrp", "i,j,weight")


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
    kinds = ["number", "drop", "duplicate", "swap", "truncate", "stray", "byte"]
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
    if kind == "truncate":
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


@pytest.mark.parametrize("case", range(CASES))
def test_mutated_input_is_read_or_named(run_dir, tmp_path, case):
    rng = random.Random(SEED * CASES + case)
    name = rng.choice(sorted(COMMANDS))
    command = rng.choice(COMMANDS[name])
    art = shutil.copytree(run_dir, tmp_path / "art")
    path = art / name
    kind, text, field = mutate(rng, name, path.read_text(encoding="utf-8"))
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    result = CliRunner().invoke(
        main, [command, "--config", str(art / "config.json"), "--out", str(art)]
    )
    what = f"{kind} mutation of {name} under {command}: {result.output}"
    assert result.exit_code in (0, 1), what
    assert result.exception is None or isinstance(result.exception, SystemExit), what
    if result.exit_code == 1:
        assert re.match(r"hotloc: stage [\w-]+: ", result.stderr), what
        if name == "config.json" and field is None:
            # A text mutation of the config: any key path the reader names.
            named = re.match(r"hotloc: stage config: [^:\s]+: ", result.stderr)
        else:
            # A weight too large for the fit is named by its map's label.
            label = f"map {name.removesuffix('.csv')!r}: "
            named = name in result.stderr or label in result.stderr
            named = named or (field is not None and field in result.stderr)
        assert named, what
