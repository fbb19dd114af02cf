"""The errors that refuse an input: their fields, their text and how a
loader or a stage carries them; and the JSON codec."""

import json
import math

import pytest

from conftest import DESK_CONFIG, SIM_CONFIG
from hotloc.bounds import ConfigError, InputError, json_float, read_section, section_doc, shown
from hotloc.kpi import HotspotZone, PotentialHotspotSpec
from hotloc.pipeline import StageError
from hotloc.scenario import _SECTIONS, GridParams, load_scenario_config, parse_scenario_config


class TestInputError:
    def test_text_leaves_out_empty_parts(self, tmp_path):
        path = tmp_path / "q1.csv"
        error = InputError(path, "line 8", "weight -1.0 is negative or NaN")
        assert (error.source, error.where) == (str(path), "line 8")
        assert str(error) == f"{path}: line 8: weight -1.0 is negative or NaN"
        assert str(InputError(path, None, "missing rsrp section")) == f"{path}: missing rsrp section"
        assert str(InputError("", "cell 'A'", "load_time must be in [0, 1]")) == (
            "cell 'A': load_time must be in [0, 1]"
        )

    def test_config_error_keeps_its_keys(self):
        error = ConfigError(("sim.duration_s", "sim.tick_s"), "must be at most 1000000 ticks")
        assert isinstance(error, InputError)
        assert (error.source, error.where, error.fields) == ("sim.duration_s", None, ("sim.duration_s", "sim.tick_s"))
        assert str(error) == "sim.duration_s: must be at most 1000000 ticks (with sim.tick_s)"

    @pytest.mark.parametrize(
        "inner, where, message",
        [
            (ValueError("m must be an integer"), None, "m must be an integer"),
            (InputError("", "cell 'A'", "ta must have 6 entries"), "cell 'A'", "ta must have 6 entries"),
            (
                ConfigError(("zones[0].corners", "zones[0].shape"), "are degenerate"),
                "zones[0].corners",
                "are degenerate (with zones[0].shape)",
            ),
        ],
    )
    def test_of_puts_an_error_under_its_file(self, inner, where, message):
        error = InputError.of("kpis.json", inner)
        assert (error.source, error.where, error.message) == ("kpis.json", where, message)
        assert str(error) == f"kpis.json: {inner}"

    def test_stage_error_keeps_the_cause(self):
        cause = ConfigError("potential.zones", "importance fit: every factor is zero")
        error = StageError("optimize", cause)
        assert (error.stage, error.cause, str(error)) == ("optimize", cause, str(cause))
        assert str(StageError("optimize", cause, seed=4)) == f"(seed 4) {cause}"


@pytest.mark.parametrize(
    "value, text",
    [
        (10**15, "1000000000000000"),
        (10**15 + 1, "1e+15"),
        (-123456789012345678, "-1.23457e+17"),
        (3 * int(1e308), "3e+308"),
        (10**400, "1e+400"),
        (1e308, "1e+308"),
        (2.5, "2.5"),
        ((1.0, 2.0), "(1.0, 2.0)"),
        ([0, 10**400], "[0, 1e+400]"),
        ((10**400,), "(1e+400,)"),
        ([[1, -(10**20)], "a", None], "[[1, -1e+20], 'a', None]"),
        ([], "[]"),
        ((), "()"),
        ("x" * 40, repr("x" * 40)),
        ("1" * 5000, "'11111111111111111111'... (5000 characters)"),
    ],
)
def test_huge_integers_shown_compactly(value, text):
    assert shown(value) == text


class TestCodec:
    @pytest.mark.parametrize(
        "value, reason",
        [
            (True, "must be a number, got True"),
            ("0.5", "must be a number, got '0.5'"),
            (None, "must be a number, got None"),
            ([0.5], "must be a number, got [0.5]"),
            (10**400, "must be finite, got 1e+400"),
            (-(10**400), "must be finite, got -1e+400"),
            ([1, 10**400], "must be a number, got [1, 1e+400]"),
        ],
    )
    def test_json_float_refuses(self, value, reason):
        with pytest.raises(ValueError) as excinfo:
            json_float(value)
        assert str(excinfo.value) == reason

    def test_json_float_reads_numbers(self):
        assert json_float(3) == 3.0 and type(json_float(3)) is float
        assert json_float(0.25) == 0.25
        # Left to the reader's own bounds.
        assert math.isnan(json_float(math.nan)) and json_float(-math.inf) == -math.inf

    def test_tuple_refusal_shows_a_huge_item_compactly(self):
        zone = {"shape": "disk", "center": [0, 10**400], "radius_m": 50.0, "importance": 1.0}
        with pytest.raises(ConfigError) as excinfo:
            read_section(zone, HotspotZone, "potential.zones[0]")
        text = str(excinfo.value)
        assert text.startswith("potential.zones[0].center: expected a list of 2 finite numbers, got [0, 1e+400]")
        assert text.endswith("potential.zones[0].center[1] is 1e+400") and len(text) < 200

    @pytest.mark.parametrize(
        "read, text",
        [
            (
                lambda: read_section({"zones": 10**400}, PotentialHotspotSpec, "potential"),
                "potential.zones: expected a list, got 1e+400",
            ),
            (
                lambda: read_section({"shape": [10**400], "importance": 1.0}, HotspotZone, "potential.zones[0]"),
                "potential.zones[0].shape: expected a string, got [1e+400]",
            ),
            (
                lambda: parse_scenario_config({"schema": 10**400, "grid": {}, "traffic": {}}),
                "schema: unsupported schema version 1e+400",
            ),
        ],
        ids=["list", "string", "schema"],
    )
    def test_refusals_show_a_huge_integer_compactly(self, read, text):
        with pytest.raises(ConfigError) as excinfo:
            read()
        assert str(excinfo.value) == text

    @pytest.mark.parametrize("path", [DESK_CONFIG, SIM_CONFIG], ids=lambda p: p.name)
    def test_every_section_round_trips(self, path):
        """Each section of a shipped config, written by section_doc as
        JSON text, reads back equal."""
        data, config = json.loads(path.read_text()), load_scenario_config(path)
        for key in ("grid", *_SECTIONS):
            cls = GridParams if key == "grid" else type(getattr(config, key))
            section = read_section(data.get(key, {}), cls, key)
            doc = json.loads(json.dumps(section_doc(section)))
            assert read_section(doc, cls, key) == section, key
