"""The errors that refuse an input: their fields, their text and how a
loader or a stage carries them; and the JSON codec."""

import json
import math

import pytest

from conftest import DESK_CONFIG, SIM_CONFIG
from hotloc.bounds import ConfigError, InputError, json_float, read_section, section_doc, shown
from hotloc.pipeline import StageError
from hotloc.scenario import _SECTIONS, GridParams, load_scenario_config


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
