"""The errors that refuse an input: their fields, their text and how a
loader or a stage carries them."""

import pytest

from hotloc.bounds import ConfigError, InputError, shown
from hotloc.pipeline import StageError


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
