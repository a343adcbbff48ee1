"""Configuration, environment overrides, and the work budget."""

from dataclasses import fields

import pytest

from jagg.config import BudgetError, Config, DEFAULT, charge


def test_defaults():
    assert DEFAULT.arity_cap == 20
    assert DEFAULT.enumeration_budget == 1 << 25
    assert DEFAULT.output_format == "text"
    assert [f.name for f in fields(Config)] == ["arity_cap", "enumeration_budget",
                                                 "output_format"]


def test_validation():
    with pytest.raises(ValueError):
        Config(arity_cap=0)
    with pytest.raises(ValueError):
        Config(enumeration_budget=-1)
    for removed in ("worker_count", "matrix_cap", "profile_cap"):
        with pytest.raises(TypeError):
            Config(**{removed: 1})
    with pytest.raises(ValueError):
        Config(output_format="yaml")


def test_from_env():
    cfg = Config.from_env({"JAGG_ARITY_CAP": "8", "JAGG_OUTPUT_FORMAT": "json",
                           "UNRELATED": "x"})
    assert cfg.arity_cap == 8
    assert cfg.output_format == "json"
    assert cfg.enumeration_budget == DEFAULT.enumeration_budget
    assert Config.from_env({}) == DEFAULT
    # removed knobs are ignored like any unknown variable
    assert Config.from_env({"JAGG_MATRIX_CAP": "1", "JAGG_PROFILE_CAP": "x",
                            "JAGG_WORKER_COUNT": "1"}) == DEFAULT


def test_from_env_rejects_malformed():
    with pytest.raises(ValueError):
        Config.from_env({"JAGG_ENUMERATION_BUDGET": "lots"})
    with pytest.raises(ValueError):
        Config.from_env({"JAGG_OUTPUT_FORMAT": "xml"})


def test_charge():
    cfg = Config(enumeration_budget=100)
    charge(cfg, 100, "small sweep", "anything this size")
    with pytest.raises(BudgetError) as err:
        charge(cfg, 101, "big sweep", "m + n <= 5")
    assert "big sweep" in str(err.value)
    assert "m + n <= 5" in str(err.value)
    assert isinstance(err.value, RuntimeError)
