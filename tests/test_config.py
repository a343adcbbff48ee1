"""Configuration, environment overrides, and the work budget."""

from dataclasses import fields

import pytest

from jagg.config import BudgetError, Config, DEFAULT, charge


def test_defaults():
    assert DEFAULT.arity_cap == 20
    assert DEFAULT.enumeration_budget == 1 << 25
    assert [f.name for f in fields(Config)] == ["arity_cap", "enumeration_budget"]


def test_validation():
    with pytest.raises(ValueError):
        Config(arity_cap=0)
    with pytest.raises(ValueError):
        Config(enumeration_budget=-1)
    for removed in ("worker_count", "matrix_cap", "profile_cap", "output_format"):
        with pytest.raises(TypeError):
            Config(**{removed: 1})


def test_limits_must_be_positive_ints_not_bools():
    for field in ("arity_cap", "enumeration_budget"):
        for bad in (True, False, 2.0, "3", None, 0, -1):
            with pytest.raises(ValueError) as err:
                Config(**{field: bad})
            assert str(err.value) == f"{field} must be a positive integer, got {bad!r}"
        assert getattr(Config(**{field: 1}), field) == 1


def test_from_env():
    cfg = Config.from_env({"JAGG_ARITY_CAP": "8", "UNRELATED": "x"})
    assert cfg.arity_cap == 8
    assert cfg.enumeration_budget == DEFAULT.enumeration_budget
    assert Config.from_env({}) == DEFAULT
    # removed knobs are ignored like any unknown variable; the output format
    # is the CLI's to read, so the library ignores it too, valid or not
    assert Config.from_env({"JAGG_MATRIX_CAP": "1", "JAGG_PROFILE_CAP": "x",
                            "JAGG_WORKER_COUNT": "1", "JAGG_OUTPUT_FORMAT": "json"}) == DEFAULT
    assert Config.from_env({"JAGG_OUTPUT_FORMAT": "xml"}) == DEFAULT


def test_from_env_rejects_malformed():
    with pytest.raises(ValueError):
        Config.from_env({"JAGG_ENUMERATION_BUDGET": "lots"})


def test_charge():
    cfg = Config(enumeration_budget=100)
    charge(cfg, 100, "small sweep", "anything this size")
    with pytest.raises(BudgetError) as err:
        charge(cfg, 101, "big sweep", "m + n <= 5")
    assert "big sweep" in str(err.value)
    assert "m + n <= 5" in str(err.value)
    assert isinstance(err.value, RuntimeError)
