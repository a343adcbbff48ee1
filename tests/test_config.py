"""Configuration, environment overrides, and the work budget."""

import pytest

from jagg.config import BudgetError, Config, DEFAULT, charge


def test_defaults():
    assert DEFAULT.arity_cap == 20
    assert DEFAULT.matrix_cap == 25
    assert DEFAULT.enumeration_budget == 1 << 25
    assert DEFAULT.profile_cap == 10 ** 7
    assert not hasattr(DEFAULT, "worker_count")
    assert DEFAULT.output_format == "text"


def test_validation():
    with pytest.raises(ValueError):
        Config(arity_cap=0)
    with pytest.raises(ValueError):
        Config(matrix_cap=-1)
    with pytest.raises(TypeError):
        Config(worker_count=1)
    with pytest.raises(ValueError):
        Config(output_format="yaml")


def test_from_env():
    cfg = Config.from_env({"JAGG_ARITY_CAP": "8", "JAGG_OUTPUT_FORMAT": "json",
                           "UNRELATED": "x"})
    assert cfg.arity_cap == 8
    assert cfg.output_format == "json"
    assert cfg.matrix_cap == DEFAULT.matrix_cap
    assert Config.from_env({}) == DEFAULT


def test_from_env_rejects_malformed():
    with pytest.raises(ValueError):
        Config.from_env({"JAGG_PROFILE_CAP": "lots"})
    with pytest.raises(ValueError):
        Config.from_env({"JAGG_OUTPUT_FORMAT": "xml"})


def test_with_overrides():
    cfg = DEFAULT.with_overrides(arity_cap=5)
    assert cfg.arity_cap == 5 and cfg.matrix_cap == DEFAULT.matrix_cap
    assert DEFAULT.with_overrides(arity_cap=None) == DEFAULT


def test_charge():
    cfg = Config(enumeration_budget=100)
    charge(cfg, 100, "small sweep", "anything this size")
    with pytest.raises(BudgetError) as err:
        charge(cfg, 101, "big sweep", "m + n <= 5")
    assert "big sweep" in str(err.value)
    assert "m + n <= 5" in str(err.value)
    assert isinstance(err.value, RuntimeError)
