"""Unit tests for DimmunixConfig validation and helpers."""

from __future__ import annotations

import pytest

from repro.core.config import (DimmunixConfig, STRONG_IMMUNITY, WEAK_IMMUNITY)
from repro.core.errors import ConfigError


class TestValidation:
    def test_defaults_are_valid(self):
        config = DimmunixConfig().validate()
        assert config.matching_depth == 4
        assert config.immunity == WEAK_IMMUNITY

    @pytest.mark.parametrize("field,value", [
        ("monitor_interval", 0),
        ("monitor_interval", -1),
        ("matching_depth", 0),
        ("calibration_na", 0),
        ("calibration_nt", 0),
        ("yield_timeout", 0),
        ("auto_disable_abort_threshold", 0),
        ("fp_window", 0),
        ("immunity", "medium"),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            DimmunixConfig(**{field: value}).validate()

    def test_max_stack_depth_must_cover_matching_depth(self):
        with pytest.raises(ConfigError):
            DimmunixConfig(matching_depth=8, max_stack_depth=4).validate()

    def test_history_path_parent_must_exist(self, tmp_path):
        good = DimmunixConfig(history_path=str(tmp_path / "h.json"))
        good.validate()
        with pytest.raises(ConfigError):
            DimmunixConfig(history_path=str(tmp_path / "missing" / "h.json")).validate()


class TestHelpers:
    def test_for_testing(self):
        config = DimmunixConfig.for_testing()
        assert config.history_path is None
        assert config.yield_timeout is None

    def test_strong_constructor(self):
        config = DimmunixConfig.strong()
        assert config.immunity == STRONG_IMMUNITY
        assert config.strong_immunity

    def test_with_overrides_returns_new_instance(self):
        base = DimmunixConfig()
        derived = base.with_overrides(matching_depth=6)
        assert derived.matching_depth == 6
        assert base.matching_depth == 4

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigError):
            DimmunixConfig().with_overrides(matching_depth=0)

    def test_dict_roundtrip(self):
        config = DimmunixConfig(matching_depth=5, max_stack_depth=12,
                                external_synchronization=("spin_lock",))
        restored = DimmunixConfig.from_dict(config.to_dict())
        assert restored.matching_depth == 5
        assert restored.external_synchronization == ("spin_lock",)

    def test_from_dict_ignores_unknown_keys(self):
        config = DimmunixConfig.from_dict({"matching_depth": 3, "bogus": 1})
        assert config.matching_depth == 3

    def test_a_dict_with_the_retired_gap_timeout_still_loads(self):
        """``event_gap_timeout`` is no longer a field, and the bus has no gap
        timer: an old config dict carrying it loads and builds an engine."""
        from repro.core.dimmunix import Dimmunix
        data = dict(DimmunixConfig.for_testing(event_ring_size=32).to_dict(),
                    event_gap_timeout=7.0)
        config = DimmunixConfig.from_dict(data)
        assert not hasattr(config, "event_gap_timeout")
        dimmunix = Dimmunix(config)
        assert dimmunix.engine.events.ring_capacity == 32
        assert not hasattr(dimmunix.engine.events, "gap_timeout")

    def test_a_standalone_engine_bus_takes_the_configured_ring_size(self):
        from repro.core.avoidance import AvoidanceEngine
        from repro.core.history import History
        assert "event_gap_timeout" not in DimmunixConfig().to_dict()
        engine = AvoidanceEngine(History(), DimmunixConfig.for_testing(event_ring_size=32))
        assert engine.events.ring_capacity == 32
        assert engine.events is engine.stats.bus
