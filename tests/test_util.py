"""Unit tests for the utility subpackage (clocks) and the engine stats."""

from __future__ import annotations

import pytest

from repro.util.clock import VirtualClock, WallClock


class TestClocks:
    def test_wall_clock_monotonic(self):
        clock = WallClock()
        assert clock.now() <= clock.now()

    def test_virtual_clock_advance(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        assert clock.now() == 1.5
        clock.advance_to(1.0)   # never goes backwards
        assert clock.now() == 1.5
        clock.advance_to(3.0)
        assert clock.now() == 3.0

    def test_virtual_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)


class TestEngineStats:
    def test_bump_and_snapshot(self):
        from repro.core.stats import EngineStats
        stats = EngineStats()
        stats.bump("requests")
        stats.bump("requests", 2)
        snapshot = stats.snapshot()
        assert snapshot["requests"] == 3
        stats = EngineStats()
        assert stats.requests == 0

    def test_yield_rate(self):
        from repro.core.stats import EngineStats
        stats = EngineStats()
        assert stats.yield_rate == 0.0
        stats.bump("requests", 10)
        stats.bump("yield_decisions", 3)
        assert stats.yield_rate == pytest.approx(0.3)
