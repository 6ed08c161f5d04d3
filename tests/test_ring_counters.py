"""Counters are ring columns: ``EventBus.bump`` and the ``EngineStats`` view.

Every ring of an :class:`~repro.core.events.EventBus` keeps its records
per event code and then one count column per engine counter.  These
tests pin that layout, how a bump finds (or makes) the calling thread's
ring, how a retired ring's columns survive in the bus totals, and what
the :class:`~repro.core.stats.EngineStats` view reads off them.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.avoidance import AvoidanceEngine
from repro.core.cache import AvoidanceCache
from repro.core.callstack import CallStack, Frame
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.events import (CODE_TO_TYPE, COUNTER_COLUMNS, COUNTER_NAMES, EV_ACQUIRED,
                               EV_ALLOW, EV_CANCEL, EV_RELEASE, EV_REQUEST, EV_YIELD,
                               RING_COLUMNS, EventBus)
from repro.core.history import History
from repro.core.runtime_api import HoldLedger
from repro.core.stats import EngineStats
from repro.sim.locks import SimLock, SimSemaphore

#: The keys ``snapshot()`` has always returned, in order.
SNAPSHOT_KEYS = [
    "requests", "go_decisions", "yield_decisions", "acquisitions", "releases",
    "cancels", "aborted_yields", "forced_go", "deadlocks_detected",
    "starvations_detected", "starvations_broken", "signatures_added",
    "restarts_requested", "false_positives", "true_positives",
    "monitor_wakeups", "events_processed", "capture_deferred", "capture_materialized",
]

#: Derived counter -> the event codes whose records it counts.
RECORDS_OF = {"requests": (EV_ALLOW, EV_YIELD), "go_decisions": (EV_ALLOW,),
              "yield_decisions": (EV_YIELD,), "acquisitions": (EV_ACQUIRED,),
              "releases": (EV_RELEASE,), "cancels": (EV_CANCEL,)}

STACK = CallStack([Frame("f", "ring_counters.py", 1)])


def on_a_thread(work) -> None:
    """Run ``work`` on a fresh thread and wait for it to end."""
    thread = threading.Thread(target=work)
    thread.start()
    thread.join()


class TestColumnLayout:
    def test_counter_columns_follow_the_record_columns(self):
        codes = len(CODE_TO_TYPE)
        assert sorted(COUNTER_COLUMNS.values()) == list(range(codes, RING_COLUMNS))
        assert [COUNTER_COLUMNS[name] for name in COUNTER_NAMES] == list(range(codes, RING_COLUMNS))

    def test_snapshot_keys_are_unchanged(self):
        assert list(COUNTER_NAMES) == SNAPSHOT_KEYS
        assert list(EngineStats().snapshot()) == SNAPSHOT_KEYS


class TestBusBump:
    def test_a_bump_adds_to_its_column_only(self):
        bus = EventBus()
        bus.bump("forced_go")
        bus.bump("forced_go", 4)
        totals = bus.totals(range(RING_COLUMNS))
        assert totals[COUNTER_COLUMNS["forced_go"]] == 5
        assert sum(totals) == 5
        assert bus.counts() == [0] * len(CODE_TO_TYPE)

    def test_a_first_bump_makes_the_ring_that_emit_then_uses(self):
        bus = EventBus()
        rings = []

        def work():
            bus.bump("capture_deferred")
            rings.append(bus.ring_count)
            bus.emit(EV_REQUEST, 1, 10, STACK)
            rings.append(bus.ring_count)

        on_a_thread(work)
        assert rings == [1, 1]

    def test_an_unknown_counter_raises(self):
        bus = EventBus()
        with pytest.raises(KeyError):
            bus.bump("no_such_counter")
        assert sum(bus.totals(range(RING_COLUMNS))) == 0

    def test_a_bump_only_ring_retires_and_keeps_its_count(self):
        bus = EventBus()
        on_a_thread(lambda: bus.bump("signatures_added", 3))
        assert bus.ring_count == 1
        assert bus.drain_raw() == []
        assert bus.ring_count == 0
        assert bus.totals([COUNTER_COLUMNS["signatures_added"]]) == [3]

    def test_retired_and_live_columns_sum(self):
        bus = EventBus()
        for _ in range(3):
            on_a_thread(lambda: bus.bump("events_processed", 2))
            bus.drain_raw()
        bus.bump("events_processed", 5)  # the main thread's ring stays live
        assert bus.ring_count == 1
        assert bus.totals([COUNTER_COLUMNS["events_processed"]]) == [11]


class TestEngineStatsView:
    def test_a_standalone_view_owns_a_private_bus(self):
        first, second = EngineStats(), EngineStats()
        assert isinstance(first.bus, EventBus)
        assert first.bus is not second.bus
        first.bump("deadlocks_detected")
        assert (first.deadlocks_detected, second.deadlocks_detected) == (1, 0)

    def test_a_view_and_its_bus_share_the_columns(self):
        bus = EventBus()
        stats = EngineStats(bus)
        bus.bump("true_positives", 2)
        stats.bump("true_positives")
        assert stats.true_positives == 3
        assert bus.totals([COUNTER_COLUMNS["true_positives"]]) == [3]

    def test_two_views_of_one_bus_agree(self):
        bus = EventBus()
        EngineStats(bus).bump("restarts_requested", 7)
        assert EngineStats(bus).restarts_requested == 7

    @pytest.mark.parametrize("name", sorted(RECORDS_OF))
    def test_a_derived_counter_sums_its_records_and_its_bumps(self, name):
        stats = EngineStats()
        for code in range(len(CODE_TO_TYPE)):
            stats.bus.emit(code, 1, 10, STACK)
        stats.bump(name, 10)  # the benchmark's bump probe bumps `requests`
        assert getattr(stats, name) == len(RECORDS_OF[name]) + 10
        assert stats.snapshot()[name] == len(RECORDS_OF[name]) + 10

    def test_snapshot_matches_every_attribute_read(self):
        stats = EngineStats()
        for amount, name in enumerate(COUNTER_NAMES, 1):
            stats.bump(name, amount)
        for code in range(len(CODE_TO_TYPE)):
            stats.bus.emit(code, 1, 10, STACK)
        snapshot = stats.snapshot()
        assert snapshot == {name: getattr(stats, name) for name in COUNTER_NAMES}

    def test_the_view_is_slotted(self):
        stats = EngineStats()
        assert EngineStats.__slots__ == ("bus",)
        assert not hasattr(stats, "__dict__")
        with pytest.raises(AttributeError):
            stats.requests = 1

    def test_yield_rate(self):
        stats = EngineStats()
        assert stats.yield_rate == 0.0
        for code in (EV_ALLOW, EV_ALLOW, EV_ALLOW, EV_YIELD):
            stats.bus.emit(code, 1, 10, STACK)
        assert stats.yield_rate == 0.25


class TestDimmunixWiring:
    def test_the_engine_emits_on_its_stats_bus(self):
        dimmunix = Dimmunix(DimmunixConfig.for_testing())
        assert dimmunix.stats.bus is dimmunix.engine.events
        assert dimmunix.engine.stats is dimmunix.stats
        assert dimmunix.engine.events.ring_capacity == dimmunix.config.event_ring_size

    def test_an_engine_given_stats_uses_their_bus(self):
        stats = EngineStats(EventBus(ring_capacity=8))
        engine = AvoidanceEngine(History(path=None, autosave=False),
                                 DimmunixConfig.for_testing(), stats=stats)
        assert engine.events is stats.bus
        engine.request(1, 10, STACK)
        engine.acquired(1, 10, STACK)
        engine.release(1, 10)
        assert (stats.requests, stats.acquisitions, stats.releases) == (1, 1, 1)


class TestNoResetInPlace:
    @pytest.mark.parametrize("cls", [EngineStats, EventBus, AvoidanceEngine, AvoidanceCache,
                                     SimLock, SimSemaphore, HoldLedger],
                             ids=lambda cls: cls.__name__)
    def test_fresh_state_is_a_new_object(self, cls):
        assert not hasattr(cls, "reset")
        assert not hasattr(cls, "clear")
