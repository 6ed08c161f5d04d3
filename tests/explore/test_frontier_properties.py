"""Property tests for the frontier/trace machinery under the explorer.

The differential suite's byte-identity guarantees stand on three
mechanical invariants, pinned here with hypothesis (seeded and
derandomized, so CI failures replay deterministically):

* **Serialization is a bijection on the wire format** — a
  :class:`~repro.sim.schedule.ScheduleTrace` prefix and a
  :class:`~repro.sim.explore.FrontierNode` round-trip through their
  stable JSON encodings byte-for-byte, for arbitrary payloads, not just
  the ones today's scenarios produce.
* **Splitting a frontier neither loses nor duplicates a subtree** — for
  any split width, running the paused prefix plus each pending subtree
  root independently and merging reproduces the serial exploration
  exactly (same runs, same deadlocks, same canonical bytes).
* **The task board delivers each task exactly once** — the claim/finish
  protocol both transports implement cannot drop or double-assign work.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.sim import Explorer, FrontierNode, NullBackend, ScheduleTrace
from repro.sim.explore import SCENARIOS
from repro.sim.parexplore import (MemoryTaskBoard, merge_results,
                                  result_to_payload)

COMMON = dict(deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])

slots = st.integers(min_value=0, max_value=63)
locks = st.one_of(st.none(), st.integers(min_value=0, max_value=31))


# ---------------------------------------------------------------------------
# Serialization round trips
# ---------------------------------------------------------------------------

class TestTraceSerialization:
    @given(choices=st.lists(slots, max_size=40),
           length=st.integers(min_value=0, max_value=50))
    @settings(max_examples=200, **COMMON)
    def test_prefix_law_and_byte_stable_round_trip(self, choices, length):
        trace = ScheduleTrace(choices, meta={"scenario": "s"})
        prefix = trace.prefix(min(length, len(choices)))
        assert prefix.choices == choices[:length]
        assert prefix.meta == trace.meta
        encoded = prefix.dumps()
        decoded = ScheduleTrace.from_dict(
            __import__("json").loads(encoded))
        assert decoded == prefix
        assert decoded.dumps() == encoded  # byte-stable: fixed point

    @given(length=st.integers(max_value=-1))
    @settings(max_examples=20, **COMMON)
    def test_negative_prefix_rejected(self, length):
        with pytest.raises(SimulationError):
            ScheduleTrace([0, 1]).prefix(length)


class TestFrontierNodeSerialization:
    @given(choices=st.lists(slots, max_size=30).map(tuple),
           sleep_at=st.dictionaries(
               st.integers(min_value=0, max_value=30),
               st.lists(st.tuples(slots, locks), max_size=4).map(tuple),
               max_size=5))
    @settings(max_examples=200, **COMMON)
    def test_round_trip_is_byte_stable(self, choices, sleep_at):
        node = FrontierNode(choices=choices, sleep_at=sleep_at)
        encoded = node.dumps()
        decoded = FrontierNode.loads(encoded)
        assert decoded == node
        assert decoded.dumps() == encoded  # byte-stable: fixed point

    @given(payload=st.one_of(
        st.just({}),
        st.just({"choices": "nope"}),
        st.just({"choices": [0], "sleep_at": {"x": 1}}),
        st.just({"choices": [None]})))
    @settings(max_examples=10, **COMMON)
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(SimulationError):
            FrontierNode.from_dict(payload)


# ---------------------------------------------------------------------------
# Frontier split/merge completeness
# ---------------------------------------------------------------------------

class TestFrontierSplitMerge:
    @given(scenario=st.sampled_from(["two-lock-inversion", "philosophers-3"]),
           width=st.integers(min_value=1, max_value=9))
    @settings(max_examples=25, **COMMON)
    def test_split_then_merge_reproduces_serial(self, scenario, width):
        """No subtree is lost or duplicated, for any split width."""
        strategy = "dfs"  # the one stack strategy; DPOR splits by waves
        factory = lambda: SCENARIOS[scenario](NullBackend())  # noqa: E731
        serial = Explorer(factory, name=scenario,
                          strategy=strategy).explore()

        splitter = Explorer(factory, name=scenario, strategy=strategy)
        prefix, frontier = splitter.expand(width, strategy=strategy)
        prefix_payload = result_to_payload(prefix)
        prefix_payload["exhausted"] = prefix.cut_depth == 0
        # Serialize every subtree root across a (simulated) process
        # boundary and explore each independently, in processing order.
        parts = [prefix_payload]
        for node in frontier:
            worker = Explorer(factory, name=scenario, strategy=strategy)
            shipped = FrontierNode.loads(node.dumps())
            parts.append(result_to_payload(
                worker.explore_frontier([shipped], strategy=strategy)))
        merged = merge_results(parts, mode=serial.mode, strategy=strategy,
                               max_runs=splitter.max_runs)
        assert merged.runs == serial.runs
        assert merged.canonical_bytes() == serial.canonical_bytes()

    @given(width=st.integers(min_value=1, max_value=6),
           drop=st.integers(min_value=0, max_value=5))
    @settings(max_examples=15, **COMMON)
    def test_dropping_any_subtree_is_detected(self, width, drop):
        """The merge is complete *because* every subtree matters: removing
        one (when there is one to remove) loses runs relative to serial."""
        factory = lambda: SCENARIOS["philosophers-3"](NullBackend())  # noqa: E731
        serial = Explorer(factory, name="p3", strategy="dfs").explore()
        splitter = Explorer(factory, name="p3", strategy="dfs")
        prefix, frontier = splitter.expand(width, strategy="dfs")
        if not frontier:
            return  # tree exhausted before the split width was reached
        kept = [node for index, node in enumerate(frontier)
                if index != drop % len(frontier)]
        parts = [result_to_payload(prefix)]
        for node in kept:
            worker = Explorer(factory, name="p3", strategy="dfs")
            parts.append(result_to_payload(
                worker.explore_frontier([node], strategy="dfs")))
        merged = merge_results(parts, mode="dfs", strategy="dfs",
                               max_runs=splitter.max_runs)
        assert merged.runs < serial.runs


# ---------------------------------------------------------------------------
# Task-board delivery
# ---------------------------------------------------------------------------

class TestTaskBoardProtocol:
    @given(count=st.integers(min_value=0, max_value=50),
           claimers=st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, **COMMON)
    def test_each_task_claimed_exactly_once(self, count, claimers):
        board = MemoryTaskBoard()
        for task_id in range(count):
            board.publish(task_id, {"task": task_id})
        board.close()
        claimed = []
        for _worker in range(claimers):
            while True:
                item = board.claim()
                if item is None:
                    break
                claimed.append(item[0])
                board.finish(item[0], {"done": item[0]})
        assert sorted(claimed) == list(range(count))  # no loss, no dups
        assert sorted(board.results()) == list(range(count))
