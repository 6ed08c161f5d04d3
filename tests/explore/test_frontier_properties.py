"""Property tests for the frontier/trace machinery under the explorer.

The differential suite's byte-identity guarantees stand on three
mechanical invariants, pinned here with hypothesis (seeded and
derandomized, so CI failures replay deterministically):

* **Serialization is a bijection on the wire format** — a
  :class:`~repro.sim.schedule.ScheduleTrace` prefix and a
  :class:`~repro.sim.explore.FrontierNode` round-trip through their
  stable JSON encodings byte-for-byte, for arbitrary payloads, not just
  the ones today's scenarios produce.
* **Splitting a wave neither loses nor duplicates a run** — for any
  partition of every wave into slices, with every node and every run
  record shipped through its JSON form, the one search loop reproduces
  the serial exploration exactly (same runs, same deadlocks, same
  canonical bytes), for both strategies; a dropped slice is detected.
* **The task board delivers each task exactly once** — the claim/finish
  protocol both transports implement cannot drop or double-assign work.
"""

from __future__ import annotations

import json
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.sim import Explorer, FrontierNode, NullBackend, ScheduleTrace
from repro.sim.explore import SCENARIOS, RunRecord
from repro.sim.parexplore import FileTaskBoard, MemoryTaskBoard

COMMON = dict(deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])

#: A well-formed run-record payload (the malformed ones break one field).
RECORD = {"steps": 3, "cut": None, "completed": True, "schedule": [0, 1],
          "backend": "null", "footprint": None, "branches": [],
          "observation": None}

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

    @given(case=st.sampled_from([
        (FrontierNode, {}),
        (FrontierNode, {"choices": "nope"}),
        (FrontierNode, {"choices": [0], "sleep_at": {"x": 1}}),
        (FrontierNode, {"choices": [None]}),
        (RunRecord, {}),
        (RunRecord, "nope"),
        (RunRecord, dict(RECORD, steps="many")),
        (RunRecord, dict(RECORD, cut="bored")),
        (RunRecord, dict(RECORD, footprint=[[0]])),
        (RunRecord, dict(RECORD, branches=[[0, [[1, None]], None]])),
        (RunRecord, dict(RECORD, observation={"events": [[0, 1]]}))]))
    @settings(max_examples=30, **COMMON)
    def test_malformed_payloads_rejected(self, case):
        kind, payload = case
        with pytest.raises(SimulationError):
            kind.from_dict(payload)


# ---------------------------------------------------------------------------
# Wave split/merge completeness
# ---------------------------------------------------------------------------

def shipped_wave_runner(explorer, slices_of):
    """A wave runner that cuts each wave with ``slices_of(wave)`` and sends
    every node and record through its JSON form, as a worker pool would."""
    def run_wave(wave):
        for nodes in slices_of(wave):
            shipped = [FrontierNode.loads(node.dumps()) for node in nodes]
            for record in explorer._run_wave(shipped):
                wire = json.dumps(record.to_dict())
                received = RunRecord.from_dict(json.loads(wire))
                assert json.dumps(received.to_dict()) == wire  # fixed point
                yield received
    return run_wave


class TestFrontierSplitMerge:
    @given(scenario=st.sampled_from(["two-lock-inversion", "philosophers-3"]),
           strategy=st.sampled_from(["dfs", "dpor"]), data=st.data())
    @settings(max_examples=25, **COMMON)
    def test_split_then_merge_reproduces_serial(self, scenario, strategy,
                                                data):
        """No run is lost or duplicated, however each wave is cut."""
        explorer = Explorer(lambda: SCENARIOS[scenario](NullBackend()),
                            name=scenario, strategy=strategy)
        serial = explorer.explore()

        def slices_of(wave):
            cuts = sorted(data.draw(st.sets(
                st.integers(min_value=0, max_value=len(wave)))))
            bounds = [0] + cuts + [len(wave)]
            return [wave[low:high] for low, high in zip(bounds, bounds[1:])]

        split = explorer._search(explorer._admission(),
                                 shipped_wave_runner(explorer, slices_of))
        assert split.runs == serial.runs
        assert split.canonical_bytes() == serial.canonical_bytes()

    @given(strategy=st.sampled_from(["dfs", "dpor"]),
           drop=st.integers(min_value=0, max_value=40))
    @settings(max_examples=15, **COMMON)
    def test_dropping_any_subtree_is_detected(self, strategy, drop):
        """Every slice matters: losing one (here: one node per slice, the
        ``drop``-th of the exploration) fails the search loudly instead of
        returning a smaller tree."""
        explorer = Explorer(lambda: SCENARIOS["philosophers-3"](NullBackend()),
                            name="p3", strategy=strategy)
        serial = explorer.explore()
        published = iter(range(serial.runs))
        lost = drop % serial.runs

        def slices_of(wave):
            return [[node] for node in wave if next(published) != lost]

        with pytest.raises(SimulationError, match="records"):
            explorer._search(explorer._admission(),
                             shipped_wave_runner(explorer, slices_of))


# ---------------------------------------------------------------------------
# Task-board delivery
# ---------------------------------------------------------------------------

class TestTaskBoardProtocol:
    @pytest.mark.parametrize("transport", ["memory", "file"])
    @given(count=st.integers(min_value=0, max_value=50),
           claimers=st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, **COMMON)
    def test_each_task_claimed_exactly_once(self, transport, count, claimers):
        with tempfile.TemporaryDirectory() as root:
            board = (MemoryTaskBoard() if transport == "memory"
                     else FileTaskBoard(root))
            for task_id in range(count):
                board.publish(task_id, {"task": task_id})
            board.close()
            claimed = []
            for _worker in range(claimers):
                while True:
                    item = board.claim()
                    if item is None:
                        break
                    assert item[1] == {"task": item[0]}
                    claimed.append(item[0])
                    board.finish(item[0], {"done": item[0]})
            assert sorted(claimed) == list(range(count))  # no loss, no dups
            assert sorted(board.results()) == list(range(count))
            assert all(board.result(task_id) == {"done": task_id}
                       for task_id in range(count))
            assert board.result(count) is None  # pending reads as None
