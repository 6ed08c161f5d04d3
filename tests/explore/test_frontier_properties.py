"""Property test for the trace format the replay fixtures are stored in.

Pinned with hypothesis (seeded and derandomized, so CI failures replay
deterministically): a :class:`~repro.sim.schedule.ScheduleTrace`
round-trips through its stable JSON encoding byte-for-byte, for
arbitrary payloads, not just the ones today's scenarios produce.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import ScheduleTrace

slots = st.integers(min_value=0, max_value=63)


class TestTraceSerialization:
    # The id is kept from when this also checked ``ScheduleTrace.prefix``.
    @given(choices=st.lists(slots, max_size=40))
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_prefix_law_and_byte_stable_round_trip(self, choices):
        trace = ScheduleTrace(choices, meta={"scenario": "s"})
        encoded = trace.dumps()
        decoded = ScheduleTrace.from_dict(json.loads(encoded))
        assert decoded == trace
        assert decoded.dumps() == encoded  # byte-stable: fixed point
