"""Differential-equivalence layer for the exploration engine.

A reduced state-space search is only trustworthy if it is checked
against the unreduced one.  This package pins the explorer's reduction
claims to executable evidence, for the whole scenario registry, on every
tier-1 run:

* ``test_differential`` — source-DPOR finds *exactly* the
  deadlock-signature set full DFS finds, on every scenario in the
  :data:`repro.sim.explore.SCENARIOS` registry (thread, asyncio, and
  multi-holder alike, engine-backed included), while running no more —
  and on contended trees strictly fewer — runs; the unreduced
  enumeration itself is pinned run for run; and exploring twice gives
  the same deadlocks in the same order.
* ``test_frontier_properties`` — the schedule-trace fixture format
  round-trips byte-stably (hypothesis).
"""
