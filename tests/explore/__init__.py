"""Differential-equivalence layer for the exploration engine.

A reduced state-space search is only trustworthy if it is checked
against the unreduced one.  This package pins the explorer's three
reduction/scaling claims to executable evidence:

* ``test_differential`` — source-DPOR finds *exactly* the
  deadlock-signature set full DFS finds, on every scenario in the
  :data:`repro.sim.explore.SCENARIOS` registry (thread, asyncio, and
  multi-holder alike, engine-backed included), while running no more —
  and on contended trees strictly fewer — runs; and parallel
  exploration is byte-identical to serial for every worker count and
  transport.
* ``test_frontier_properties`` — hypothesis-driven invariants of the
  machinery those guarantees ride on: schedule-trace prefixes and
  frontier nodes serialize byte-stably, and cutting a wave into slices
  never loses or duplicates a run.
* ``test_parallel_runner`` — a failing or dying worker fails the
  exploration instead of hanging it, and a spool directory the explorer
  created does not outlive it.

Tier-1 runs a two-scenario smoke slice; ``EXPLORE_NIGHTLY=1`` unlocks
the full registry sweep (the nightly CI job).
"""
