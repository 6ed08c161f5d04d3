"""Seeded interleaving-stress harness for the lock-free hot path.

Each module in this package targets one lock-free structure and checks
one invariant that a publication race would break:

* ``test_event_bus_races`` — the event queue's append order across
  limit-cut drains (each producer's own order, and records handed over
  through a real lock), and dead-ring retirement (zero loss under thread
  churn);
* ``test_stats_races`` — the asyncio parker's reused wake future, fired
  from another loop's thread or from the monitor, still wakes its task;
* ``test_sigindex_races`` — the index's one-assignment publication only
  ever produces benign false negatives, never false positives or torn
  reads;
* ``test_allowed_sites_races`` — the Allowed sets kept only at named
  sites: a filter republished while holds stand, a request or a release
  racing the rebuild, never leave a live binding at a named site
  unindexed or a dead one indexed;
* ``test_rag_consistency`` — the end-to-end §5.2 oracle: genuine lock
  hand-offs replayed through bus + RAG never show a release/acquire
  inversion (``rag.order_violations == 0``).

The tests run unchanged under GIL and free-threaded builds
(``PYTHON_GIL=0``); deterministic cases use barrier-aligned choreography
(:mod:`tests.races.harness`), stress cases crank the interpreter switch
interval to force preemption at every bytecode boundary.  Reverting the
PR-7 fixes makes these tests fail — that is their job.
"""
