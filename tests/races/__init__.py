"""Seeded interleaving-stress harness for the lock-free hot path.

Each module in this package targets one lock-free structure and checks
one invariant that a publication race would break:

* ``test_event_bus_races`` — the event bus's cross-drain total order,
  hold-back of in-flight emissions, gap-timeout safety valve, and
  dead-ring retirement (zero loss under thread churn);
* ``test_stats_races`` — epoch-based reset never resurrects or
  half-counts an in-flight bump;
* ``test_sigindex_races`` — the COW top-filter/bucket publication order
  only ever produces benign false negatives, never false positives or
  torn reads;
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
