"""``src/`` line count is a tracked metric (ROADMAP aim 2) and only ratchets down.

The numbers are ``wc -l`` over ``src/repro/**/*.py`` — comments, docstrings
and blank lines included, so stripping those is not a way under the bar.
A change that grows ``src/`` must raise the number here, in its own diff,
where a reviewer sees it next to the reason.
"""

from __future__ import annotations

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "repro")

#: Lowered by 1 from 16,754: parsed frames are interned.  ``Frame.symbolic`` and
#: ``Frame.decode`` answer from two more ``_TextMemo``s (was ``_FileMemo``), whose
#: label parser folds ``_is_int`` in; ``Dimmunix.fork`` copies each signature with
#: ``copy.copy`` in place of a ``to_dict``/``from_dict`` round trip; the engine's
#: ``_learn_spec``, whose test its two callers already made, is a bare set add; and
#: ``share/state.py``'s read memo is bounded by ``_remember`` (+1, inside ``SHARE_BUDGET``).
#: 16,754 before, lowered by 195 from 16,949: the event bus is one queue.  Every record goes to
#: one ``deque`` that the monitor pops in append order, so the bus's sequence
#: numbers (and ``Event.seq``), the merge sort, the contiguity cursor, the
#: held-back list, the gap timer (``EventBus(gap_timeout=)``,
#: ``DEFAULT_GAP_TIMEOUT``), the straggler path and its counters, per-ring
#: record storage and high-water marks went (-175 in ``events.py``), with the
#: monitor's held-back condition, the engine's unread capacity map and
#: ``capacity_of``, and ``ResourceState.exclusive_edge_count`` (its one caller,
#: ``blocking_holders``, now walks the edges once).
#: 16,949 before, lowered by 1 from 16,950: the capture memos key on file names and code ids.
#: ``_InternalCodeMemo`` and ``_short_name_of`` fold into one ``_FileMemo``,
#: net of ``_intern_top`` (a top-frame entry holds its code object) and the
#: memo comment's reasons; a semaphore's ``release(n)`` loops in the skeleton
#: (``_release_one`` went), net of ``AioLock.release`` inlining its queue's.
#: 16,950 before, lowered by 49 from 16,999: an uncontended lock operation loses its forwarding
#: frames, and the monitor applies a batch in one loop.  ``RuntimeCore``'s five
#: forwarders are the engine's bound methods, ``SlotRegistry`` is a ``dict``
#: (its ``clear`` and ``__len__`` went), ``WallClock.now`` is ``time.monotonic``,
#: and the RAG's six handlers and dispatch table fold into ``apply_encoded``,
#: which ``apply`` and ``apply_batch`` encode for; net of ``_retire``'s verdict
#: test, the verdict ``_add_allowed`` drops when it indexes a stack, ``force_go``
#: deciding its flag under the yielding mutex and ``release`` reading the wake
#: index before it scans.
#: 16,999 before, lowered by 58 from 17,057: a yield is one record.  ``cache.Yield`` (its
#: signature, lock, stack, causes, start time and waker) lives whole in the
#: yielder's slot, published by ``begin_yield`` and withdrawn by ``end_yield``,
#: so the engine's ``_YieldState`` and ``yielding_threads``, the slot's
#: ``yield_state``/``yield_cause``/``waker`` and the cache's three cause
#: methods went; so did the monitor's ``_victim_from_engine`` (unreachable:
#: a reported starvation always holds a yielder the RAG sees) with
#: ``AvoidanceCache.total_holds``, ``ResourceState.waiters`` (a second copy
#: of every allow edge), the simulator's unreachable step path and write-only
#: per-thread counters (see ``SIM_BUDGET``), and ``RuntimeCore.fork`` with
#: ``Dimmunix.runtime_core``, as ``Dimmunix.fork`` clones the instance.
#: 17,057 before, lowered by 75 from 17,132: a yield carries its own waker.  The parker's
#: ``prepare`` returns the waker of the park it arms, the engine keeps it in
#: the yielder's slot and calls it from ``release`` and ``force_go``, so the
#: facade's waker registry (``register_waker``/``unregister_waker``/``wake``
#: on ``Dimmunix`` and ``RuntimeCore``), ``MonitorCore(wake_callback=)``, the
#: parkers' registration and mutexes, ``SchedulerBackend.on_thread_added``
#: and ``RuntimeCore.attach_share``/``share_pool`` went, net of the
#: engine-owned unit and lock id counters that keep threads and tasks apart.
#: 17,132 before, lowered by 113 from 17,245: one engine call decides every acquisition.
#: ``AvoidanceEngine.request`` takes the primitive itself when a driver
#: hands it ``take``, so ``settle``, ``_take``, ``RuntimeCore.settle``, the
#: ``TRY_NATIVE`` step and its branches in the three drivers, and
#: ``SchedulerBackend.prepare_wait`` went (-39 across ``core/``,
#: ``instrument/`` and ``sim/``, net of the yield's arming and the forced-GO
#: re-check in ``request``); ``baselines/rx.py``, which only its tests and an
#: example reached, went with its exports (-74).
#: 17,245 before, raised by 13 from 17,232 for the one-call round at named sites too:
#: ``AvoidanceEngine.settle`` (was ``settle_miss``) also settles an
#: uncontended acquisition whose stack matches a signature's, searching
#: under the match mutex and keeping it across the native take and the
#: hold (+11 in ``avoidance.py``: the lookup, the search, ``_take``, shared
#: by both kinds of round, and their docstrings, net of ``_capture_answers``
#: and ``_should_bypass``'s verdict check, which went); the Figure 4
#: history fix's docstring is +2 in ``harness/overhead.py``.
#: 17,232 before, lowered by 16 from 17,248: calibration reads the monitor's records
#: (``MonitorCore.process`` hands the calibrator each one before the RAG
#: applies it), so the engine lost its calibrator, the YIELD report,
#: ``_depths_matching`` and the ``held_before`` snapshot; ``Signature``
#: lost ``depth_changes`` and the ``matching_depth`` setter (and the unused
#: ``stack_matches``); the index lost ``_keyed_at`` and its whole-index
#: re-key, as ``History.set_depth`` tells it which signature moved.  The
#: calibrator keeps per-signature verdict counts, not a list per yield.
#: ``core/`` is 61 lines shorter, net of ``harness.falsepos.run_calibration``
#: (+45 with its pooled check runs), the new ``paper.py calibration`` row.
#: 17,248 before, raised by 56 from 17,192 for the engine's miss round: an uncontended
#: acquisition at a site no signature names settles in one engine call,
#: ``AvoidanceEngine.settle_miss`` (+44 in ``avoidance.py``, its docstring,
#: the module's note on it and ``_capture_answers``, the preconditions it
#: shares with ``request``'s bypass, included) reached through
#: ``RuntimeCore.settle_miss`` (+13 in ``runtime_api.py``, with the
#: ``acquisition()`` docstring saying who runs the generator now), net of
#: the line ``instrument/`` gave back (see ``PRIMITIVES_BUDGET``).
#: Counters live in the event rings: ``EngineStats`` became a view over
#: the engine's ``EventBus`` (its per-thread shard store, epoch reset and
#: bus baselines went), every reset-in-place path (``EventBus.clear`` and
#: its resync cursor, ``AvoidanceEngine.reset``, ``AvoidanceCache.clear``,
#: the sim locks' ``reset``) went with it, as did the engine's
#: ``event_queue`` argument (its bus is its stats' bus) and
#: ``core/porting.py`` (section 8 signature porting), which nothing called.
#: 17,339 before the explorer's preemption bound, depth cut and random walk
#: went (every registered tree is exhausted unbounded), with the
#: scheduler's ``poll_interval``/``max_steps`` knobs (now module
#: constants), ``DimmunixConfig.event_gap_timeout`` and ``History``'s
#: listener list (the share pool is an observer like every other).
#: 17,623 before, raised by 35 from 17,588 for the hit path's occupied-site
#: plan: the signature index files each key's signatures in a ``Group`` that
#: knows the call sites they need (+61 in ``sigindex.py``), net of the
#: per-candidate vacancy pre-pass, ``AvoidanceCache.vacant`` and the
#: per-stripe Allowed dicts it replaces (one ``site -> bindings`` map instead).
#: Earlier ratchets, newest first: 17,588 (the simulator driving the shipped
#: ``acquisition()``: its copy of the protocol, the backend's forwarding
#: methods and the ghost-lock baseline went), 17,724 (the signature index as one
#: site-keyed dict), 17,913 (Tables 1-2 as explorations of
#: every interleaving), 17,944 (the paper's evaluation as one checked
#: table), 17,954 (the share fabric's one contract), 19,155, 19,461,
#: 20,136, 20,137, 20,169, 20,352, 20,359, 20,674.
TOTAL_BUDGET = 16_753
#: ``instrument/`` + ``sim/locks.py``: the primitives that used to be
#: written once per runtime (2,691 before PR 12; PR 15 folded the second
#: copy of ``_caller_needs_native_lock`` into ``patching.py``).  2,276
#: until PR 24 made ``patching.py`` the only installer and registry and
#: ``skeleton.py`` the half of each primitive that is not sync-vs-async.
#: 1,964 before an unused ``SimLock.remove_waiter`` went; 1,962 until the
#: miss path stopped bumping the counters its event records already count;
#: 1,948 until the sim locks' ``reset()``, which only replays used, went.
#: 1,934 until both drivers called the engine's miss round first (+4), paid
#: for by ``AsyncioParker._wake`` suppressing a closed loop's error (-2) and
#: ``DimmunixLock`` dropping two single-use ``core`` locals (-2); the parker's
#: docstring now says which acquisitions still run ``prepare`` (-1).
#: 1,933 until the drivers' first ``request`` carried the take: the round,
#: the TRY_NATIVE branches and the asyncio parker's lock-free ``prepare``
#: path (now run only before a yield) went.
#: 1,918 until the parkers returned their wakers: their registration with
#: the facade, ``AsyncioParker._wake`` by id and both parkers' mutexes went
#: (-20, net of the registries taking the engine's id allocator).
#: 1,898 until ``with`` entered ``DimmunixLock`` and ``DimmunixBoundedSemaphore``
#: through ``acquire`` itself and ``DimmunixSemaphore`` took ``DimmunixLock``'s
#: identical ``_try_native`` and ``__exit__``.
#: 1,897 until the skeleton's semaphore release took ``n`` and looped itself,
#: so ``DimmunixSemaphore.release`` and ``_release_one`` went (net of the
#: bounded check for all ``n`` at once and ``AioLock.release``'s inlined queue).
PRIMITIVES_BUDGET = 1_894
#: ``share/``: four transports around one ``PoolState`` (``state.py`` and
#: ``wire.py`` included) and one ``send``/``receive``/``snapshot``
#: contract.  3,479 before that contract: 625 of the 1,241 lines it
#: dropped are the demo's move to ``examples/``, the rest the second
#: control plane, the transport registry, the coalescing queue, daemon
#: federation and the ``repro.share.server``/``gossip`` front ends; 39
#: came back so ``PoolState`` refuses a record that is not a signature of
#: the fingerprint it claims.  3,469 when each transport carried its own
#: merge rules; ``wire.no_delay`` and ``wire.hang_up`` later added a net 4.
#: 2,277 until a delta the transport failed to write stayed owed by the
#: channel (re-sent by the next send) instead of being lost to its dedup.
SHARE_BUDGET = 2_295
#: ``sim/``: scheduler, primitives and the explorer.  3,854 before PR 15,
#: when ``explore.py`` + ``parexplore.py`` carried four search loops;
#: 3,681 until PR 23 deleted ``parexplore.py`` and what only fed it.
#: 3,006 before ``Scheduler.thread_at_slot``, which nothing called, went;
#: 2,991 before ``Explorer(visible_only=)``, which nothing passed, went.
#: 2,983 until thread programs (``threads.py``, 165 lines), the
#: ImmunityChecker learning until immune (27, its report carrying the
#: learned history and each run's yields) and ``SimScheduler.run`` closing
#: unfinished thread programs (16) let the simulator run app code.
#: 3,191 until the scheduler drove ``acquisition()``: the virtual-time
#: yield bound (section 5.7) is new, its copy of the protocol went.
#: 3,204 until the sim locks' ``reset()`` went: every run builds its locks.
#: 3,190 until ``Explorer(preemption_bound=, max_depth=)``, its random walk
#: and the ``"auto"`` strategy went, and ``SimScheduler``'s poll interval
#: and step budget became module constants.
#: 3,080 until ``on_thread_added`` and the per-thread waker registration went:
#: ``DimmunixBackend.attach`` installs a parker whose waker readies the thread.
#: 3,078 until ``SimThread.next_action`` consumed what ``peek_action`` fetched
#: (its own generator advance never ran: every step is prefetched) and the
#: write-only ``SimThread.lock_ops``/``yields``/``blocks`` went (the run's
#: totals are ``SimResult``'s).
SIM_BUDGET = 3_064


def count_lines(*roots: str) -> int:
    total = 0
    for root in roots:
        paths = [root] if os.path.isfile(root) else [
            os.path.join(directory, name)
            for directory, _, names in os.walk(root)
            for name in names if name.endswith(".py")]
        for path in paths:
            with open(path, "rb") as handle:
                total += handle.read().count(b"\n")
    return total


def test_src_total_stays_within_budget():
    assert count_lines(SRC) <= TOTAL_BUDGET


def test_primitives_stay_within_budget():
    assert count_lines(os.path.join(SRC, "instrument"),
                       os.path.join(SRC, "sim", "locks.py")) <= PRIMITIVES_BUDGET


def test_share_stays_within_budget():
    assert count_lines(os.path.join(SRC, "share")) <= SHARE_BUDGET


def test_sim_stays_within_budget():
    assert count_lines(os.path.join(SRC, "sim")) <= SIM_BUDGET
