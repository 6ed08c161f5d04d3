"""Allowed sets kept only at named sites: republication, request and release races.

The cache indexes a binding only when its call site is in the filter the
engine handed it, and the engine hands a republished filter over with
``cache.sites = sites`` *before* ``cache.rebuild_allowed()``.  Two orders
make that safe without a lock: a requester writes its edge to its slot
*before* it reads ``cache.sites`` (so it sees the new filter and indexes
itself, or the rebuild's scan finds the edge), and the rebuild looks at an
edge again *after* it indexed it (so an owner that released meanwhile, and
found nothing to un-index, leaves no dead binding behind).  A bug in either
order shows up here as a cover search that misses a standing hold, or as an
index that disagrees with the live bindings at named sites.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.avoidance import AvoidanceEngine
from repro.core.callstack import CallStack, Frame, LazyCallStack
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.events import (EV_ACQUIRED, EV_ALLOW, EV_CANCEL, EV_RELEASE, EV_REQUEST,
                               EV_YIELD)
from repro.core.history import History
from repro.core.signature import Signature
from repro.instrument.locks import DimmunixLock, DimmunixRLock
from repro.instrument.runtime import InstrumentationRuntime

from .harness import Trap, preemption_pressure, run_threads


def stack(*labels):
    return CallStack.from_labels(list(labels))


HELD = stack("held:1", "caller:5", "main:0")
WANTS = stack("wants:2", "caller:6", "main:0")
ELSEWHERE = stack("elsewhere:9", "main:0")


def make_engine() -> AvoidanceEngine:
    """Empty history: the first signature is also the empty -> non-empty transition."""
    return AvoidanceEngine(History(path=None, autosave=False), DimmunixConfig.for_testing())


def names_held() -> Signature:
    return Signature([HELD, WANTS], matching_depth=2)


def indexed(engine: AvoidanceEngine) -> int:
    return sum(engine.cache.allowed_set_sizes().values())


def live_at_named_sites(engine: AvoidanceEngine) -> int:
    sites = engine.index.sites
    live = 0
    for _thread_id, slot in engine.cache.slots.items():
        edges = [stack for stacks in slot.holds.values() for stack in stacks]
        if slot.waiting is not None:
            edges.append(slot.waiting[1])
        live += sum(1 for edge in edges if edge.top() in sites)
    return live


class GatedStack(CallStack):
    """A stack whose ``top()`` — every read of its call site — is a trap point."""

    def __init__(self, frames, trap: Trap):
        super().__init__(frames)
        self.trap = trap

    def top(self):
        self.trap.here()
        return super().top()


class GatedMutex:
    """Stands in for a stripe mutex; entering it is a trap point."""

    def __init__(self, mutex, trap: Trap):
        self._mutex = mutex
        self._trap = trap

    def __enter__(self):
        self._trap.here()
        return self._mutex.__enter__()

    def __exit__(self, *exc_info):
        return self._mutex.__exit__(*exc_info)


class TestFilterGrowsWhileAHoldStands:
    def test_the_next_cover_search_finds_the_hold(self):
        engine = make_engine()
        holder = threading.Thread(
            target=lambda: (engine.request(1, 10, HELD), engine.acquired(1, 10, HELD)),
            name="holder")
        holder.start()
        holder.join(10.0)
        assert indexed(engine) == 0  # no signature names the site: nothing could look for it
        engine.history.add(names_held())
        outcomes = []
        seeker = threading.Thread(
            target=lambda: outcomes.append(engine.request(2, 11, WANTS)), name="seeker")
        seeker.start()
        seeker.join(10.0)
        assert outcomes[0].is_yield and outcomes[0].causes == ((1, 10, HELD),)
        assert indexed(engine) == live_at_named_sites(engine) == 1


class TestRequestRacesThePublication:
    """The requester is parked at a read of its call site; the filter is republished meanwhile."""

    @pytest.mark.parametrize("parked_at, found_by", [
        (0, "the requester, which reads the new filter after writing its edge"),
        (1, "the rebuild, whose scan follows the requester's slot write"),
    ])
    def test_either_order_leaves_the_binding_indexed(self, hand_over_the_filter, parked_at,
                                                     found_by):
        engine = make_engine()
        # top() is read by the engine's miss filter (before the edge is written) and
        # then by the cache (after the edge is written and ``cache.sites`` was read).
        trap = Trap("trapped", skip=parked_at)
        held = GatedStack(HELD.frames, trap)
        requester = threading.Thread(
            target=lambda: (engine.request(1, 10, held), engine.acquired(1, 10, held)),
            name="trapped-requester")
        requester.start()
        assert trap.reached.wait(10.0)
        waiting = engine.cache.waiting_of(1)
        assert (waiting is None) if parked_at == 0 else (waiting == (10, held))

        engine.history.add(names_held())
        hand_over_the_filter(engine)  # cache.sites = the new filter, then the rebuild
        assert indexed(engine) == parked_at, found_by

        trap.release.set()
        requester.join(10.0)
        assert not requester.is_alive()
        assert indexed(engine) == live_at_named_sites(engine) == 1, found_by
        outcome = engine.request(2, 11, WANTS)
        assert outcome.is_yield and outcome.causes == ((1, 10, held),)


def acquire_parked(dimmunix, meanwhile=None, at="capture", while_held=None):
    """Acquire + release a real lock on a fresh thread; returns what it saw while it held it.

    With ``meanwhile`` the thread is parked until that has run: ``at="capture"``
    after its capture, before its request or any other engine call;
    ``at="take"`` after the request's native take, before the hold is recorded.  The
    holder runs ``while_held`` too, if given (its frames stay live meanwhile).
    """
    runtime = InstrumentationRuntime(dimmunix)
    lock = DimmunixLock(runtime=runtime)
    trap = Trap("trapped")
    if at == "capture":
        request = runtime.core.request
        runtime.core.request = lambda *args: (trap.here(), request(*args))[1]
    else:
        try_native = lock._try_native
        lock._try_native = lambda *args: (try_native(*args), trap.here())[0]
    seen = {}

    def body():
        lock.acquire()
        seen["thread"], seen["lock"] = runtime.current_thread_id(), lock.lock_id
        seen["held"], = dimmunix.engine.cache.held_stacks(seen["thread"])
        seen["frames"] = seen["held"].frames
        seen["indexed"] = indexed(dimmunix.engine)
        if while_held is not None:
            seen["while_held"] = while_held(seen["lock"])
        lock.release()

    thread = threading.Thread(target=body, name="trapped-acquirer" if meanwhile else "learner")
    thread.start()
    if meanwhile:
        assert trap.reached.wait(10.0)
        meanwhile()
        trap.release.set()
    thread.join(10.0)
    assert not thread.is_alive()
    seen["records"] = [record[:2] for record in dimmunix.engine.events.drain_raw()]
    seen["kinds"] = [code for code, _thread in seen["records"]]
    return seen


def world_that_learned_its_own_site():
    """An engine that saw one acquisition, and a signature naming the site it was made at."""
    dimmunix = Dimmunix(config=DimmunixConfig.for_testing())
    learned = acquire_parked(dimmunix)
    assert len(learned["frames"]) > 1
    return dimmunix, Signature([CallStack(learned["frames"]), ELSEWHERE])


class TestTheFilterMovesBetweenCaptureAndRequest:
    """The capture's verdict holds for the filter object it probed, and for no other.

    A real lock's acquisition is parked between ``capture_stack`` and its first engine
    call, the request, while the history republishes the filter; the engine and the cache
    must then probe for themselves, whichever way the verdict went stale.
    """

    @staticmethod
    def _nothing_requested_yet(dimmunix):
        assert all(slot.waiting is None and not slot.holds
                   for _id, slot in dimmunix.engine.cache.slots.items())

    def test_a_site_named_after_the_capture_is_still_matched_deep_and_indexed(self):
        dimmunix, signature = world_that_learned_its_own_site()
        seen = acquire_parked(dimmunix, lambda: (self._nothing_requested_yet(dimmunix),
                                                 dimmunix.history.add(signature)))
        held = seen["held"]
        assert isinstance(held, LazyCallStack)
        assert held.absent_from is None  # the stale verdict went as the new filter indexed it
        assert seen["frames"] in [stack.frames for stack in signature.stacks]
        assert seen["kinds"] == [EV_REQUEST, EV_ALLOW, EV_ACQUIRED, EV_RELEASE]
        assert seen["indexed"] == 1 and indexed(dimmunix.engine) == 0

    def test_a_site_unnamed_after_the_capture_is_granted_and_not_indexed(self):
        dimmunix, signature = world_that_learned_its_own_site()
        dimmunix.history.add(signature)
        seen = acquire_parked(dimmunix, lambda: (self._nothing_requested_yet(dimmunix),
                                                 dimmunix.history.remove(signature.fingerprint)))
        assert type(seen["held"]) is CallStack and seen["held"].absent_from is None
        assert seen["frames"] in [stack.frames for stack in signature.stacks]
        assert seen["kinds"] == [EV_ALLOW, EV_ACQUIRED, EV_RELEASE]
        assert seen["indexed"] == 0 and indexed(dimmunix.engine) == 0


class TestTheFilterNamesTheSiteDuringTheTake:
    """The request took the primitive on the capture's verdict; the site is named before its hold.

    The request records the hold after its native take, and the history may
    republish the filter in between.  The hold is then indexed by the request
    itself, when the cache already has the new filter, or by the rebuild
    that hands it over: either way a conflicting request must find it.
    """

    @pytest.mark.parametrize("handed_over, indexed_at_hold", [(True, 1), (False, 0)])
    def test_the_hold_ends_indexed_and_a_conflicting_request_yields(
            self, hand_over_the_filter, handed_over, indexed_at_hold):
        dimmunix, signature = world_that_learned_its_own_site()
        engine = dimmunix.engine

        def meanwhile():
            # Taken natively, nothing recorded yet, not even an allow edge: the request's take.
            assert all(slot.waiting is None and not slot.holds
                       for _id, slot in engine.cache.slots.items())
            dimmunix.history.add(signature)
            if handed_over:
                hand_over_the_filter(engine)

        def conflict(lock_id):
            hand_over_the_filter(engine)
            counts = (indexed(engine), live_at_named_sites(engine))
            return counts, engine.request(98, lock_id + 1, ELSEWHERE)

        seen = acquire_parked(dimmunix, meanwhile, at="take", while_held=conflict)
        assert isinstance(seen["held"], LazyCallStack)
        assert seen["held"].absent_from is not engine.index.sites
        holder, hand_over = seen["thread"], [(EV_ALLOW, 99), (EV_CANCEL, 99)]
        # The request's records, each hand-over's, and the conflicting request's.
        assert seen["records"] == (hand_over * handed_over
                                   + [(EV_ALLOW, holder), (EV_ACQUIRED, holder)] + hand_over
                                   + [(EV_REQUEST, 98), (EV_YIELD, 98), (EV_RELEASE, holder)])
        assert seen["indexed"] == indexed_at_hold
        counts, outcome = seen["while_held"]
        assert counts == (1, 1)
        assert outcome.is_yield and outcome.signature is signature
        assert outcome.causes == ((seen["thread"], seen["lock"], seen["held"]),)


def reacquire_at_p(acquire):
    return acquire()  # the call site the signature below names, P


class TestAHoldIndexedUnderAFilterItsVerdictPostdates:
    """A reentrant hold makes no request, so the cache may still have a filter older than
    its capture's verdict: indexed under that one, it must leave the index with its release,
    even once the cache has the verdict's own filter."""

    def test_the_release_un_indexes_it(self, hand_over_the_filter):
        site_p = CallStack([Frame("reacquire_at_p", CallStack.capture(skip=0).top().filename,
                                  reacquire_at_p.__code__.co_firstlineno + 1)])
        history = History(path=None, autosave=False)
        signature = Signature([site_p, ELSEWHERE], matching_depth=1)
        history.add(signature)
        dimmunix = Dimmunix(config=DimmunixConfig.for_testing(), history=history)
        engine, lock = dimmunix.engine, DimmunixRLock(runtime=InstrumentationRuntime(dimmunix))
        assert lock.acquire()  # the request hands the cache the filter naming P
        history.disable(signature.fingerprint)  # republished: P is no longer named
        assert reacquire_at_p(lock.acquire)  # no request: the cache keeps the old filter
        reentrant = engine.cache.slots.get(lock.owner).holds[lock.lock_id][-1]
        assert reentrant.top() == site_p.top() and indexed(engine) == 1
        hand_over_the_filter(engine)  # the cache now has the filter that said "not P"
        lock.release()
        assert indexed(engine) == 0, "a dead binding a later cover search could yield on"
        lock.release()


class TestReleaseRacesTheRebuild:
    @pytest.mark.parametrize("order", ["release-inside-the-rebuild", "release-first",
                                       "rebuild-first"])
    def test_the_index_equals_the_live_bindings_at_named_sites(self, hand_over_the_filter, order):
        engine = make_engine()
        engine.request(1, 10, HELD)
        engine.acquired(1, 10, HELD)
        engine.request(1, 12, ELSEWHERE)  # a second hold, at a site nobody names
        engine.acquired(1, 12, ELSEWHERE)
        engine.history.add(names_held())
        if order == "release-first":
            engine.release(1, 10)
        # The rebuild's first stripe mutex is the one it inserts the scanned hold under.
        trap = Trap("trapped")
        stripes = engine.cache._stripes
        stripes[:] = [GatedMutex(mutex, trap) for mutex in stripes]
        rebuilder = threading.Thread(target=lambda: hand_over_the_filter(engine),
                                     name="trapped-rebuilder")
        rebuilder.start()
        if order == "release-inside-the-rebuild":
            # Scanned, not yet indexed: the owner's release finds nothing to un-index.
            assert trap.reached.wait(10.0)
            assert indexed(engine) == 0
            engine.release(1, 10)
        trap.release.set()
        rebuilder.join(10.0)
        assert not rebuilder.is_alive()
        if order == "rebuild-first":
            assert indexed(engine) == live_at_named_sites(engine) == 1
            engine.release(1, 10)
        # A dead binding here is one a later cover search could yield on.
        assert indexed(engine) == live_at_named_sites(engine) == 0
        assert engine.cache.candidates_matching(HELD, 2, set(), set()) == []


class TestChurningFilterStorm:
    def test_no_binding_is_stranded_or_left_behind(self, hand_over_the_filter):
        """Seeded stress: holds come and go while signatures name and un-name their sites."""
        engine = make_engine()
        history = engine.history
        signatures = [Signature([stack(f"site{index}:1", "m:0"), stack(f"never{index}:1", "m:0")],
                                matching_depth=2) for index in range(4)]
        workers, rounds = 3, 120
        done = threading.Event()
        final = {}

        def churner():
            try:
                for round_index in range(rounds):
                    signature = signatures[round_index % len(signatures)]
                    history.add(signature)
                    history.remove(signature.fingerprint)
            finally:
                for signature in signatures:
                    history.add(signature)
                done.set()

        def worker(thread_id):
            count = 0
            while not done.is_set() or count < rounds:
                site = stack(f"site{(thread_id + count) % 4}:1", "m:0")
                lock_id = thread_id * 1000 + count % 7
                # Nobody ever stands at a "never" site, so no request can be yielded.
                assert engine.request(thread_id, lock_id, site).is_go
                engine.acquired(thread_id, lock_id, site)
                engine.release(thread_id, lock_id)
                count += 1
            final[thread_id] = stack(f"site{thread_id % 4}:1", "m:0")
            assert engine.request(thread_id, thread_id * 1000 + 999, final[thread_id]).is_go
            engine.acquired(thread_id, thread_id * 1000 + 999, final[thread_id])

        with preemption_pressure():
            run_threads([churner] + [lambda tid=tid: worker(tid)
                                     for tid in range(1, workers + 1)])
        hand_over_the_filter(engine)
        # Quiescent: every worker stands on one hold at a named site, and nothing else is live.
        assert engine.cache.allowed_set_sizes() == {final[tid]: 1 for tid in final}
        assert indexed(engine) == live_at_named_sites(engine) == workers
        for thread_id in final:
            engine.release(thread_id, thread_id * 1000 + 999)
        assert engine.cache.allowed_set_sizes() == {}
