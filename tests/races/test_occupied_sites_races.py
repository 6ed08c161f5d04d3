"""A binding comes and goes between the occupied-site probe and the cover search.

A matched request first asks which of the call sites its candidates need
hold a binding (``Group.admitted``, lock-free) and then searches the
admitted candidates (``_find_instance``, which reads the Allowed sets
again).  A binding added after the probe at the site of a candidate that
was not admitted is missed: a false negative, the documented direction,
left to the monitor's detection pass.  A binding removed after the probe is
not found by the search, so nobody yields on it.  Here the requester is
parked between the two while another thread adds and removes a binding at
a needed site.  That thread takes a forced GO, the bypass an aborted
yield grants, because the parked requester holds the match mutex.

A request handed the primitive's native take (``take=``) keeps the same
mutex across that take and the hold it records.  Two such requests at the
two sites of one signature are serialized there, so the second sees the
first's hold and YIELDs; and a release of the primitive the request is
taking takes no match mutex, so the two finish in either order.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.avoidance import TAKEN_OUTCOME, AvoidanceEngine
from repro.core.callstack import CallStack, Frame
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.events import EV_REQUEST, EV_YIELD
from repro.core.history import History
from repro.core.signature import EXCLUSIVE, Signature
from repro.instrument import DimmunixRWLock, InstrumentationRuntime

from .harness import Trap, preemption_pressure, run_threads


def stack(*labels):
    return CallStack.from_labels(list(labels))


WANTS = stack("wants:2", "caller:6", "main:0")
ANCHOR = stack("anchor:3", "caller:7", "main:0")
NEEDED = stack("needed:4", "caller:8", "main:0")


def make_engine():
    """Two signatures at the requester's site: one needs ANCHOR occupied, one NEEDED."""
    history = History(path=None, autosave=False)
    first = Signature([WANTS, ANCHOR], matching_depth=2)
    second = Signature([WANTS, NEEDED], matching_depth=2)
    history.add(first)
    history.add(second)
    return AvoidanceEngine(history, DimmunixConfig.for_testing()), first, second


def hold(engine, thread_id, lock_id, at, forced=False):
    if forced:
        engine.abort_yield(thread_id)  # the next request of a thread whose yield bound passed
    assert engine.request(thread_id, lock_id, at).is_go
    engine.acquired(thread_id, lock_id, at)


def park_before_the_search(engine):
    """Start the requester and wait until its first ``_find_instance`` call parks it."""
    trap = Trap("trapped")
    find_instance = engine._find_instance
    searched = []

    def parked(signature, *args):
        trap.here()
        searched.append(signature)
        return find_instance(signature, *args)

    engine._find_instance = parked
    outcomes = []
    requester = threading.Thread(target=lambda: outcomes.append(engine.request(2, 11, WANTS)),
                                 name="trapped-requester")
    requester.start()
    assert trap.reached.wait(10.0)
    return trap, requester, searched, outcomes


def resume(trap, requester):
    trap.release.set()
    requester.join(10.0)
    assert not requester.is_alive()


class TestAddedAfterTheProbe:
    @pytest.mark.parametrize("removed_first", [True, False])
    def test_a_candidate_not_admitted_is_missed_never_yielded_on(self, removed_first):
        """The requester's own hold admits ``first``, which one thread cannot instantiate;
        ``second`` needs NEEDED, where a binding stands only after the probe."""
        engine, first, second = make_engine()
        hold(engine, 2, 20, ANCHOR)
        trap, requester, searched, outcomes = park_before_the_search(engine)

        hold(engine, 3, 30, NEEDED, forced=True)
        assert NEEDED.top() in engine.cache.allowed
        if removed_first:
            engine.release(3, 30)
        resume(trap, requester)

        outcome, = outcomes
        assert searched == [first]  # admitted before the add: the only search made
        assert outcome.is_go  # the missed match, the false-negative direction
        if not removed_first:
            engine.cancel(2, 11)  # the next request probes again and finds it
            again = engine.request(2, 11, WANTS)
            assert again.is_yield and again.signature is second
            assert again.causes == ((3, 30, NEEDED),)
            engine.release(3, 30)
        assert NEEDED.top() not in engine.cache.allowed


class TestRemovedAfterTheProbe:
    @pytest.mark.parametrize("another_comes", [False, True])
    def test_the_search_yields_on_live_bindings_only(self, another_comes):
        """Thread 1's hold at ANCHOR admits ``first``; it goes while the requester is
        parked, and another thread's binding comes there and goes again, or stays."""
        engine, first, _second = make_engine()
        hold(engine, 1, 10, ANCHOR)
        trap, requester, searched, outcomes = park_before_the_search(engine)

        engine.release(1, 10)
        hold(engine, 3, 30, ANCHOR, forced=True)
        if not another_comes:
            engine.release(3, 30)
        resume(trap, requester)

        outcome, = outcomes
        assert searched == [first]
        if another_comes:
            assert outcome.is_yield and outcome.causes == ((3, 30, ANCHOR),)
            assert engine.cache.binding_live(3, 30)
        else:
            assert outcome.is_go
        assert not engine.cache.binding_live(1, 10)


class TestChurnAtNeededSites:
    def test_a_yield_names_a_binding_that_stood_at_a_needed_site(self):
        """Seeded stress: two threads take and drop holds at ANCHOR and NEEDED while
        a requester asks again and again; nothing raises, and every yield names one
        of their bindings at the site its signature needs."""
        engine, first, second = make_engine()
        rounds = 400
        yields = []
        churning = threading.Semaphore(0)

        def churner(thread_id, at):
            try:
                for round_index in range(rounds):
                    hold(engine, thread_id, thread_id * 100 + round_index % 3, at, forced=True)
                    time.sleep(0)  # hand the interpreter over, with the binding standing
                    engine.release(thread_id, thread_id * 100 + round_index % 3)
                    time.sleep(0)  # and without it
            finally:
                churning.release()

        def requester():
            done = 0
            while done < 2:
                done += churning.acquire(blocking=False)
                outcome = engine.request(2, 11, WANTS)
                if outcome.is_yield:
                    yields.append((outcome.signature, outcome.causes))
                engine.cancel(2, 11)

        with preemption_pressure():
            run_threads([lambda: churner(3, ANCHOR), lambda: churner(4, NEEDED), requester])
        for signature, causes in yields:
            (thread_id, lock_id, at), = causes
            assert (signature, thread_id, at) in ((first, 3, ANCHOR), (second, 4, NEEDED))
            assert lock_id // 100 == thread_id
        assert engine.cache.allowed == {}


# -- a request that takes, at a named site -------------------------------------------------

LEFT = stack("left:2", "caller:6", "main:0")
RIGHT = stack("right:3", "caller:7", "main:0")


def take_parked(trap):
    """A native take that parks its thread (by name) first: between the search and the hold."""
    return lambda thread_id, mode: (trap.here(), True)[1]


class TestTwoTakingRequestsAtOneSignature:
    """Two threads request, with a native take, at each site of one signature.

    The first searches, finds no instance (nothing stands at the other
    site) and is parked in its native take, still holding the match
    mutex.  The second must wait for the mutex, then see the first's hold:
    it takes nothing and YIELDs on that hold.
    """

    @pytest.mark.parametrize("first_at, second_at", [(LEFT, RIGHT), (RIGHT, LEFT)])
    def test_the_second_waits_for_the_first_hold_then_yields_on_it(self, first_at, second_at):
        history = History(path=None, autosave=False)
        history.add(Signature([LEFT, RIGHT], matching_depth=2))
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing())
        assert engine.request(99, 99, stack("syncer:1")).is_go  # hand the filter over
        engine.cancel(99, 99)
        trap, outcomes, taken = Trap("trapped"), {}, []

        def offer(name, thread_id, lock_id, at, take):
            outcomes[name] = engine.request(thread_id, lock_id, at, EXCLUSIVE, 1, take)

        first = threading.Thread(target=offer, args=("first", 1, 10, first_at, take_parked(trap)),
                                 name="trapped-first", daemon=True)
        first.start()
        assert trap.reached.wait(10.0)
        second = threading.Thread(target=offer, name="second", daemon=True,
                                  args=("second", 2, 20, second_at, lambda *_: taken.append(2)))
        second.start()
        second.join(0.1)
        assert second.is_alive() and "second" not in outcomes  # waiting for the mutex
        resume(trap, first)
        second.join(10.0)
        assert not second.is_alive()
        assert outcomes["first"] is TAKEN_OUTCOME
        assert outcomes["second"].is_yield
        assert outcomes["second"].causes == ((1, 10, first_at),)
        assert taken == [] and not engine.cache.binding_live(2, 20)  # nothing taken or held


def read_at_named_site(rwlock):
    return rwlock.acquire_read()  # the call site the rwlock race's signature names


class TestATakingRequestAgainstARelease:
    """A searched read acquisition of a ``DimmunixRWLock`` races a release of it.

    The request holds the match mutex across its native take, which takes the
    rwlock's own mutex; a release holds that mutex while it tells the
    engine, which takes no match mutex.  Whichever is parked inside, the
    other finishes, and then both do: the lock order is match mutex, then
    the primitive's mutex, never the reverse.
    """

    @pytest.mark.parametrize("parked", ["request", "release"])
    def test_both_finish_in_either_order(self, parked):
        filename = CallStack.capture(skip=0).top().filename  # this file, as a capture names it
        site = CallStack([Frame("read_at_named_site", filename,
                                read_at_named_site.__code__.co_firstlineno + 1)])
        history = History(path=None, autosave=False)
        history.add(Signature([site, stack("foreign:5", "far:6")], matching_depth=1))
        runtime = InstrumentationRuntime(Dimmunix(DimmunixConfig.for_testing(), history=history))
        rwlock, trap, outcomes = DimmunixRWLock(runtime=runtime), Trap("trapped"), []
        request, release = runtime.core.request, runtime.core.release
        runtime.core.request = lambda *args: (outcomes.append(request(*args)), outcomes[-1])[1]
        if parked == "request":
            try_native = rwlock._try_native
            rwlock._try_native = lambda *args: (trap.here(), try_native(*args))[1]
        else:
            runtime.core.release = lambda *args: (trap.here(), release(*args))[1]
        holding, let_go = threading.Event(), threading.Event()

        def holder():
            assert rwlock.acquire_read()
            holding.set()
            assert let_go.wait(10.0)
            rwlock.release_read()

        def reader():
            assert read_at_named_site(rwlock)
            rwlock.release_read()

        # Daemons: a lock-order inversion wedges both for good, and must fail, not hang.
        holder_thread = threading.Thread(
            target=holder, name="trapped-releaser" if parked == "release" else "holder",
            daemon=True)
        holder_thread.start()
        assert holding.wait(10.0)
        reader_thread = threading.Thread(
            target=reader, name="trapped-reader" if parked == "request" else "reader", daemon=True)
        if parked == "request":
            reader_thread.start()
            assert trap.reached.wait(10.0)  # in the request, the match mutex held
            let_go.set()
            holder_thread.join(10.0)
            assert not holder_thread.is_alive()  # the release took no match mutex
        else:
            let_go.set()
            assert trap.reached.wait(10.0)  # in the release, the rwlock's mutex held
            reader_thread.start()
            reader_thread.join(0.1)
            assert reader_thread.is_alive()  # its native take waits for that mutex
        resume(trap, reader_thread if parked == "request" else holder_thread)
        for thread in (holder_thread, reader_thread):
            thread.join(10.0)
            assert not thread.is_alive()
        assert outcomes[-1] is TAKEN_OUTCOME and rwlock.reader_count() == 0
        kinds = [record[0] for record in runtime.dimmunix.engine.events.drain_raw()]
        assert EV_REQUEST in kinds and EV_YIELD not in kinds
