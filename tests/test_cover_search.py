"""Differential and property tests for the cover search over the Allowed sets.

The Allowed sets are keyed by call site and the search prunes vacant
positions before it looks at a binding.  What that must not change is the
answer: for any cache state, the same decision and an instantiation the
exhaustive search would also have produced.  The reference below is the
search as it stood while the Allowed sets were keyed by whole stack and
every probe scanned all of them — copied, with two adaptations: it reads
the index through :func:`indexed_bindings`, every binding of the cache's
one ``site -> bindings`` map, and it yields every instantiation instead
of returning at the first (which one came first was an accident of dict
order).

The states are built from real interpreter frames so that lazy stacks —
unmaterialized with their frame still live, and degraded to one frame
after it returned — take part next to eager, single-frame and empty
ones.

The Allowed sets are also kept only at the call sites a signature names.
That must not change the answer either, so every state is built twice, op
by op: in an engine as shipped and in one whose cache refuses the filter
and indexes every site, the behaviour the reference was copied from.  The
op vocabulary includes the history changing underneath them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.avoidance import AvoidanceEngine, Decision
from repro.core.cache import AvoidanceCache
from repro.core.callstack import CallStack, Frame, LazyCallStack
from repro.core.config import DimmunixConfig
from repro.core.dimmunix import Dimmunix
from repro.core.history import History
from repro.core.signature import DEADLOCK, EXCLUSIVE, SHARED, STARVATION, Signature
from repro.instrument.locks import DimmunixRLock
from repro.instrument.runtime import InstrumentationRuntime

# -- the reference: scan everything ----------------------------------------------------


def indexed_bindings(cache) -> List[Tuple[int, int, CallStack]]:
    """Every (thread, lock, stack) in the Allowed index."""
    return [binding for bindings in cache.allowed.values() for binding in bindings]


def oracle_candidates(cache, signature_stack, depth, exclude_threads, exclude_locks):
    return [(thread_id, lock_id, stack)
            for thread_id, lock_id, stack in indexed_bindings(cache)
            if signature_stack.matches(stack, depth)
            and thread_id not in exclude_threads and lock_id not in exclude_locks]


def oracle_instances(engine, signature, thread_id, lock_id, stack, depth):
    candidate_indices = [index for index, sig_stack in enumerate(signature.stacks)
                         if sig_stack.matches(stack, depth)]
    indices = list(range(len(signature.stacks)))

    def shared(lock):
        """May one instance bind ``lock`` twice?  A semaphore or rwlock, or any
        lock of a starvation signature (a blocked request and its holder)."""
        return lock in engine._multiholder or signature.kind == STARVATION

    used_locks = set() if shared(lock_id) else {lock_id}
    for chosen in candidate_indices:
        remaining = [index for index in indices if index != chosen]
        for assignment in _oracle_cover(engine, signature, remaining, depth,
                                        {thread_id}, used_locks, shared):
            yield [(thread_id, lock_id, stack)] + assignment


def _oracle_cover(engine, signature, remaining, depth, used_threads, used_locks, shared):
    if not remaining:
        yield []
        return
    for thread_id, lock_id, stack in oracle_candidates(
            engine.cache, signature.stacks[remaining[0]], depth, used_threads, used_locks):
        next_locks = used_locks if shared(lock_id) else used_locks | {lock_id}
        for rest in _oracle_cover(engine, signature, remaining[1:], depth,
                                  used_threads | {thread_id}, next_locks, shared):
            yield [(thread_id, lock_id, stack)] + rest


# -- positions: real frames, captured lazily and eagerly on one line ---------------------

lazy_here = CallStack.capture_lazy
eager_here = CallStack.capture_cached


def site_a(lazy, then):
    return then(lazy_here(skip=0) if lazy else None, eager_here(skip=0))


def site_b(lazy, then):
    return then(lazy_here(skip=0) if lazy else None, eager_here(skip=0))


def site_c(lazy, then):
    return then(lazy_here(skip=0) if lazy else None, eager_here(skip=0))


def via_x(site, lazy, then):
    return site(lazy, then)


def via_y(site, lazy, then):
    return site(lazy, then)


#: lock id -> (mode, capacity): two mutexes, a 2-permit semaphore, a reader lock.
LOCKS = {10: (EXCLUSIVE, 1), 11: (EXCLUSIVE, 1), 12: (EXCLUSIVE, 2), 13: (SHARED, 1)}
THREADS = (1, 2, 3, 4)
FORMS = ("eager", "lazy", "degraded", "one-frame", "empty")
FOREIGN = CallStack.from_labels(["elsewhere:1", "nobody:2"])


@dataclass(frozen=True)
class Op:
    kind: str  # hold | wait | release | cancel
    thread: int
    lock: int
    site: Callable
    via: Callable
    form: str


@dataclass(frozen=True)
class Edit:
    """The history changes: a signature over two bound positions, or one it has, by index."""

    kind: str  # add | disable | enable | remove
    first: int
    second: int
    keep: int
    depth: int


lock_ops = st.builds(Op,
                     kind=st.sampled_from(("hold", "hold", "hold", "wait", "release", "cancel")),
                     thread=st.sampled_from(THREADS), lock=st.sampled_from(sorted(LOCKS)),
                     site=st.sampled_from((site_a, site_b, site_c)),
                     via=st.sampled_from((via_x, via_y)), form=st.sampled_from(FORMS))
edits = st.builds(Edit, kind=st.sampled_from(("add", "add", "disable", "enable", "remove")),
                  first=st.integers(0, 11), second=st.integers(0, 11),
                  keep=st.sampled_from((10, 10, 1, 2, 3)), depth=st.integers(1, 4))
ops_strategy = st.lists(st.one_of(lock_ops, lock_ops, lock_ops, edits), min_size=2, max_size=12)


class AllSitesCache(AvoidanceCache):
    """Refuses the engine's filter, so it keeps an Allowed set at every site.

    (The engine then finds ``sites`` unequal to its index's on every
    request and rebuilds each time, which must change nothing.)
    """

    sites = property(lambda self: None, lambda self, value: None)


def make_engine(all_sites: bool = False, history: Optional[History] = None) -> AvoidanceEngine:
    """An engine whose history is non-empty but matches nothing (until an ``Edit`` adds to it)."""
    if history is None:
        history = History(path=None, autosave=False)
        history.add(Signature([FOREIGN, CallStack.from_labels(["elsewhere:3", "nobody:4"])]))
    engine = AvoidanceEngine(history, DimmunixConfig.for_testing())
    if all_sites:
        engine.cache = AllSitesCache()
    return engine


def make_pair() -> Tuple[AvoidanceEngine, AvoidanceEngine]:
    """The engine as shipped and the all-sites one, on one history."""
    gated = make_engine()
    return gated, make_engine(all_sites=True, history=gated.history)


def site_of(binding) -> Optional[Frame]:
    return binding[2].top()


def assert_same_index(gated: AvoidanceEngine, reference: AvoidanceEngine) -> None:
    """The gated index is the all-sites one, cut down to the sites its cache was told of.

    Both hold live bindings only; the gated one may also keep what a site
    named until a signature went away still holds, until that is released.
    """
    sites = gated.cache.sites
    everything = set(indexed_bindings(reference.cache))
    assert everything == set(live_bindings(reference.cache)) == set(live_bindings(gated.cache))
    mine = set(indexed_bindings(gated.cache))
    assert mine <= everything
    assert {binding for binding in everything
            if sites is None or site_of(binding) in sites} <= mine


def apply(engines: Sequence[AvoidanceEngine], op: Op,
          stack: Optional[CallStack] = None) -> None:
    """Drive one operation through every engine's entry points, if it is legal now.

    The engines share the stack objects, so they are asked back to back and
    must answer alike; a YIELD names causes the exhaustive scan also finds.
    """
    cache = engines[0].cache
    mode, capacity = LOCKS[op.lock]
    if op.kind == "release":
        if cache.hold_count(op.thread, op.lock):
            for engine in engines:
                engine.release(op.thread, op.lock)
    elif op.kind == "cancel":
        waiting = cache.waiting_of(op.thread)
        if waiting is not None:
            for engine in engines:
                engine.cancel(op.thread, waiting[0])
    elif op.kind == "wait" or (mode, capacity) != (EXCLUSIVE, 1) \
            or cache.holder_of(op.lock) in (None, op.thread):  # not a mutex somebody else holds
        outcomes = [engine.request(op.thread, op.lock, stack, mode, capacity)
                    for engine in engines]
        assert len({outcome.decision for outcome in outcomes}) == 1
        for outcome in outcomes:
            if outcome.is_yield:
                signature = outcome.signature
                assert [(op.thread, op.lock, stack)] + list(outcome.causes) in list(
                    oracle_instances(engines[-1], signature, op.thread, op.lock, stack,
                                     signature.matching_depth))
        if op.kind == "hold" and outcomes[0].is_go:
            for engine in engines:
                engine.acquired(op.thread, op.lock, stack, mode, capacity)


def edit(history: History, op: Edit, pool) -> None:
    known = [frames for frames in pool if frames]
    if op.kind == "add":
        if known:
            history.add(Signature([CallStack(known[index % len(known)][:op.keep])
                                   for index in (op.first, op.second)],
                                  matching_depth=op.depth))
        return
    fingerprints = sorted(signature.fingerprint for signature in history.signatures())
    if fingerprints:
        getattr(history, op.kind)(fingerprints[op.first % len(fingerprints)])


def build(engines, ops, pool, done):
    """Apply ``ops`` from nested frames, so every live capture stays live, then ``done()``.

    ``pool`` collects the frame tuple each captured position *will* read
    as once materialized — taken from its eager twin, never from the lazy
    stack, which must reach the search untouched.  With two engines, the
    gated one and the all-sites one, their indexes are compared after
    every op.
    """
    if len(engines) == 2:
        assert_same_index(*engines)
    if not ops:
        return done()
    op, rest = ops[0], ops[1:]
    if isinstance(op, Edit):
        edit(engines[0].history, op, pool)
        return build(engines, rest, pool, done)
    if op.kind in ("release", "cancel"):
        apply(engines, op)
        return build(engines, rest, pool, done)
    if op.form == "degraded":
        lazy, twin = op.via(op.site, True, lambda lazy, twin: (lazy, twin))
        pool.append(twin.frames[:1])
        apply(engines, op, lazy)  # its frame has returned: one frame is all it keeps
        return build(engines, rest, pool, done)

    def inside(lazy, twin):
        pool.append(twin.frames)
        stack = {"eager": twin, "lazy": lazy, "one-frame": CallStack(twin.frames[:1]),
                 "empty": CallStack(())}[op.form]
        apply(engines, op, stack)
        return build(engines, rest, pool, done)

    return op.via(op.site, op.form == "lazy", inside)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(ops=ops_strategy, data=st.data())
    def test_find_instance_agrees_with_the_exhaustive_scan(self, hand_over_the_filter, ops, data):
        gated, reference = engines = make_pair()
        pool: List[Tuple[Frame, ...]] = []

        def check():
            # Drawn so that instantiations are common: positions are stacks that were
            # bound, mostly cut no shorter than the depth, and the request usually
            # stands on one of them as a thread and a lock nobody else is.
            depth = data.draw(st.integers(1, gated.config.max_stack_depth))
            known = [frames for frames in pool if frames] + [FOREIGN.frames]
            position = st.builds(lambda frames, keep: CallStack(frames[:keep]),
                                 st.sampled_from(known),
                                 st.sampled_from((10, 10, depth, 1, 2, 3)))
            signature = Signature(data.draw(st.lists(position, min_size=2, max_size=3)),
                                  kind=data.draw(st.sampled_from((DEADLOCK, DEADLOCK,
                                                                  STARVATION))))
            stack = data.draw(st.one_of(st.sampled_from(signature.stacks), position,
                                        st.just(CallStack(()))))
            thread_id = data.draw(st.sampled_from((9, 9, 9) + THREADS))
            lock_id = data.draw(st.sampled_from([14, 14, 14] + sorted(LOCKS)))
            # The search looks where a signature of the history stands: enter this one
            # (or wake the equal one an Edit put to sleep), as the bindings stand now.
            gated.history.add(signature)
            gated.history.enable(signature.fingerprint)
            for engine in engines:
                engine._learn_spec(lock_id, *LOCKS.get(lock_id, (EXCLUSIVE, 1)))
                hand_over_the_filter(engine)
            assert gated.cache.sites is gated.index.sites
            assert_same_index(gated, reference)

            instances = list(oracle_instances(reference, signature, thread_id, lock_id,
                                              stack, depth))
            for engine in engines:
                found = engine._find_instance(signature, thread_id, lock_id, stack, depth)
                assert (found is None) == (not instances)
                assert found is None or found in instances

        build(engines, ops, pool, check)

    @settings(max_examples=150, deadline=None)
    @given(ops=ops_strategy, data=st.data())
    def test_candidates_matching_agrees_with_the_exhaustive_scan(self, hand_over_the_filter,
                                                                 ops, data):
        gated, reference = engines = make_pair()
        pool: List[Tuple[Frame, ...]] = []

        def check():
            frames = data.draw(st.sampled_from(pool + [FOREIGN.frames, ()]))
            probe = CallStack(frames[:data.draw(st.integers(1, 10))])
            depth = data.draw(st.integers(1, gated.config.max_stack_depth))
            exclude_threads = data.draw(st.sets(st.sampled_from(THREADS)))
            exclude_locks = data.draw(st.sets(st.sampled_from(sorted(LOCKS))))
            want = oracle_candidates(reference.cache, probe, depth, exclude_threads,
                                     exclude_locks)
            got = reference.cache.candidates_matching(probe, depth, exclude_threads,
                                                      exclude_locks)
            assert len(got) == len(want) and set(got) == set(want)
            # The gated cache answers for the probes the search makes: signature stacks.
            hand_over_the_filter(gated)
            if probe.top() in gated.index.sites:
                got = gated.cache.candidates_matching(probe, depth, exclude_threads,
                                                      exclude_locks)
                assert len(got) == len(want) and set(got) == set(want)

        build(engines, ops, pool, check)


def occupied_site_reference(engine, signature, stack) -> bool:
    """Can the request take a position of ``signature`` whose others all stand at occupied sites?"""
    stacks = signature.stacks
    return any(all(other.top() in engine.cache.allowed
                   for index, other in enumerate(stacks) if index != chosen)
               for chosen in signature.matching_stacks(stack))


def search_every_candidate(engine, thread_id, lock_id, stack):
    """The hit path before the occupied-site plan: every candidate searched, in the index's order.

    As on the hit path, a signature with one stack is never searched: it parks nobody.
    """
    for signature in engine.index.candidates(stack):
        if signature.disabled or len(signature.stacks) < 2:
            continue
        instance = engine._find_instance(signature, thread_id, lock_id, stack,
                                         signature.matching_depth)
        if instance is not None:
            return signature, instance
    return None


class TestOccupiedSitePlan:
    """Only a candidate whose other stacks all stand at occupied sites is searched.

    ``_match_candidates`` asks each index group which of its signatures the
    occupied call sites admit; what must not change is the answer the
    search over every candidate gave — the same signature, the same
    instance — over 1- to 3-stack signatures of either kind, one-frame and
    short stacks, stacks sharing a site, and semaphores and reader locks.
    """

    @settings(max_examples=300, deadline=None)
    @given(ops=ops_strategy, data=st.data())
    def test_match_candidates_agrees_with_searching_every_candidate(
            self, hand_over_the_filter, ops, data):
        engine = make_engine()
        pool: List[Tuple[Frame, ...]] = []

        def check():
            known = [frames for frames in pool if frames] + [FOREIGN.frames]
            position = st.builds(lambda frames, keep: CallStack(frames[:keep]),
                                 st.sampled_from(known), st.sampled_from((10, 10, 1, 2, 3)))
            signatures = data.draw(st.lists(st.builds(
                lambda stacks, kind, depth: Signature(stacks, kind=kind, matching_depth=depth),
                st.lists(position, min_size=1, max_size=3),
                st.sampled_from((DEADLOCK, DEADLOCK, STARVATION)), st.integers(1, 4)),
                min_size=1, max_size=4))
            for signature in signatures:
                engine.history.add(signature)
                engine.history.enable(signature.fingerprint)
            hand_over_the_filter(engine)
            stack = data.draw(st.one_of(
                st.sampled_from([sig_stack for signature in signatures
                                 for sig_stack in signature.stacks]), position))
            thread_id = data.draw(st.sampled_from((9, 9, 9) + THREADS))
            lock_id = data.draw(st.sampled_from([14, 14, 14] + sorted(LOCKS)))
            engine._learn_spec(lock_id, *LOCKS.get(lock_id, (EXCLUSIVE, 1)))

            groups = engine.index.lookup(stack)
            for group in groups:
                assert list(group.admitted(engine.cache.allowed)) == [
                    signature for signature in group.signatures
                    if occupied_site_reference(engine, signature, stack)]
            want = search_every_candidate(engine, thread_id, lock_id, stack)
            got = engine._match_candidates(groups, thread_id, lock_id, stack)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] is want[0] and got[1] == want[1]

        build([engine], ops, pool, check)


class TestLaziness:
    def test_a_probed_lazy_stack_is_matched_deep_and_others_are_left_alone(
            self, hand_over_the_filter):
        """Only the bindings at a probed site are read; the scan read every one."""
        engine = make_engine()

        def held_at_a(lazy_a, twin_a):
            engine.request(1, 10, lazy_a)
            engine.acquired(1, 10, lazy_a)

            def held_at_b(lazy_b, twin_b):
                engine.request(2, 11, lazy_b)
                engine.acquired(2, 11, lazy_b)
                # Registered, so that its sites are probed: nobody looks for a
                # binding at a call site no signature of the history names.
                signature = Signature([twin_a, FOREIGN], matching_depth=4)
                engine.history.add(signature)
                hand_over_the_filter(engine)
                assert not lazy_a.materialized()  # indexed by its top frame alone
                found = engine._find_instance(signature, 3, 12, FOREIGN, 4)
                assert found == [(3, 12, FOREIGN), (1, 10, twin_a)]
                assert isinstance(lazy_b, LazyCallStack) and not lazy_b.materialized()
                assert lazy_a.materialized() and len(lazy_a) > 1

            via_y(site_b, True, held_at_b)

        via_x(site_a, True, held_at_a)


# -- the index holds exactly the live bindings ---------------------------------------------


def live_bindings(cache):
    """(thread, lock, stack) of every hold and wait edge, from the per-thread ledger."""
    live = []
    for thread_id, slot in cache.slots.items():
        if slot.waiting is not None:
            live.append((thread_id, slot.waiting[0], slot.waiting[1]))
        for lock_id, stacks in slot.holds.items():
            live.extend((thread_id, lock_id, stack) for stack in stacks)
    return live


class TestIndexIsTheLiveBindings:
    @settings(max_examples=150, deadline=None)
    @given(ops=ops_strategy)
    def test_no_binding_outlives_its_edge(self, hand_over_the_filter, ops):
        """Index == live bindings at named sites; at every site for a ``sites = None`` cache."""
        gated, reference = engines = make_pair()
        # One of the three sites is named from the start, Edits name and un-name others.
        gated.history.add(Signature([via_x(site_a, False, lambda lazy, twin: twin), FOREIGN]))

        def check():
            live = set(live_bindings(reference.cache))
            assert set(indexed_bindings(reference.cache)) == live
            assert sum(reference.cache.allowed_set_sizes().values()) == len(live)
            hand_over_the_filter(gated)
            named = {binding for binding in live_bindings(gated.cache)
                     if site_of(binding) in gated.index.sites}
            indexed = set(indexed_bindings(gated.cache))
            assert named <= indexed <= live
            # Beyond those it keeps only what stands at a site that was named once.
            assert indexed == named or any(
                isinstance(op, Edit) and op.kind in ("disable", "remove") for op in ops)
            assert sum(gated.cache.allowed_set_sizes().values()) == len(indexed)

        build(engines, ops, [], check)

    def test_reentrant_reacquisition_leaves_nothing_indexed(self):
        history = History(path=None, autosave=False)
        history.add(Signature([FOREIGN, CallStack.from_labels(["elsewhere:3"])]))
        dimmunix = Dimmunix(config=DimmunixConfig.for_testing(), history=history)
        lock = DimmunixRLock(runtime=InstrumentationRuntime(dimmunix))

        def inner():
            with lock:
                pass

        for _ in range(1000):
            with lock:
                inner()
        assert indexed_bindings(dimmunix.engine.cache) == []
        assert dimmunix.engine.cache.allowed_set_sizes() == {}

    def test_a_released_inner_hold_cannot_be_yielded_on(self):
        """A YIELD names stacks somebody stands on, not one an outer hold outlived."""
        outer = CallStack.from_labels(["outer:1", "main:0"])
        inner = CallStack.from_labels(["inner:2", "outer:1", "main:0"])
        other = CallStack.from_labels(["other:3", "main:0"])
        history = History(path=None, autosave=False)
        history.add(Signature([inner, other], matching_depth=2))
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing())
        for stack in (outer, inner):
            assert engine.request(1, 10, stack).is_go
            engine.acquired(1, 10, stack)
        engine.release(1, 10)  # the inner hold is gone, thread 1 still holds lock 10
        assert engine.request(2, 11, other).decision is Decision.GO
        assert engine.cache.candidates_matching(inner, 2, set(), set()) == []

    def test_holds_taken_before_the_first_signature_are_found_by_site(self):
        held = CallStack.from_labels(["held:1", "caller:5", "main:0"])
        wants = CallStack.from_labels(["wants:2", "caller:6", "main:0"])
        history = History(path=None, autosave=False)
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing())
        engine.request(1, 10, held)
        engine.acquired(1, 10, held)
        assert indexed_bindings(engine.cache) == []  # nothing to search: not maintained
        history.add(Signature([held, wants], matching_depth=2))
        outcome = engine.request(2, 11, wants)
        assert outcome.is_yield and outcome.causes == ((1, 10, held),)
        same_site = CallStack.from_labels(["held:1", "elsewhere:9"])
        assert engine.cache.candidates_matching(same_site, 1, set(), set()) == [(1, 10, held)]
