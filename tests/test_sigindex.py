"""Tests for the incremental site-keyed signature index."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.avoidance import AvoidanceEngine
from repro.core.callstack import CallStack
from repro.core.config import DimmunixConfig
from repro.core.events import EV_ALLOW
from repro.core.history import History
from repro.core.sigindex import SignatureIndex
from repro.core.signature import Signature
from repro.share import SignaturePool, open_channel


def stack(*labels):
    return CallStack.from_labels(list(labels))


def make_signature(seed: int, depth: int = 2) -> Signature:
    return Signature([stack(f"lock:{seed}", f"callerA:{seed}", "main:0"),
                      stack(f"lock:{seed + 1000}", f"callerB:{seed}", "main:0")],
                     matching_depth=depth)


@pytest.fixture
def history():
    return History(path=None, autosave=False)


class TestIncrementalMaintenance:
    def test_add_and_lookup(self, history):
        index = SignatureIndex(history)
        sig = make_signature(1)
        history.add(sig)
        assert index.candidates(stack("lock:1", "callerA:1", "main:0")) == [sig]
        assert index.candidates(stack("lock:999", "other:0")) == []

    def test_remove_disable_enable(self, history):
        index = SignatureIndex(history)
        sig = make_signature(1)
        history.add(sig)
        probe = stack("lock:1", "callerA:1", "main:0")
        history.disable(sig.fingerprint)
        assert index.candidates(probe) == []
        history.enable(sig.fingerprint)
        assert index.candidates(probe) == [sig]
        history.remove(sig.fingerprint)
        assert index.candidates(probe) == []
        assert len(index) == 0

    def test_a_signature_removed_before_its_new_depth_was_keyed_leaves(self, history):
        index = SignatureIndex(history)
        sig = make_signature(1, depth=2)
        history.add(sig)
        sig._matching_depth = 3  # moved, the index not told yet: as inside History.set_depth
        history.remove(sig.fingerprint)
        assert index.sites == {}
        assert index.candidates(stack("lock:1", "callerA:1", "main:0")) == []

    def test_clear_empties_index(self, history):
        index = SignatureIndex(history)
        history.add(make_signature(1))
        history.add(make_signature(2))
        history.clear()
        assert len(index) == 0
        assert index.candidates(stack("lock:1", "callerA:1", "main:0")) == []

    def test_no_full_rebuild_after_construction(self, history):
        for seed in range(5):
            history.add(make_signature(seed))
        index = SignatureIndex(history)
        rebuilds_after_init = index.full_rebuilds
        history.add(make_signature(50))
        history.disable(make_signature(1).fingerprint)
        for _ in range(100):
            index.candidates(stack("lock:0", "callerA:0", "main:0"))
        assert index.full_rebuilds == rebuilds_after_init
        assert index.equivalent_to_rebuild()


class TestDepthRecalibration:
    def test_engine_matches_at_recalibrated_depth(self):
        history = History(path=None, autosave=False)
        sig = Signature([stack("lock:4", "update:1"), stack("lock:4", "update:2")],
                        matching_depth=2)
        history.add(sig)
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing())
        s1 = stack("lock:4", "update:1", "main:0")
        s2 = stack("lock:4", "update:2", "main:0")
        engine.request(1, 2, s2)
        engine.acquired(1, 2, s2)
        assert engine.request(2, 1, s1).is_yield
        engine.force_go(2)
        assert engine.request(2, 1, s1).is_go
        engine.acquired(2, 1, s1)
        engine.release(2, 1)
        # Deepen the depth so the "update" frames must also match.  The
        # history tells the index, which re-keys the signature once, at once.
        updates = engine.index.updates
        history.set_depth(sig.fingerprint, 3)
        assert engine.index.updates == updates + 1
        different = stack("lock:4", "update:1", "elsewhere:9")
        assert engine.request(2, 1, different).is_go
        assert engine.index.updates == updates + 1
        assert engine.request(3, 1, different).is_go
        assert engine.index.updates == updates + 1


class TestOneDepthChange:
    def test_re_keys_the_indexes_sharing_its_history_and_nothing_else(self):
        shared, other = History(path=None, autosave=False), History(path=None, autosave=False)
        for seed in range(4):
            shared.add(make_signature(seed))
            other.add(make_signature(seed))
        pool = SignaturePool(shared, open_channel("memory://one-depth-change"))
        first, second, bystander = (AvoidanceEngine(history, DimmunixConfig.for_testing())
                                    for history in (shared, shared, other))
        indexes = (first.index, second.index, bystander.index)
        counts = [(index.updates, index.full_rebuilds) for index in indexes]
        sites = [index.sites for index in indexes]
        sent = (pool.published, pool.controls_published)
        changed = make_signature(0)
        assert shared.set_depth(changed.fingerprint, 3)
        for index, (updates, rebuilds), before in zip(indexes[:2], counts, sites):
            assert (index.updates, index.full_rebuilds) == (updates + 1, rebuilds)
            assert index.equivalent_to_rebuild()
            named = {sig_stack.top() for sig_stack in changed.stacks}
            assert {site for site in before if index.sites[site] is not before[site]} == named
            assert index.candidates(stack("lock:0", "callerA:0", "zz:9")) == []
            assert index.candidates(stack("lock:0", "callerA:0", "main:0")) == [changed]
        assert bystander.index.sites is sites[2]
        assert (bystander.index.updates, bystander.index.full_rebuilds) == counts[2]
        assert (pool.published, pool.controls_published) == sent  # the pool ignores it
        pool.close()


class TestOneFrameRequests:
    @pytest.mark.parametrize("form", ["deep", "one-frame"])
    def test_a_request_at_a_named_site_yields_however_many_frames_it_kept(self, form):
        """A one-frame stack (a degraded lazy capture) matches on its top frame.

        So a request that kept only its call site must reach the signatures
        with a stack there, as the deep stack of the same position does.
        """
        held = stack("lock:1", "callerA:1", "work:1", "main:0")
        wanted = stack("lock:2", "callerB:1", "work:2", "main:0")
        history = History(path=None, autosave=False)
        history.add(Signature([held, wanted]))
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing())
        assert engine.request(1, 10, held).is_go
        engine.acquired(1, 10, held)
        request = wanted if form == "deep" else CallStack(wanted.frames[:1])
        outcome = engine.request(2, 20, request)
        assert outcome.is_yield and outcome.causes == ((1, 10, held),)


class TestNoStalenessScanOnRequestPath:
    def test_request_path_never_scans_history(self, monkeypatch):
        """Regression for the O(history)-per-request staleness scan: the
        request path must not call ``history.get`` (the old scan called it
        twice per signature per request) and must not rebuild the index."""
        history = History(path=None, autosave=False)
        for seed in range(50):
            history.add(make_signature(seed))
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing())
        rebuilds = engine.index.full_rebuilds

        calls = {"get": 0}
        original_get = history.get

        def counting_get(fingerprint):
            calls["get"] += 1
            return original_get(fingerprint)

        monkeypatch.setattr(history, "get", counting_get)
        probe = stack("app:1", "caller:1", "main:0")
        for i in range(200):
            engine.request(1, 10 + (i % 3), probe)
            engine.acquired(1, 10 + (i % 3), probe)
            engine.release(1, 10 + (i % 3))
        assert calls["get"] == 0
        assert engine.index.full_rebuilds == rebuilds


class TestRandomizedEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_add_disable_recalibrate_stays_equivalent(self, seed):
        rng = random.Random(seed)
        history = History(path=None, autosave=False)
        index = SignatureIndex(history)
        pool = []
        for step in range(40):
            op = rng.randrange(5)
            if op == 0 or not pool:
                sig = make_signature(rng.randrange(20),
                                     depth=rng.randrange(1, 5))
                if history.add(sig):
                    pool.append(sig)
            elif op == 1:
                history.disable(rng.choice(pool).fingerprint)
            elif op == 2:
                history.enable(rng.choice(pool).fingerprint)
            elif op == 3:
                victim = rng.choice(pool)
                history.remove(victim.fingerprint)
                pool = [s for s in pool
                        if s.fingerprint != victim.fingerprint]
            else:
                # A recalibration, told to the index through the history.
                history.set_depth(rng.choice(pool).fingerprint, rng.randrange(1, 6))
            assert index.equivalent_to_rebuild(), f"diverged at step {step}"


_labels = st.sampled_from(["lock:1", "lock:2", "f:1", "g:2", "main:0"])
_stacks = st.lists(_labels, min_size=1, max_size=6).map(lambda labels: stack(*labels))


class TestCandidatesCoverEveryMatch:
    @given(specs=st.lists(st.tuples(st.lists(_stacks, min_size=1, max_size=3),
                                    st.integers(1, 6), st.booleans()), max_size=6),
           depths=st.lists(st.integers(1, 6), max_size=6),
           request=_stacks)
    @settings(max_examples=200, deadline=None)
    def test_every_signature_the_request_matches_is_a_candidate(self, specs, depths, request):
        """The candidates are the signatures the request ``matches`` at their depth, once each.

        One-frame requests and stacks included, and depths changed after
        indexing (a recalibration, told through the history).
        """
        history = History(path=None, autosave=False)
        index = SignatureIndex(history)
        for sig_stacks, depth, disabled in specs:
            signature = Signature(sig_stacks, matching_depth=depth)
            if history.add(signature) and disabled:
                history.disable(signature.fingerprint)
        for signature, depth in zip(history.signatures(), depths):
            history.set_depth(signature.fingerprint, depth)
        found = [signature.fingerprint for signature in index.candidates(request)]
        assert len(found) == len(set(found))
        assert set(found) == {signature.fingerprint for signature in history.enabled_signatures()
                              if signature.matching_stacks(request)}


class TestSharedCallSites:
    def test_a_request_matching_no_stack_at_a_named_site_is_granted_lock_free(self, monkeypatch):
        """Many signatures name one call site; a request there whose deeper
        frames match none of their stacks gets GO with no cover search and no
        REQUEST record, as a request at an unnamed site does."""
        history = History(path=None, autosave=False)
        for seed in range(32):
            history.add(Signature([stack("lock:0", f"caller:{seed}", "main:0"),
                                   stack("lock:0", f"other:{seed}", "main:0")]))
        engine = AvoidanceEngine(history, DimmunixConfig.for_testing())
        searched = []
        monkeypatch.setattr(engine, "_match_candidates", lambda *args: searched.append(args))
        assert engine.request(1, 10, stack("lock:0", "unrelated:1", "main:0")).is_go
        assert searched == []
        assert [record[0] for record in engine.events.drain_raw()] == [EV_ALLOW]


class _CountingOccupied(dict):
    """Stands in for the cache's ``allowed`` map and counts what is read of it."""

    def __init__(self, sites):
        super().__init__((site, {"binding"}) for site in sites)
        self.probes = self.iterations = 0

    def __contains__(self, site):
        self.probes += 1
        return super().__contains__(site)

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestOccupiedSitePlan:
    """A group admits the signatures whose stacks elsewhere all stand at occupied sites."""

    def test_each_signature_needs_the_sites_of_its_other_stacks(self, history):
        here, twin = stack("a:1", "x:1", "main:0"), stack("a:1", "y:2", "main:0")
        b, c = stack("b:2", "x:1", "main:0"), stack("c:3", "x:1", "main:0")
        alone = Signature([here], matching_depth=1)
        pair = Signature([here, b], matching_depth=1)
        twice = Signature([here, twin], matching_depth=1)  # a second stack at its own site
        triple = Signature([here, b, c], matching_depth=1)
        index = SignatureIndex(history)
        for signature in (alone, pair, twice, triple):
            history.add(signature)
        group, = index.lookup(here)
        assert group.signatures == (alone, pair, twice, triple)
        for occupied, admitted in [((), [alone]), ((b,), [alone, pair]),
                                   ((b, c), [alone, pair, triple]), ((here,), [alone, twice]),
                                   ((here, b, c), [alone, pair, twice, triple])]:
            got = group.admitted({sig_stack.top(): {"binding"} for sig_stack in occupied})
            assert list(got) == admitted, occupied

    @pytest.mark.parametrize("needed, occupied, probes, iterations",
                             [(5, 100, 5, 0), (5, 1, 0, 1), (5, 0, 0, 1)])
    def test_probes_the_fewer_of_its_needed_and_the_occupied_sites(
            self, history, needed, occupied, probes, iterations):
        here = stack("take:1", "m:0")
        for seed in range(needed):
            history.add(Signature([here, stack(f"never{seed}:1", "m:0")]))
        group, = SignatureIndex(history).lookup(here)
        sites = _CountingOccupied(stack(f"elsewhere{seed}:1").top() for seed in range(occupied))
        assert list(group.admitted(sites)) == []
        assert (sites.probes, sites.iterations) == (probes, iterations)
