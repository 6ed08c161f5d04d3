"""Unit tests for deadlock/starvation signatures."""

from __future__ import annotations

import pytest

from repro.core.callstack import CallStack
from repro.core.errors import SignatureError
from repro.core.history import History
from repro.core.signature import DEADLOCK, STARVATION, Signature


def make_signature(**kwargs):
    return Signature.from_stacks(
        [["lock:3", "update:1"], ["lock:3", "update:2"]], **kwargs)


class TestSignatureConstruction:
    def test_requires_at_least_one_stack(self):
        with pytest.raises(SignatureError):
            Signature([])

    def test_rejects_empty_stacks(self):
        with pytest.raises(SignatureError):
            Signature([CallStack(())])

    def test_rejects_unknown_kind(self):
        with pytest.raises(SignatureError):
            Signature.from_stacks([["a:1"]], kind="bogus")

    def test_rejects_bad_depth(self):
        with pytest.raises(SignatureError):
            Signature.from_stacks([["a:1"]], matching_depth=0)

    def test_stacks_are_sorted_multiset(self):
        a = Signature.from_stacks([["x:1"], ["a:1"]])
        b = Signature.from_stacks([["a:1"], ["x:1"]])
        assert a == b
        assert a.fingerprint == b.fingerprint

    def test_duplicate_stacks_allowed(self):
        sig = Signature.from_stacks([["a:1"], ["a:1"]])
        assert sig.size == 2


class TestSignatureIdentity:
    def test_fingerprint_stable_across_counters(self):
        sig = make_signature()
        fp = sig.fingerprint
        sig.record_avoidance()
        sig.record_abort()
        history = History(path=None, autosave=False)
        history.add(sig)
        assert history.set_depth(fp, 7) and sig.matching_depth == 7
        assert sig.fingerprint == fp

    def test_the_depth_is_set_through_the_history_alone(self):
        sig = make_signature()
        with pytest.raises(AttributeError):
            sig.matching_depth = 7
        assert not History(path=None, autosave=False).set_depth(sig.fingerprint, 7)
        assert sig.matching_depth == 4

    def test_kind_changes_fingerprint(self):
        deadlock = make_signature(kind=DEADLOCK)
        starvation = make_signature(kind=STARVATION)
        assert deadlock.fingerprint != starvation.fingerprint

    def test_equality_ignores_depth(self):
        assert make_signature(matching_depth=2) == make_signature(matching_depth=5)

    def test_hashable(self):
        assert len({make_signature(), make_signature()}) == 1


class TestSignatureMatching:
    def test_matching_stacks_uses_depth(self):
        sig = make_signature(matching_depth=1)
        runtime = CallStack.from_labels(["lock:3", "somewhere:9"])
        assert sig.matching_stacks(runtime) == [0, 1]
        history = History(path=None, autosave=False)
        history.add(sig)
        history.set_depth(sig.fingerprint, 2)
        assert sig.matching_stacks(runtime) == []

    def test_stack_matches_explicit_depth(self):
        sig = make_signature(matching_depth=2)
        runtime = CallStack.from_labels(["lock:3", "elsewhere:7"])
        assert sig.stacks[0].matches(runtime, 1)
        assert not sig.stacks[0].matches(runtime, 2)


class TestSignatureCounters:
    def test_record_avoidance(self):
        sig = make_signature()
        assert sig.record_avoidance() == 1
        assert sig.record_avoidance() == 2

    def test_record_abort(self):
        sig = make_signature()
        assert sig.record_abort() == 1

    def test_record_occurrence(self):
        sig = make_signature()
        assert sig.occurrence_count == 1
        assert sig.record_occurrence() == 2

    def test_enabled_flag(self):
        sig = make_signature()
        assert sig.enabled
        sig.disabled = True
        assert not sig.enabled


class TestSignatureSerialization:
    def test_roundtrip(self):
        sig = make_signature(matching_depth=3)
        sig.record_avoidance()
        sig.disabled = True
        restored = Signature.from_dict(sig.to_dict())
        assert restored == sig
        assert restored.matching_depth == 3
        assert restored.avoidance_count == 1
        assert restored.disabled is True

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(SignatureError):
            Signature.from_dict({"stacks": "not-a-list-of-stacks"})

    def test_describe_contains_frames(self):
        text = make_signature().describe()
        assert "deadlock signature" in text
        assert "lock" in text
