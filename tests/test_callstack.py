"""Unit tests for the call-stack abstraction."""

from __future__ import annotations

import pytest

from repro.core.callstack import (CallStack, EMPTY_STACK, Frame, LazyCallStack,
                                  _is_internal)
from repro.core.stats import EngineStats


class TestFrame:
    def test_symbolic_function_only(self):
        frame = Frame.symbolic("update")
        assert frame.function == "update"
        assert frame.lineno == 0

    def test_symbolic_with_line(self):
        frame = Frame.symbolic("update:42")
        assert frame.function == "update"
        assert frame.lineno == 42

    def test_symbolic_full(self):
        frame = Frame.symbolic("update:db.py:42")
        assert frame.filename == "db.py"
        assert frame.lineno == 42

    def test_encode_decode_roundtrip(self):
        frame = Frame(function="f", filename="pkg/mod.py", lineno=7)
        assert Frame.decode(frame.encode()) == frame

    def test_label(self):
        frame = Frame(function="f", filename="mod.py", lineno=7)
        assert frame.label() == "f (mod.py:7)"


class TestCallStack:
    def test_from_labels_order_is_innermost_first(self):
        stack = CallStack.from_labels(["lock:3", "update:1", "main:0"])
        assert stack[0].function == "lock"
        assert stack[2].function == "main"

    def test_equality_and_hash(self):
        a = CallStack.from_labels(["f:1", "g:2"])
        b = CallStack.from_labels(["f:1", "g:2"])
        c = CallStack.from_labels(["f:1", "g:3"])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_suffix(self):
        stack = CallStack.from_labels(["a:1", "b:2", "c:3"])
        assert len(stack.suffix(2)) == 2
        assert stack.suffix(2)[0].function == "a"
        assert len(stack.suffix(10)) == 3

    def test_suffix_negative_depth_raises(self):
        with pytest.raises(ValueError):
            CallStack.from_labels(["a:1"]).suffix(-1)

    def test_matches_at_depth(self):
        sig = CallStack.from_labels(["lock:3", "update:1"])
        runtime_same = CallStack.from_labels(["lock:3", "update:1", "main:9"])
        runtime_diff = CallStack.from_labels(["lock:3", "other:5", "main:9"])
        assert sig.matches(runtime_same, 2)
        assert sig.matches(runtime_same, 1)
        assert not sig.matches(runtime_diff, 2)
        assert sig.matches(runtime_diff, 1)

    def test_matches_shorter_stack_requires_equality(self):
        short = CallStack.from_labels(["lock:3", "update:1"])
        longer = CallStack.from_labels(["lock:3", "update:1", "main:9"])
        assert not short.matches(longer, 4)
        assert short.matches(longer, 2)

    def test_matches_single_frame_stack_matches_on_top(self):
        # A one-frame stack is the shape of a degraded lazy capture (the
        # acquiring frame died before materialization); it matches any
        # stack with the same innermost frame, at any depth, so archived
        # degraded signatures keep firing against deep runtime stacks.
        single = CallStack.from_labels(["lock:3"])
        deep = CallStack.from_labels(["lock:3", "update:1", "main:9"])
        other = CallStack.from_labels(["open:7", "update:1", "main:9"])
        assert single.matches(deep, 4)
        assert deep.matches(single, 4)
        assert not single.matches(other, 4)

    def test_encode_decode_roundtrip(self):
        stack = CallStack.from_labels(["lock:x.py:3", "update:x.py:1"])
        assert CallStack.decode(stack.encode()) == stack

    def test_empty_stack_is_falsy(self):
        assert not EMPTY_STACK
        assert len(EMPTY_STACK) == 0

    def test_capture_returns_current_frames(self):
        def inner():
            return CallStack.capture(skip=0, limit=10)

        stack = inner()
        functions = [frame.function for frame in stack]
        assert "inner" in functions
        assert "test_capture_returns_current_frames" in functions

    def test_capture_respects_limit(self):
        def recurse(n):
            if n == 0:
                return CallStack.capture(skip=0, limit=3)
            return recurse(n - 1)

        stack = recurse(10)
        assert len(stack) == 3

    def test_capture_excludes_internal_frames(self):
        stack = CallStack.capture(skip=0, limit=32)
        for frame in stack:
            assert "repro/core" not in frame.filename.replace("\\", "/")

    def test_slicing_returns_callstack(self):
        stack = CallStack.from_labels(["a:1", "b:2", "c:3"])
        assert isinstance(stack[:2], CallStack)
        assert len(stack[:2]) == 2

    def test_labels(self):
        stack = CallStack.from_labels(["a:f.py:1"])
        assert stack.labels() == ["a (f.py:1)"]

    def test_ordering_is_defined(self):
        a = CallStack.from_labels(["a:1"])
        b = CallStack.from_labels(["b:1"])
        assert sorted([b, a]) == [a, b]


class TestInternalFrames:
    """Internal means a path *component* starts with a prefix, never a substring mid-name."""

    @pytest.mark.parametrize("filename", [
        "/home/u/myrepro/core/engine.py",
        "/srv/app/xrepro/util/x.py",
        "/srv/app/asyncontextlib.py",
    ])
    def test_an_application_under_a_lookalike_path_keeps_its_frames(self, filename):
        assert not _is_internal(filename)

    @pytest.mark.parametrize("filename", [
        "/opt/venv/lib/python3.11/site-packages/repro/core/cache.py",
        "C:\\Users\\u\\venv\\Lib\\site-packages\\repro\\instrument\\locks.py",
        "/usr/lib/python3.11/contextlib.py",
        "/checkout/src/repro/apps/base.py",
        "repro/util/slots.py",
    ])
    def test_the_implementation_stays_internal(self, filename):
        assert _is_internal(filename)

    @pytest.mark.parametrize("path, kept", [
        ("/srv/app/contextlib.py/handlers.py", True),   # a directory *named* like a file
        ("/srv/repro/apps/base.py/x.py", True),
        ("/usr/lib/python3.11/contextlib.py", False),
        ("/opt/venv/site-packages/repro/core/x.py", False),
    ])
    @pytest.mark.parametrize("capture", [
        "CallStack.capture(skip=0)",
        "CallStack.capture_cached(skip=0)",
        "CallStack.capture_lazy(0, 10, stats, frozenset()).frames",
    ])
    def test_a_frame_is_dropped_for_its_files_components_only(self, evaluate_at, capture,
                                                              path, kept):
        # The path rides in the code's constants: code objects compare without their
        # file name, and internality is remembered per code object.
        stack = evaluate_at(path, f"({capture}, {path!r})[0]", CallStack=CallStack,
                            stats=EngineStats())
        functions = [frame.function for frame in CallStack(stack)]
        assert ("make" in functions) == kept
        assert functions[0] == ("make" if kept else "evaluate")


class TestFilterAtCapture:
    """``capture_lazy`` handed the published ``sites``: named -> walked here, unnamed -> deferred."""

    @staticmethod
    def _from_one_call_path(*captures):
        """Run each capture (``skip=1``: its own lambda) from one and the same call instruction."""
        def site(capture):
            return capture()
        return [site(capture) for capture in captures]

    def test_a_named_site_is_walked_in_place_through_the_shared_memo(self):
        lazy, = self._from_one_call_path(lambda: CallStack.capture_lazy(1, 10, EngineStats()))
        sites = frozenset({lazy.top()})
        stats = EngineStats()
        named, eager, lazy, reference = self._from_one_call_path(
            lambda: CallStack.capture_lazy(1, 10, stats, sites),
            lambda: CallStack.capture_cached(1, 10),
            lambda: CallStack.capture_lazy(1, 10).materialize(),
            lambda: CallStack.capture(skip=1, limit=10))
        assert named is eager
        assert type(named) is CallStack and named.absent_from is None
        assert len(named.frames) > 1 and named.top().function == "site"
        assert named.frames == lazy.frames == reference.frames
        assert stats.capture_deferred == 1 and stats.capture_materialized == 1

    def test_an_unnamed_site_is_deferred_with_the_verdict(self):
        stats = EngineStats()
        sites = frozenset({Frame("elsewhere", "x.py", 1)})
        unnamed, = self._from_one_call_path(lambda: CallStack.capture_lazy(1, 10, stats, sites))
        assert isinstance(unnamed, LazyCallStack) and not unnamed.materialized()
        assert unnamed.absent_from is sites
        assert stats.capture_deferred == 1 and stats.capture_materialized == 0

    def test_without_sites_no_verdict_is_carried(self):
        lazy, = self._from_one_call_path(lambda: CallStack.capture_lazy(1, 10, EngineStats()))
        assert isinstance(lazy, LazyCallStack) and lazy.absent_from is None
        assert CallStack.from_labels(["a:1"]).absent_from is None


class TestCaptureCacheEviction:
    """The per-call-site memo must shed load incrementally, never by a
    wholesale clear: a clear cold-starts every hot call site at once (the
    original bug — one overflowing site wiped everyone's entries)."""

    def test_evict_half_drops_oldest_half_only(self):
        from repro.core import callstack as cs

        cache = {i: str(i) for i in range(10)}
        cs._evict_half(cache)
        # Dicts iterate in insertion order, so "oldest half" is the first
        # half; the newest (hottest-by-recency-of-insertion) half survives.
        assert cache == {i: str(i) for i in range(5, 10)}

    def test_crossing_limit_keeps_the_working_set_warm(self):
        from repro.core import callstack as cs

        saved = dict(cs._capture_cache)
        cs._capture_cache.clear()
        try:
            for i in range(cs._CAPTURE_CACHE_LIMIT):
                cs._capture_cache[("synthetic", i)] = EMPTY_STACK

            def site():
                return CallStack.capture_cached(skip=0, limit=4)

            # Two captures from the one call site (the memo key includes
            # the caller's instruction offset, so the calls must share a
            # source position): the first overflows and inserts, the
            # second must hit the surviving entry.
            captures = [site() for _ in range(2)]
            assert captures[1] is captures[0]
            # The overflow evicted only the oldest half and then admitted
            # the new entry; the newest synthetic entries are still warm.
            assert len(cs._capture_cache) == cs._CAPTURE_CACHE_LIMIT // 2 + 1
            newest = ("synthetic", cs._CAPTURE_CACHE_LIMIT - 1)
            oldest = ("synthetic", 0)
            assert newest in cs._capture_cache
            assert oldest not in cs._capture_cache
        finally:
            cs._capture_cache.clear()
            cs._capture_cache.update(saved)
