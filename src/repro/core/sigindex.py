"""Incremental suffix-keyed signature index (the paper's section 5.6 tables).

Signatures are indexed by the depth-d suffix of each of their stacks so a
request only examines signatures that its own stack could possibly cover.
Earlier versions of the engine rebuilt this index from scratch whenever the
history changed and scanned the whole history on *every* request to detect
depth recalibrations — an O(history) cost on the hot path.  This module
replaces both with an index that maintains itself incrementally:

* :class:`~repro.core.history.History` notifies the index through its
  observer hooks when signatures are added, removed, enabled, disabled, or
  the history is cleared;
* the :class:`~repro.core.calibration.Calibrator` notifies it through a
  depth listener whenever it changes a signature's matching depth.

Reads are lock-free: mutations build fresh bucket dictionaries and publish
them with a single reference assignment (copy-on-write), so the request
path never takes a lock and never observes a partially updated index.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from .callstack import CallStack
from .signature import Signature

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .history import History

#: depth -> stack-suffix key -> signatures whose stacks carry that suffix.
Buckets = Dict[int, Dict[Tuple, Tuple[Signature, ...]]]


def _stack_depth(sig_stack: CallStack, depth: int) -> int:
    """The bucket depth a signature stack is indexed under.

    Single-frame stacks — the shape of a degraded lazy capture, which
    :meth:`~repro.core.callstack.CallStack.matches` lets match any stack
    sharing their innermost frame — go into the depth-1 bucket so a deep
    request's ``frames[:depth]`` probe can still reach them.  Everything
    else is indexed under the signature's matching depth, where the probe
    key and the bucket key agree exactly.
    """
    return 1 if len(sig_stack.frames) == 1 else depth


class SignatureIndex:
    """Read-mostly suffix index over the enabled signatures of a history.

    **Publication contract** (audited for free-threaded builds; see
    ``docs/architecture.md``, "The memory model").  Writers mutate under
    ``_mutex`` and publish copy-on-write: ``sites`` and ``_buckets``
    are each replaced wholesale with immutable/never-again-mutated
    objects, never edited in place after publication.  Readers
    (:meth:`candidates`) are lock-free and read *filter first, buckets
    second*; writers order their stores so every interleaving errs toward
    a **false negative** (a just-added signature briefly not matched —
    benign, the monitor's detection safety net still catches the
    deadlock), never a false positive and never a torn structure:

    * :meth:`_insert` publishes the grown filter *before* the grown
      buckets — a reader passing the new filter may still see old buckets
      and miss, but a reader can never probe a bucket key whose top frame
      its filter already rejected;
    * :meth:`_remove` publishes the shrunk buckets *before* the shrunk
      filter — a reader passing the stale filter finds no bucket entry
      and misses, never the reverse.
    """

    def __init__(self, history: Optional["History"] = None):
        self._mutex = threading.Lock()
        self._buckets: Buckets = {}
        #: Miss fast path (the paper's 99.99% case): the call sites a
        #: signature names — the innermost frame of every bucket key
        #: (``None`` for an empty stack), published copy-on-write.  A
        #: request elsewhere cannot hit any bucket at any depth (a suffix key
        #: shares its innermost frame with the stacks it matches), so
        #: ``stack.top() in sites`` is the whole test.  The engine also hands
        #: this object to its cache, which keeps Allowed sets at these sites
        #: only, and notices a republication by identity.
        self.sites: frozenset = frozenset()
        #: Refcounts behind the filter: innermost frame -> number of bucket
        #: keys starting with it (mutated only under ``_mutex``).
        self._top_counts: Dict[object, int] = {}
        #: fingerprint -> signature, for enabled indexed signatures.
        self._entries: Dict[str, Signature] = {}
        #: fingerprint -> depth the signature is currently indexed under.
        self._depths: Dict[str, int] = {}
        #: Diagnostics: incremental updates vs from-scratch rebuilds.  The
        #: hot-path regression test asserts ``full_rebuilds`` stays at its
        #: post-construction value while requests are served.
        self.updates = 0
        self.full_rebuilds = 0
        self._history = history
        if history is not None:
            history.add_observer(self)
            self.rebuild()

    # -- read path (lock-free) ---------------------------------------------------------

    def candidates(self, stack: CallStack) -> List[Signature]:
        """Enabled signatures one of whose stacks ``stack`` could cover.

        Deduplicated; ordering follows bucket iteration order.  Lock-free:
        reads one published snapshot of the top-frame filter and one of the
        buckets.  A call site absent from the filter — the common case in
        production — returns immediately without touching the buckets.

        The filter is probed with ``stack.top()`` *before* ``stack.frames``
        is read: a :class:`~repro.core.callstack.LazyCallStack` answers
        ``top()`` from its captured frame without materializing, so the
        miss path never pays the deep stack walk.  Only a filter hit — the
        paper's rare case — forces the full frame tuple into existence.
        """
        if stack.top() not in self.sites:
            return []
        frames = stack.frames
        found: List[Signature] = []
        seen = set()
        for depth, bucket in self._buckets.items():
            entries = bucket.get(frames[:depth])
            if not entries:
                continue
            for signature in entries:
                if signature.fingerprint not in seen:
                    seen.add(signature.fingerprint)
                    found.append(signature)
        return found

    def __len__(self) -> int:
        return len(self._entries)

    def indexed_depth_of(self, fingerprint: str) -> Optional[int]:
        """The depth a signature is currently indexed under, or ``None``."""
        return self._depths.get(fingerprint)

    def keys_of(self, fingerprint: str) -> List[Tuple[int, Tuple]]:
        """The (depth, suffix-key) pairs under which a signature is indexed."""
        result = []
        buckets = self._buckets
        for depth, bucket in buckets.items():
            for key, entries in bucket.items():
                if any(sig.fingerprint == fingerprint for sig in entries):
                    result.append((depth, key))
        return result

    # -- incremental mutation ------------------------------------------------------------

    def add(self, signature: Signature) -> None:
        """Index an enabled signature (no-op for disabled ones)."""
        if signature.disabled:
            return
        with self._mutex:
            self._insert(signature)
            self.updates += 1

    def discard(self, signature: Signature) -> None:
        """Remove a signature from the index (no-op when absent)."""
        with self._mutex:
            self._remove(signature.fingerprint)
            self.updates += 1

    def refresh(self, signature: Signature) -> None:
        """Re-index a signature after its matching depth (or status) changed.

        This is the calibrator's depth-listener hook: only the affected
        signature's bucket entries move; every other entry is untouched.
        """
        with self._mutex:
            fingerprint = signature.fingerprint
            known = fingerprint in self._entries
            if not known:
                return
            if self._depths.get(fingerprint) == signature.matching_depth \
                    and not signature.disabled:
                return
            self._remove(fingerprint)
            if not signature.disabled:
                self._insert(signature)
            self.updates += 1

    def rebuild(self) -> None:
        """Rebuild from scratch out of the attached history (startup path)."""
        if self._history is None:
            return
        with self._mutex:
            buckets: Buckets = {}
            entries: Dict[str, Signature] = {}
            depths: Dict[str, int] = {}
            top_counts: Dict[object, int] = {}
            for signature in self._history.enabled_signatures():
                depth = signature.matching_depth
                entries[signature.fingerprint] = signature
                depths[signature.fingerprint] = depth
                for sig_stack in signature.stacks:
                    stack_depth = _stack_depth(sig_stack, depth)
                    bucket = buckets.setdefault(stack_depth, {})
                    key = sig_stack.frames[:stack_depth]
                    existing = bucket.get(key, ())
                    if signature not in existing:
                        if not existing:
                            top = key[0] if key else None
                            top_counts[top] = top_counts.get(top, 0) + 1
                        bucket[key] = existing + (signature,)
            self._top_counts = top_counts
            self.sites = frozenset(top_counts)
            self._buckets = buckets
            self._entries = entries
            self._depths = depths
            self.full_rebuilds += 1

    # -- history observer hooks -----------------------------------------------------------

    def on_signature_added(self, signature: Signature) -> None:
        self.add(signature)

    def on_signature_removed(self, signature: Signature) -> None:
        self.discard(signature)

    def on_signature_enabled(self, signature: Signature) -> None:
        self.add(signature)

    def on_signature_disabled(self, signature: Signature) -> None:
        self.discard(signature)

    def on_history_cleared(self) -> None:
        with self._mutex:
            self._buckets = {}
            self._entries = {}
            self._depths = {}
            self._top_counts = {}
            self.sites = frozenset()
            self.updates += 1

    # -- internals (callers hold self._mutex) ---------------------------------------------

    def _insert(self, signature: Signature) -> None:
        depth = signature.matching_depth
        new_buckets = dict(self._buckets)
        copied: Dict[int, Dict[Tuple, Tuple[Signature, ...]]] = {}
        for sig_stack in signature.stacks:
            stack_depth = _stack_depth(sig_stack, depth)
            bucket = copied.get(stack_depth)
            if bucket is None:
                bucket = dict(new_buckets.get(stack_depth, {}))
                copied[stack_depth] = bucket
                new_buckets[stack_depth] = bucket
            key = sig_stack.frames[:stack_depth]
            existing = bucket.get(key, ())
            if signature not in existing:
                if not existing:
                    top = key[0] if key else None
                    self._top_counts[top] = self._top_counts.get(top, 0) + 1
                bucket[key] = existing + (signature,)
        # Publish the filter before the buckets: a racing reader must never
        # see a bucket key whose top frame the filter would reject.
        self.sites = frozenset(self._top_counts)
        self._buckets = new_buckets
        self._entries[signature.fingerprint] = signature
        self._depths[signature.fingerprint] = depth

    def _remove(self, fingerprint: str) -> None:
        signature = self._entries.pop(fingerprint, None)
        depth = self._depths.pop(fingerprint, None)
        if signature is None or depth is None:
            return
        new_buckets = dict(self._buckets)
        copied: Dict[int, Dict[Tuple, Tuple[Signature, ...]]] = {}
        for sig_stack in signature.stacks:
            stack_depth = _stack_depth(sig_stack, depth)
            bucket = copied.get(stack_depth)
            if bucket is None:
                bucket = dict(new_buckets.get(stack_depth, {}))
                copied[stack_depth] = bucket
            key = sig_stack.frames[:stack_depth]
            existing = bucket.get(key)
            if not existing:
                continue
            remaining = tuple(sig for sig in existing
                              if sig.fingerprint != fingerprint)
            if remaining:
                bucket[key] = remaining
            else:
                del bucket[key]
                top = key[0] if key else None
                count = self._top_counts.get(top, 0) - 1
                if count > 0:
                    self._top_counts[top] = count
                else:
                    self._top_counts.pop(top, None)
        for stack_depth, bucket in copied.items():
            if bucket:
                new_buckets[stack_depth] = bucket
            else:
                new_buckets.pop(stack_depth, None)
        # Publish the buckets before shrinking the filter: a racing reader
        # may briefly pass a stale filter and find no candidates, never the
        # reverse.
        self._buckets = new_buckets
        self.sites = frozenset(self._top_counts)

    # -- equivalence checking (tests, doctor tooling) ---------------------------------------

    def snapshot(self) -> Dict[int, Dict[Tuple, Tuple[str, ...]]]:
        """Fingerprint-level view of the buckets, for equivalence checks."""
        return {depth: {key: tuple(sig.fingerprint for sig in entries)
                        for key, entries in bucket.items()}
                for depth, bucket in self._buckets.items()}

    def filter_consistent(self) -> bool:
        """Does the top-frame filter exactly cover the current bucket keys?

        Used by tests to check the incremental refcount maintenance stays
        in lock-step with the buckets through add/remove/refresh churn.
        """
        expected: Dict[object, int] = {}
        for bucket in self._buckets.values():
            for key in bucket:
                top = key[0] if key else None
                expected[top] = expected.get(top, 0) + 1
        return (expected == self._top_counts
                and frozenset(expected) == self.sites)

    def equivalent_to_rebuild(self) -> bool:
        """Does the incremental state match a from-scratch rebuild?"""
        if self._history is None:
            return True
        fresh = SignatureIndex()
        fresh._history = self._history
        fresh.rebuild()
        mine = {depth: {key: frozenset(fps) for key, fps in bucket.items()}
                for depth, bucket in self.snapshot().items()}
        theirs = {depth: {key: frozenset(fps) for key, fps in bucket.items()}
                  for depth, bucket in fresh.snapshot().items()}
        return mine == theirs
