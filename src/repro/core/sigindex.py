"""Site-keyed signature index (the paper's section 5.6 lookup).

A request instantiates a signature only through a stack of it that its
stack :meth:`~repro.core.callstack.CallStack.matches` at the signature's
depth ``d``.  So the index is one map, ``sites``: call site (innermost
frame) -> ``d`` -> the ``d`` innermost frames of a stack there -> its
enabled signatures (a one-frame stack, which matches on its site alone, at
depth 1).  A site absent from it is the miss verdict (the paper's 99.99%
case); at a named site one probe per depth in use there finds exactly the
signatures the request matches, whatever the history's size.  Every depth
change is counted (``Signature.depth_changes``): the next lookup at a named
site re-keys the whole index, with no call from the calibrator into it.
Reads are lock-free: a writer copies each nested dict it changes and
publishes the new map with one reference assignment, under ``_mutex``.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from .callstack import CallStack, Frame
from .signature import Signature

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .history import History

#: call site -> depth -> innermost frames -> enabled signatures with that stack.
Sites = Dict[Frame, Dict[int, Dict[Tuple[Frame, ...], Tuple[Signature, ...]]]]


class SignatureIndex:
    """Read-mostly site index over the enabled signatures of a history."""

    def __init__(self, history: Optional["History"] = None):
        self._mutex = threading.Lock()
        self.sites: Sites = {}
        #: fingerprint -> signature, for enabled indexed signatures (writers only).
        self._entries: Dict[str, Signature] = {}
        #: ``Signature.depth_changes`` when every stack was last keyed.
        self._keyed_at = Signature.depth_changes
        #: Diagnostics: publications vs rebuilds from the history (none while serving).
        self.updates = self.full_rebuilds = 0
        self._history = history
        if history is not None:
            history.add_observer(self)
            self.rebuild()

    def candidates(self, stack: CallStack, sites: Optional[Sites] = None) -> List[Signature]:
        """Enabled signatures with a stack that ``stack`` matches at their depth, once each.

        Looked up in ``sites`` (by default the published index), lock-free
        but for a re-key after a depth change.  At an unnamed site
        only ``stack.top()`` is read: a lazy capture stays unwalked.
        """
        entry = (self.sites if sites is None else sites).get(stack.top())
        if entry is None:
            return []
        if self._keyed_at != Signature.depth_changes:
            with self._mutex:
                self._publish(self._entries.values(), self._entries)
            entry = self.sites.get(stack.top(), {})
        frames = stack.frames
        if len(frames) == 1:  # a one-frame request matches every stack at its site
            hits = [found for by_prefix in entry.values() for found in by_prefix.values()]
        else:
            hits = [found for depth, by_prefix in entry.items()
                    if (found := by_prefix.get(frames[:depth]))]
        if len(hits) == 1:
            return list(hits[0])  # one key holds a signature once
        return list({id(signature): signature for found in hits for signature in found}.values())

    def __len__(self) -> int:
        return len(self._entries)

    # -- incremental mutation ------------------------------------------------------------

    def add(self, signature: Signature) -> None:
        """Index an enabled signature (no-op for disabled ones)."""
        if signature.disabled:
            return
        with self._mutex:
            sites = self._without(signature.fingerprint)
            self._insert(sites, signature)
            self._entries[signature.fingerprint] = signature
            self.sites = sites
            self.updates += 1

    def discard(self, signature: Signature) -> None:
        """Remove a signature from the index (no-op when absent)."""
        with self._mutex:
            if signature.fingerprint in self._entries:
                self.sites = self._without(signature.fingerprint)
            self.updates += 1

    def rebuild(self) -> None:
        """Rebuild from scratch out of the attached history (startup path)."""
        if self._history is None:
            return
        with self._mutex:
            signatures = self._history.enabled_signatures()
            self._publish(signatures, {sig.fingerprint: sig for sig in signatures})
            self.full_rebuilds += 1

    on_signature_added = on_signature_enabled = add
    on_signature_removed = on_signature_disabled = discard

    def on_history_cleared(self) -> None:
        with self._mutex:
            self._publish((), {})

    # -- internals (callers hold self._mutex) ---------------------------------------------

    def _publish(self, signatures: Iterable[Signature], entries: Dict[str, Signature]) -> None:
        """Key ``signatures`` afresh at their depths now and publish them."""
        self._keyed_at = Signature.depth_changes  # read before any depth is
        sites: Sites = {}
        for signature in list(signatures):
            self._insert(sites, signature)
        self._entries = entries
        self.sites = sites
        self.updates += 1

    @staticmethod
    def _insert(sites: Sites, signature: Signature) -> None:
        keys = {}
        for sig_stack in signature.stacks:
            depth = 1 if len(sig_stack) == 1 else signature.matching_depth
            keys[sig_stack.top(), depth, sig_stack.frames[:depth]] = None
        for site, depth, prefix in keys:
            entry = sites[site] = dict(sites.get(site, {}))
            by_prefix = entry[depth] = dict(entry.get(depth, {}))
            by_prefix[prefix] = by_prefix.get(prefix, ()) + (signature,)

    def _without(self, fingerprint: str) -> Sites:
        """An unpublished copy of ``sites`` without ``fingerprint``, which leaves ``_entries``."""
        sites = dict(self.sites)
        signature = self._entries.pop(fingerprint, None)
        for site in {sig_stack.top() for sig_stack in signature.stacks} if signature else ():
            entry = {}  # searched at every depth: its own may have changed since
            for depth, by_prefix in sites.pop(site).items():
                kept = {prefix: rest for prefix, found in by_prefix.items()
                        if (rest := tuple(sig for sig in found if sig is not signature))}
                if kept:
                    entry[depth] = kept
            if entry:
                sites[site] = entry
        return sites

    def equivalent_to_rebuild(self) -> bool:
        """Does the incremental state match a from-scratch rebuild?"""
        fresh = SignatureIndex(None)
        fresh._history = self._history
        fresh.rebuild()
        def keys(sites: Sites) -> set:
            return {(site, depth, prefix, signature.fingerprint)
                    for site, entry in sites.items() for depth, by_prefix in entry.items()
                    for prefix, found in by_prefix.items() for signature in found}
        return self._history is None or keys(self.sites) == keys(fresh.sites)
