"""Site-keyed signature index (the paper's section 5.6 lookup).

A request instantiates a signature only through a stack of it that its
stack :meth:`~repro.core.callstack.CallStack.matches` at the signature's
depth ``d``.  So the index is one map, ``sites``: call site (innermost
frame) -> ``d`` -> the ``d`` innermost frames of a stack there -> the
:class:`Group` of its enabled signatures (a one-frame stack, which matches
on its site alone, at depth 1).  A site absent from it is the miss verdict
(the paper's 99.99% case); at a named site one probe per depth in use there
finds exactly the signatures the request matches, whatever the history's
size.  A group also knows the call sites its signatures need occupied
(:meth:`Group.admitted`), so a matched request asks the Allowed sets about
those sites, not about each signature.  A depth change reaches it through
the history (``on_depth_changed``), which re-keys that one signature.
Reads are lock-free: a writer copies each nested dict it changes and
publishes the new map with one reference assignment, under ``_mutex``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from .callstack import CallStack, Frame
from .signature import Signature

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .history import History


class Group:
    """The enabled signatures filed under one key, and the call sites each needs.

    A request found under the key stands at its ``site`` and matches no
    stack elsewhere.  An instance binds it to one stack there and another
    thread to every other stack, so a signature needs a binding at the
    site of each of its other stacks (its own site, for a second stack
    there).  The plan is built by the first match; a group is replaced,
    never changed, so ``add`` pays nothing for it.
    """

    __slots__ = ("site", "signatures", "_plan")

    def __init__(self, site: Frame, signatures: Tuple[Signature, ...]):
        self.site = site
        self.signatures = signatures
        #: (every needed site, each signature's needed sites, those needing none).
        self._plan = None

    def admitted(self, occupied: dict) -> Sequence[Signature]:
        """The signatures whose every needed site is a key of ``occupied``, in order.

        Probes the fewer of the group's needed sites and ``occupied``'s keys;
        with none occupied (the common hit case) the answer is ready-made.
        """
        needs, needed, always = self._plan or self._build()
        if len(needs) <= len(occupied):
            met = {site for site in needs if site in occupied}
        else:
            met = {site for site in list(occupied) if site in needs}
        if not met:
            return always
        return [signature for signature, sites in zip(self.signatures, needed)
                if sites <= met]

    def _build(self):
        needed = []
        for signature in self.signatures:
            sites = [sig_stack.top() for sig_stack in signature.stacks]
            sites.remove(self.site)  # the position the request takes
            needed.append(frozenset(sites))
        always = tuple(signature for signature, sites in zip(self.signatures, needed)
                       if not sites)
        self._plan = plan = (frozenset().union(*needed), tuple(needed), always)
        return plan


#: call site -> depth -> innermost frames -> the group of enabled signatures with that stack.
Sites = Dict[Frame, Dict[int, Dict[Tuple[Frame, ...], Group]]]


class SignatureIndex:
    """Read-mostly site index over the enabled signatures of a history."""

    def __init__(self, history: Optional["History"] = None):
        self._mutex = threading.Lock()
        self.sites: Sites = {}
        #: fingerprint -> signature, for enabled indexed signatures (writers only).
        self._entries: Dict[str, Signature] = {}
        #: Diagnostics: publications vs rebuilds from the history (none while serving).
        self.updates = self.full_rebuilds = 0
        self._history = history
        if history is not None:
            history.add_observer(self)
            self.rebuild()

    def lookup(self, stack: CallStack, sites: Optional[Sites] = None) -> List[Group]:
        """The groups filing a signature with a stack that ``stack`` matches at its depth.

        Looked up in ``sites`` (by default the published index), lock-free.
        At an unnamed site only ``stack.top()`` is read: a lazy capture
        stays unwalked.
        """
        entry = (self.sites if sites is None else sites).get(stack.top())
        if entry is None:
            return []
        frames = stack.frames
        if len(frames) == 1:  # a one-frame request matches every stack at its site
            return [group for by_prefix in entry.values() for group in by_prefix.values()]
        return [group for depth, by_prefix in entry.items()
                if (group := by_prefix.get(frames[:depth])) is not None]

    def candidates(self, stack: CallStack, sites: Optional[Sites] = None) -> List[Signature]:
        """The signatures of :meth:`lookup`'s groups, once each, in the index's order."""
        groups = self.lookup(stack, sites)
        if len(groups) == 1:
            return list(groups[0].signatures)  # one key holds a signature once
        return list({id(signature): signature for group in groups
                     for signature in group.signatures}.values())

    def __len__(self) -> int:
        return len(self._entries)

    # -- incremental mutation ------------------------------------------------------------

    def add(self, signature: Signature) -> None:
        """Index an enabled signature at its depth now (no-op for disabled ones)."""
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
            self._publish(self._history.enabled_signatures())
            self.full_rebuilds += 1

    on_signature_added = on_signature_enabled = on_depth_changed = add
    on_signature_removed = on_signature_disabled = discard

    def on_history_cleared(self) -> None:
        with self._mutex:
            self._publish([])

    # -- internals (callers hold self._mutex) ---------------------------------------------

    def _publish(self, signatures: List[Signature]) -> None:
        """Key ``signatures`` afresh at their depths now and publish them."""
        sites: Sites = {}
        for signature in signatures:
            self._insert(sites, signature)
        self._entries = {signature.fingerprint: signature for signature in signatures}
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
            group = by_prefix.get(prefix)
            by_prefix[prefix] = Group(site, (group.signatures if group else ()) + (signature,))

    def _without(self, fingerprint: str) -> Sites:
        """An unpublished copy of ``sites`` without ``fingerprint``, which leaves ``_entries``."""
        sites = dict(self.sites)
        signature = self._entries.pop(fingerprint, None)
        for site in {sig_stack.top() for sig_stack in signature.stacks} if signature else ():
            entry = {}  # searched at every depth: its own may have changed since
            for depth, by_prefix in sites.pop(site).items():
                kept = {}
                for prefix, group in by_prefix.items():
                    rest = tuple(sig for sig in group.signatures if sig is not signature)
                    if len(rest) == len(group.signatures):
                        kept[prefix] = group  # unchanged, and so is its plan
                    elif rest:
                        kept[prefix] = Group(site, rest)
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
                    for prefix, group in by_prefix.items() for signature in group.signatures}
        return self._history is None or keys(self.sites) == keys(fresh.sites)
