"""The persistent deadlock history.

The history is the program's acquired "immune memory": the set of
signatures of every deadlock and induced-starvation pattern ever observed.
It is loaded at startup, consulted (read-only) by the avoidance code on
every lock request, and mutated only by the monitor thread, which also
persists it to disk (paper sections 3 and 5.4).

Signatures can also be distributed proactively — a vendor can ship
signatures for known deadlocks — which is supported here through
:meth:`History.merge` and the import/export helpers.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Set

from .errors import HistoryError, HistoryFormatError, SignatureError
from .signature import Signature
from ..util.filelock import locked_file

#: Current on-disk format.  Version 2 added the per-stack acquisition
#: ``modes`` introduced by the multi-holder resource model (semaphores,
#: rwlocks); version 1 files — no ``modes`` key — load as all-exclusive
#: and keep their fingerprints, so old histories still match.
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


class History:
    """An in-memory signature store with optional JSON persistence."""

    def __init__(self, path: Optional[str] = None, autosave: bool = True):
        self._path = path
        self._autosave = autosave and path is not None
        self._signatures: Dict[str, Signature] = {}
        self._lock = threading.RLock()
        #: Fingerprints explicitly removed in this process.  Merge-on-save
        #: and merge-on-load skip them, so a concurrent writer of the same
        #: file cannot resurrect a signature the user deleted here.
        self._removed: Set[str] = set()
        #: (path, mtime_ns, size) of our own last write; when the backing
        #: file still matches, merge-on-save skips re-parsing it.
        self._written_stamp: Optional[tuple] = None
        #: Observers notified of every mutation kind (add/remove/enable/
        #: disable/depth/clear); the incremental signature index maintains itself
        #: through these hooks instead of rescanning the history.
        self._observers: List = []
        #: Bumped on every mutation; kept as a cheap staleness oracle for
        #: diagnostics and external tooling.
        self._version = 0
        if path is not None and os.path.exists(path):
            self.load(path)

    @property
    def version(self) -> int:
        """Monotonic counter incremented on every mutation."""
        return self._version

    def _bump_version(self) -> None:
        self._version += 1

    # -- basic container behaviour ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._signatures)

    def __iter__(self) -> Iterator[Signature]:
        return iter(list(self._signatures.values()))

    def __contains__(self, signature: Signature) -> bool:
        return signature.fingerprint in self._signatures

    @property
    def path(self) -> Optional[str]:
        """Path of the backing file, if any."""
        return self._path

    def get(self, fingerprint: str) -> Optional[Signature]:
        """Return the signature with the given fingerprint, or ``None``."""
        return self._signatures.get(fingerprint)

    def signatures(self) -> List[Signature]:
        """A snapshot list of all signatures (enabled and disabled)."""
        return list(self._signatures.values())

    def enabled_signatures(self) -> List[Signature]:
        """A snapshot list of the signatures the avoidance code should match."""
        return [sig for sig in self._signatures.values() if sig.enabled]

    # -- mutation (monitor-side) -----------------------------------------------------------

    def add(self, signature: Signature) -> bool:
        """Add ``signature`` unless an equal one is already present.

        Returns ``True`` when the signature was new.  When it is a
        duplicate, the existing signature's occurrence counter is bumped
        instead — the history never stores duplicates (section 5.3).
        """
        with self._lock:
            existing = self._signatures.get(signature.fingerprint)
            if existing is not None:
                existing.record_occurrence()
                if self._autosave:
                    self.save()
                return False
            self._signatures[signature.fingerprint] = signature
            self._removed.discard(signature.fingerprint)
            self._bump_version()
            if self._autosave:
                self.save()
        self._notify("on_signature_added", signature)
        return True

    def remove(self, fingerprint: str) -> bool:
        """Delete a signature; returns ``True`` if it existed."""
        with self._lock:
            signature = self._signatures.pop(fingerprint, None)
            removed = signature is not None
            if removed:
                self._removed.add(fingerprint)
                self._bump_version()
            if removed and self._autosave:
                self.save()
        if removed:
            self._notify("on_signature_removed", signature)
        return removed

    def disable(self, fingerprint: str) -> bool:
        """Disable a signature so it is never avoided again (section 5.7)."""
        with self._lock:
            signature = self._signatures.get(fingerprint)
            if signature is None:
                return False
            signature.disabled = True
            self._bump_version()
            if self._autosave:
                self.save()
        self._notify("on_signature_disabled", signature)
        return True

    def enable(self, fingerprint: str) -> bool:
        """Re-enable a previously disabled signature."""
        with self._lock:
            signature = self._signatures.get(fingerprint)
            if signature is None:
                return False
            signature.disabled = False
            self._bump_version()
            if self._autosave:
                self.save()
        self._notify("on_signature_enabled", signature)
        return True

    def set_depth(self, fingerprint: str, depth: int) -> bool:
        """Set a signature's matching depth (section 5.5), saved by the next save; True if changed."""
        with self._lock:
            signature = self._signatures.get(fingerprint)
            if signature is None or signature.matching_depth == depth:
                return False
            signature._matching_depth = depth
            self._bump_version()
        self._notify("on_depth_changed", signature)
        return True

    def clear(self) -> None:
        """Remove every signature (used between experiment trials).

        Clearing is an explicit wipe: the autosave that follows does *not*
        merge concurrent additions back from disk — the backing file is
        rewritten empty.
        """
        with self._lock:
            self._signatures.clear()
            self._removed.clear()
            self._bump_version()
            if self._autosave:
                self.save(merge_on_disk=False)
        self._notify("on_history_cleared")

    def merge(self, other: Iterable[Signature]) -> int:
        """Import signatures from another history or an export file.

        Returns the number of signatures that were new.  This supports the
        paper's "signature distribution" use case: immunizing users who
        have not yet encountered a deadlock.

        Autosave is batched: one save at the end instead of one per added
        signature, so installing K pooled signatures into a file-backed
        history costs one disk write, not K re-reads and rewrites.
        """
        added = 0
        with self._lock:
            autosave = self._autosave
            self._autosave = False
            version_before = self._version
        try:
            for signature in other:
                if self.add(signature):
                    added += 1
        finally:
            with self._lock:
                self._autosave = autosave
        if autosave and self._version != version_before:
            # Version check rather than `added`: a concurrent mutation on
            # another thread during the suspended-autosave window must not
            # lose its save either.
            self.save()
        return added

    # -- observers (incremental index maintenance) -----------------------------------------

    def add_observer(self, observer) -> None:
        """Register a mutation observer.

        An observer may implement any of ``on_signature_added``,
        ``on_signature_removed``, ``on_signature_enabled``,
        ``on_signature_disabled``, ``on_depth_changed`` and
        ``on_history_cleared``; missing hooks are simply skipped.
        Notifications are dispatched outside the history's internal lock.

        Observers are held through weak references: a history routinely
        outlives the engines attached to it (experiment harnesses create
        one engine per trial against a shared history), and strong
        references would keep every dead engine's index alive and
        receiving notifications forever.  Callers must therefore keep
        their observer strongly referenced for as long as they need it.
        """
        self._observers.append(weakref.ref(observer))

    def remove_observer(self, observer) -> None:
        """Unregister a previously added observer (no-op when absent)."""
        self._observers = [ref for ref in self._observers
                           if ref() is not None and ref() is not observer]

    def _notify(self, hook: str, *args) -> None:
        dead = False
        for ref in list(self._observers):
            observer = ref()
            if observer is None:
                dead = True
                continue
            callback = getattr(observer, hook, None)
            if callback is not None:
                callback(*args)
        if dead:
            self._observers = [ref for ref in self._observers
                               if ref() is not None]

    # -- persistence ----------------------------------------------------------------------------

    def save(self, path: Optional[str] = None,
             merge_on_disk: bool = True) -> Optional[str]:
        """Write the history to ``path`` (or the configured path) atomically.

        Saving is *merge-then-replace*: under a cross-process advisory
        lock, signatures another process wrote to the file since our last
        read are first merged into memory (minus the ones explicitly
        removed here), then the union is written to a temporary file and
        atomically renamed over the target.  Two processes autosaving the
        same path therefore never truncate each other's signatures —
        the file converges to the union of what both learned.  Pass
        ``merge_on_disk=False`` for an explicit overwrite (used by
        :meth:`clear`).
        """
        target = path or self._path
        if target is None:
            return None
        directory = os.path.dirname(os.path.abspath(target)) or "."
        try:
            # Lock order is always History._lock -> flock: mutators call
            # save() while holding self._lock (RLock, so re-entry below is
            # fine), and a direct save() taking the flock first while a
            # mutator holds self._lock would be a classic ABBA deadlock
            # with _merge_from_disk's own need for self._lock.
            with self._lock:
                with locked_file(target, exclusive=True):
                    if merge_on_disk and not self._disk_unchanged(target):
                        self._merge_from_disk(target)
                    payload = self.to_dict()
                    fd, temp_name = tempfile.mkstemp(
                        prefix=".dimmunix-history-", dir=directory)
                    with os.fdopen(fd, "w", encoding="utf-8") as handle:
                        json.dump(payload, handle, indent=2, sort_keys=True)
                    os.replace(temp_name, target)
                    self._stamp_disk(target)
        except OSError as exc:
            raise HistoryError(f"cannot save history to {target}: {exc}") from exc
        return target

    def _stamp_disk(self, target: str) -> None:
        """Remember the file identity this process last wrote."""
        try:
            stat = os.stat(target)
            self._written_stamp = (target, stat.st_mtime_ns, stat.st_size)
        except OSError:
            self._written_stamp = None

    def _disk_unchanged(self, target: str) -> bool:
        """True when the file still matches our own last write.

        In the common single-writer case this skips re-parsing the whole
        file on every autosave; any concurrent writer changes mtime/size
        and forces a real merge.
        """
        stamp = self._written_stamp
        if stamp is None or stamp[0] != target:
            return False
        try:
            stat = os.stat(target)
        except OSError:
            return False
        return (stat.st_mtime_ns, stat.st_size) == stamp[1:]

    def _merge_from_disk(self, target: str) -> None:
        """Fold signatures a concurrent writer saved to ``target`` into memory.

        Unreadable or corrupt content is ignored: the save that follows
        rewrites the file with this process's (valid) state, which is the
        best available repair.
        """
        try:
            with open(target, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return
        try:
            self._merge_payload(payload)
        except HistoryFormatError:
            return

    def load(self, path: Optional[str] = None) -> int:
        """Load (and merge) signatures from ``path``; returns the new total count."""
        source = path or self._path
        if source is None:
            raise HistoryError("no history path configured")
        try:
            with open(source, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return len(self._signatures)
        except OSError as exc:
            raise HistoryError(f"cannot read history from {source}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise HistoryFormatError(f"history file {source} is not valid JSON: {exc}") from exc
        self._merge_payload(payload)
        return len(self._signatures)

    def reload(self) -> int:
        """Re-read the backing file, merging any signatures added externally.

        This supports the "patch by inserting a signature and asking
        Dimmunix to reload the history" use case of section 8 — the target
        program does not need to be restarted.
        """
        return self.load()

    def to_dict(self) -> Dict:
        """Serialize to a JSON-friendly dictionary."""
        with self._lock:
            return {
                "format_version": _FORMAT_VERSION,
                "signatures": [sig.to_dict() for sig in self._signatures.values()],
            }

    def _merge_payload(self, payload: Dict) -> None:
        if not isinstance(payload, dict) or "signatures" not in payload:
            raise HistoryFormatError("history payload lacks a 'signatures' list")
        version = payload.get("format_version", _FORMAT_VERSION)
        if version not in _SUPPORTED_VERSIONS:
            raise HistoryFormatError(f"unsupported history format version {version}")
        records = payload["signatures"]
        if not isinstance(records, list):
            raise HistoryFormatError("'signatures' must be a list")
        merged = []
        with self._lock:
            for index, record in enumerate(records):
                try:
                    signature = Signature.from_dict(record)
                except SignatureError as exc:
                    # Surface malformed / future-kind records as a format
                    # problem with their position, instead of leaking a raw
                    # SignatureError to tools like histctl.
                    raise HistoryFormatError(
                        f"signature record {index} is not loadable: {exc}"
                    ) from exc
                if (signature.fingerprint not in self._signatures
                        and signature.fingerprint not in self._removed):
                    self._signatures[signature.fingerprint] = signature
                    self._bump_version()
                    merged.append(signature)
        for signature in merged:
            self._notify("on_signature_added", signature)

    # -- import/export helpers (signature distribution) ----------------------------------------

    def export_signatures(self, path: str,
                          fingerprints: Optional[Iterable[str]] = None) -> int:
        """Write selected signatures (default: all) to a standalone file."""
        with self._lock:
            if fingerprints is None:
                selected = list(self._signatures.values())
            else:
                selected = [self._signatures[fp] for fp in fingerprints
                            if fp in self._signatures]
        payload = {
            "format_version": _FORMAT_VERSION,
            "signatures": [sig.to_dict() for sig in selected],
        }
        try:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
        except OSError as exc:
            raise HistoryError(f"cannot export signatures to {path}: {exc}") from exc
        return len(selected)

    @classmethod
    def import_signatures(cls, path: str) -> List[Signature]:
        """Read signatures from an export file without attaching to it."""
        temp = cls(path=None, autosave=False)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise HistoryError(f"cannot import signatures from {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise HistoryFormatError(f"{path} is not valid JSON: {exc}") from exc
        temp._merge_payload(payload)
        return temp.signatures()

    def disk_footprint(self) -> int:
        """Size in bytes of the serialized history (for the §7.4 experiment)."""
        return len(json.dumps(self.to_dict()))
