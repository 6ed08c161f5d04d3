"""The persistent deadlock history.

The history is the program's acquired "immune memory": the set of
signatures of every deadlock and induced-starvation pattern ever observed.
It is loaded at startup, consulted (read-only) by the avoidance code on
every lock request, and mutated only by the monitor thread, which also
persists it to disk (paper sections 3 and 5.4).

Signatures can also be distributed proactively — a vendor can ship
signatures for known deadlocks — which is supported here through
:meth:`History.merge` and the import/export helpers.

It is one replica of the signature set :mod:`repro.core.replica` merges:
a disable, enable or removal is a stamped control, and what another
replica holds (a file, a pool's delta) comes in by :meth:`History.join`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import socket
import tempfile
import threading
import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import HistoryError, HistoryFormatError, SignatureError
from .replica import Control, PoolState
from .signature import Signature
from ..util.filelock import locked_file

#: On-disk formats.  Version 2 added the per-stack acquisition ``modes``
#: introduced by the multi-holder resource model (semaphores, rwlocks);
#: version 1 files — no ``modes`` key — load as all-exclusive and keep
#: their fingerprints, so old histories still match.  Version 3 adds the
#: standing ``controls``; a document without any is written as version 2.
_SUPPORTED_VERSIONS = (1, 2, 3)

#: Numbers the histories of one process, so no two stamp one origin.
_HISTORIES = itertools.count()


def _identity(path: str) -> Optional[tuple]:
    """``(path, mtime_ns, size)`` of the file at ``path``; None when there is none."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return path, stat.st_mtime_ns, stat.st_size


def _payload(signatures: Iterable[Signature], controls=()) -> Dict:
    """A history document: version 3 when it carries controls, else version 2."""
    payload = {"format_version": 2,
               "signatures": [signature.to_dict() for signature in signatures]}
    if controls:
        payload.update(format_version=3,
                       controls=[control.to_dict() for control in controls])
    return payload


def _read(path: str) -> Tuple[List[Signature], list]:
    """The signatures and raw controls of the history document at ``path``.

    Raises ``FileNotFoundError`` as itself, :class:`HistoryError` for a
    file that cannot be read, and :class:`HistoryFormatError` for one that
    holds no history document or a record no :class:`Signature` reads.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise HistoryError(f"cannot read history from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise HistoryFormatError(f"history file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "signatures" not in payload:
        raise HistoryFormatError("history payload lacks a 'signatures' list")
    version = payload.get("format_version", 2)
    if version not in _SUPPORTED_VERSIONS:
        raise HistoryFormatError(f"unsupported history format version {version}")
    records = payload["signatures"]
    if not isinstance(records, list):
        raise HistoryFormatError("'signatures' must be a list")
    signatures = []
    for index, record in enumerate(records):
        try:
            signatures.append(Signature.from_dict(record))
        except SignatureError as exc:
            # Surface malformed / future-kind records as a format problem
            # with their position, instead of leaking a raw SignatureError
            # to tools like histctl.
            raise HistoryFormatError(
                f"signature record {index} is not loadable: {exc}") from exc
    return signatures, payload.get("controls", [])


class History:
    """An in-memory signature store with optional JSON persistence."""

    def __init__(self, path: Optional[str] = None, autosave: bool = True):
        self._path = path
        self._autosave = autosave and path is not None
        self._signatures: Dict[str, Signature] = {}
        self._lock = threading.RLock()
        #: The standing control per fingerprint (its records are
        #: ``_signatures``), and the origin this history stamps its own
        #: with, named at its first stamp.
        self._state = PoolState()
        self._origin: Optional[str] = None
        #: :func:`_identity` of our own last write; while the backing file
        #: still matches it (the single-writer case), a save skips the join.
        self._written_stamp: Optional[tuple] = None
        #: Observers notified of every mutation kind (add/remove/enable/
        #: disable/depth/clear); the incremental signature index maintains itself
        #: through these hooks instead of rescanning the history.
        self._observers: List = []
        if path is not None and os.path.exists(path):
            self.load(path)

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

    def control(self, fingerprint: str) -> Optional[Control]:
        """The standing control for ``fingerprint``, or ``None``."""
        return self._state.controls.get(fingerprint)

    def controls(self) -> List[Control]:
        """A snapshot list of the standing controls."""
        with self._lock:
            return list(self._state.controls.values())

    # -- mutation (monitor-side) -----------------------------------------------------------

    def add(self, signature: Signature) -> bool:
        """Add ``signature`` unless an equal one is already present.

        Returns ``True`` when the signature was new.  When it is a
        duplicate, the existing signature's occurrence counter is bumped
        instead — the history never stores duplicates (section 5.3).  One
        learned again after its removal stamps an ``enable``, which undoes
        the removal on every replica.
        """
        with self._edit():
            added = self._add(signature)
        if added:
            self._notify("on_signature_added", signature)
        return added

    def _add(self, signature: Signature) -> bool:
        """:meth:`add` under the held lock, without its autosave and notification."""
        fingerprint = signature.fingerprint
        existing = self._signatures.get(fingerprint)
        if existing is not None:
            existing.record_occurrence()
            return False
        if self._state.hidden(fingerprint):
            self._stamp("enable", fingerprint)
        self._hold(signature)
        return True

    def _hold(self, signature: Signature) -> None:
        """Hold a new signature, flagged by its fingerprint's standing control if any."""
        control = self._state.controls.get(signature.fingerprint)
        if control is not None:
            signature.disabled = control.action == "disable"
        self._signatures[signature.fingerprint] = signature

    def remove(self, fingerprint: str) -> bool:
        """Delete a signature; returns ``True`` if it existed."""
        return self._control("remove", fingerprint)

    def disable(self, fingerprint: str) -> bool:
        """Disable a signature so it is never avoided again (section 5.7)."""
        return self._control("disable", fingerprint)

    def enable(self, fingerprint: str) -> bool:
        """Re-enable a previously disabled signature."""
        return self._control("enable", fingerprint)

    def _stamp(self, action: str, fingerprint: str) -> Control:
        """A local control, one tick above every clock this history has seen."""
        if self._origin is None:
            self._origin = f"{socket.gethostname()}:{os.getpid()}:{next(_HISTORIES)}"
        control = Control(self._state.clock + 1, self._origin, action, fingerprint)
        self._state.merge_control(control)
        return control

    def _control(self, action: str, fingerprint: str) -> bool:
        """Stamp ``action`` on a held signature and apply it; False when not held."""
        with self._edit():
            if fingerprint not in self._signatures:
                return False
            signature = self._apply(self._stamp(action, fingerprint))
        self._notify(f"on_signature_{action}d", signature)
        return True

    def _apply(self, control: Control) -> Optional[Signature]:
        """Apply a standing control to its held signature (returned), if any."""
        if control.action == "remove":
            return self._signatures.pop(control.fingerprint, None)
        signature = self._signatures.get(control.fingerprint)
        if signature is not None:
            signature.disabled = control.action == "disable"
        return signature

    def set_depth(self, fingerprint: str, depth: int) -> bool:
        """Set a signature's matching depth (section 5.5), saved by the next save; True if changed."""
        with self._lock:
            signature = self._signatures.get(fingerprint)
            if signature is None or signature.matching_depth == depth:
                return False
            signature._matching_depth = depth
        self._notify("on_depth_changed", signature)
        return True

    def clear(self) -> None:
        """Remove every signature (used between experiment trials).

        Clearing is an explicit wipe of the signatures and their controls:
        the autosave that follows does *not* merge concurrent additions back
        from disk — the backing file is rewritten empty.
        """
        with self._lock:
            self._signatures.clear()
            self._state.controls.clear()
            if self._autosave:
                self.save(merge_on_disk=False)
        self._notify("on_history_cleared")

    def merge(self, other: Iterable[Signature]) -> int:
        """Import signatures from another history or an export file.

        Returns the number of signatures that were new.  This supports the
        paper's "signature distribution" use case: immunizing users who
        have not yet encountered a deadlock.  The import is one edit: one
        disk write for K signatures.
        """
        with self._edit():
            added = [signature for signature in other if self._add(signature)]
        for signature in added:
            self._notify("on_signature_added", signature)
        return len(added)

    def join(self, signatures: Iterable[Signature] = (), controls=()
             ) -> Tuple[int, int]:
        """Join what another replica holds; returns (signatures added, controls won).

        The raw ``controls`` join first (a malformed one is refused, never
        raised), then each signature under the controls that stand: a
        removed one is not added, a standing disable or enable sets the
        flag of a new or held one, a standing remove drops a held one.  A
        held signature keeps its body.  What changed autosaves.
        """
        added, won = self._join(signatures, controls)
        if (added or won) and self._autosave:
            self.save()
        return added, won

    def _join(self, signatures: Iterable[Signature], controls) -> Tuple[int, int]:
        """:meth:`join` without the autosave (load and the merge inside save)."""
        changed = []
        with self._lock:
            _, won = self._state.absorb(controls=controls)
            for control in won:
                signature = self._apply(control)
                if signature is not None:
                    changed.append((f"on_signature_{control.action}d", signature))
            added = 0
            for signature in signatures:
                fingerprint = signature.fingerprint
                if fingerprint in self._signatures or self._state.hidden(fingerprint):
                    continue
                self._hold(signature)
                changed.append(("on_signature_added", signature))
                added += 1
        for hook, signature in changed:
            self._notify(hook, signature)
        return added, len(won)

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
        lock, what another process wrote to the file since our last read
        is first joined into memory by :meth:`join`'s rule, then the result
        is written to a temporary file and atomically renamed over the
        target, so concurrent writers never undo each other's edits.  Pass
        ``merge_on_disk=False`` for an explicit overwrite (:meth:`clear`).
        """
        target = path or self._path
        if target is None:
            return None
        with self._saving(target, merge_on_disk):
            pass
        return target

    @contextlib.contextmanager
    def _saving(self, target: str, merge_on_disk: bool = True):
        """Hold the history and ``target``'s lock: join the disk, run the block, write."""
        directory = os.path.dirname(os.path.abspath(target)) or "."
        try:
            # Lock order is always History._lock -> flock: a save taking
            # the flock first while a mutator holds self._lock would be a
            # classic ABBA deadlock with the mutator's own save.
            with self._lock, locked_file(target, exclusive=True):
                if merge_on_disk and _identity(target) != self._written_stamp:
                    # A file nobody can read is repaired by the write below.
                    with contextlib.suppress(OSError, HistoryError):
                        self._join(*_read(target))
                yield
                payload = self.to_dict()
                fd, temp_name = tempfile.mkstemp(
                    prefix=".dimmunix-history-", dir=directory)
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, indent=2, sort_keys=True)
                os.replace(temp_name, target)
                self._written_stamp = _identity(target)
        except OSError as exc:
            raise HistoryError(f"cannot save history to {target}: {exc}") from exc

    def _edit(self):
        """The context of one local edit: with autosave on, inside a save,
        after the join of the file, so a later edit through the file always
        wins over an earlier one, whichever process made them."""
        return self._saving(self._path) if self._autosave else self._lock

    def load(self, path: Optional[str] = None) -> int:
        """Load (and merge) signatures from ``path``; returns the new total count."""
        source = path or self._path
        if source is None:
            raise HistoryError("no history path configured")
        with contextlib.suppress(FileNotFoundError):
            self._join(*_read(source))
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
            return _payload(self._signatures.values(), list(self._state.controls.values()))

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
        payload = _payload(selected)
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
            temp._join(*_read(path))
        except FileNotFoundError as exc:
            raise HistoryError(f"cannot import signatures from {path}: {exc}") from exc
        return temp.signatures()

    def disk_footprint(self) -> int:
        """Size in bytes of the serialized history (for the §7.4 experiment)."""
        return len(json.dumps(self.to_dict()))
