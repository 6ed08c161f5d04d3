"""The serverless transport: an append-only shared signature log.

When running a daemon is too much ceremony — cron-style workers, batch
fleets, containers sharing one volume — N processes can pool immunity
through a single file.  The format is a JSON-lines log::

    {"log": "dimmunix-share", "format_version": 2, "generation": "9f2c..."}
    {"signature": {...}}        # Signature.to_dict(), v1/v2 format
    {"signature": {...}}
    {"control": {"action": "disable", "fingerprint": "...", ...}}

``control`` lines are the fleet-management plane (disable / enable /
remove a fingerprint on every attached worker).  The log is a journal of
one :class:`~repro.share.state.PoolState`: compaction merges every line
into that state and writes the state back, so a long-lived log keeps
one line per fingerprint and one per standing control instead of
replaying an entire enable/disable history to late joiners.

Appends happen under an exclusive advisory lock on a sidecar file
(``<path>.lock``); reads take the shared lock.  Locking the sidecar
rather than the log itself keeps the scheme correct across *compaction*,
which atomically replaces the log (``os.replace``) with a deduplicated
copy under a fresh ``generation`` token: a reader whose byte offset was
minted against the old file notices the generation change and rescans
from the top, while the channel's carried state suppresses re-delivery.

Platforms without :mod:`fcntl` lose cross-process exclusion but keep the
append-only discipline (appends of a line are effectively atomic for the
sizes involved); the daemon transport is the better choice there.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.errors import ShareError
from ..util.filelock import locked_file
from . import wire
from .channel import Delta, HistoryChannel
from .state import PoolState

_LOG_MAGIC = "dimmunix-share"
_FORMAT_VERSION = 2


def _new_header() -> str:
    """A header line under a fresh generation token."""
    return wire.encode({"log": _LOG_MAGIC, "format_version": _FORMAT_VERSION,
                        "generation": os.urandom(8).hex()})


def _open(path: str):
    """The log for reading: undecodable bytes spoil their line, not the read."""
    return open(path, "r", encoding="utf-8", errors="replace")


def _header(line: str) -> Optional[dict]:
    """The share-log header on ``line``, or None when it is not one."""
    try:
        header = wire.decode(line)
    except ValueError:
        return None
    return header if header.get("log") == _LOG_MAGIC else None


def _lines(handle) -> Iterator[Tuple[Optional[dict], int]]:
    """(decoded line or None, offset after it) from the handle's position.

    Stops at the first line without a terminator: a writer is mid-append
    (no fcntl platform) and the partial line is re-read next time.
    """
    while True:
        # Explicit readline(): iterating the handle would disable tell().
        line = handle.readline()
        if not line.endswith("\n"):
            return
        try:
            yield wire.decode(line), handle.tell()
        except ValueError:
            yield None, handle.tell()


def _split(lines: Iterable[Optional[dict]]) -> Delta:
    """Decoded log lines sorted into (signature records, control records).

    A line that is neither lands among the records as ``None``, where the
    reader's :class:`~repro.share.state.PoolState` rejects and counts it.
    """
    records, controls = [], []
    for line in lines:
        if isinstance(line, dict) and "control" in line:
            controls.append(line["control"])
        else:
            records.append(line.get("signature") if isinstance(line, dict)
                           else None)
    return records, controls


class FileChannel(HistoryChannel):
    """A :class:`HistoryChannel` over an append-only shared signature log."""

    def __init__(self, path: str, compact_slack: int = 64,
                 check_interval: int = 32):
        super().__init__()
        self._path = path
        # Refuse to adopt a foreign file up front: a bare path is a valid
        # share spec, so a user who passes their *history* file here would
        # otherwise get signature lines appended to a JSON document,
        # corrupting their immune memory.  Absent or empty files are fine
        # (the header is written on first send).
        self._check_is_share_log()
        #: Auto-compact once the log carries this many redundant lines.
        self._compact_slack = max(1, compact_slack)
        #: Appended lines between redundancy checks (compaction is amortized).
        self._check_interval = max(1, check_interval)
        self._appends_since_check = 0
        self._generation: Optional[str] = None
        self._offset = 0
        #: Steady-state I/O failures are swallowed (sharing must never take
        #: the immunized program down); they are counted here instead.
        self.io_errors = 0

    def _check_is_share_log(self) -> None:
        """Raise :class:`ShareError` when the path holds a non-share file."""
        try:
            with _open(self._path) as handle:
                first = handle.readline()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise ShareError(f"cannot read {self._path}: {exc}") from exc
        if first.strip() and _header(first) is None:
            raise ShareError(
                f"{self._path} exists but is not a dimmunix share log "
                "(refusing to append to a foreign file)")

    def describe(self) -> str:
        return f"file://{self._path}"

    # -- reading -----------------------------------------------------------------------

    def _read_from_offset(self, handle) -> Delta:
        """Advance past the header if needed, then split the new lines."""
        header_line = handle.readline()
        if not header_line:
            return [], []
        header = _header(header_line)
        if header is None:
            raise ShareError(f"{self._path} is not a dimmunix share log")
        generation = header.get("generation")
        if generation != self._generation:
            # Fresh file or post-compaction replacement: rescan from just
            # after the header; the carried state keeps delivery exactly-once.
            self._generation = generation
            self._offset = handle.tell()
        handle.seek(self._offset)
        fresh = list(_lines(handle))
        if fresh:
            self._offset = fresh[-1][1]
        return _split(line for line, _ in fresh)

    def _receive(self) -> Delta:
        try:
            with locked_file(self._path, exclusive=False):
                try:
                    with _open(self._path) as handle:
                        return self._read_from_offset(handle)
                except FileNotFoundError:
                    return [], []
        except OSError:
            self.io_errors += 1
            return [], []

    def _snapshot(self, timeout: float) -> Delta:
        self._generation = None  # force a rescan from the top
        return self._receive()

    # -- writing -----------------------------------------------------------------------

    def _send(self, records, controls) -> bool:
        return self._append([{"signature": record} for record in records]
                            + [{"control": control} for control in controls])

    def _append(self, lines: List[dict]) -> bool:
        try:
            with locked_file(self._path, exclusive=True):
                # Re-validate under the lock: the path may have been
                # replaced with a foreign file since construction.
                self._check_is_share_log()
                try:
                    empty = os.path.getsize(self._path) == 0
                except OSError:
                    empty = True
                with open(self._path, "a", encoding="utf-8") as handle:
                    if empty:
                        handle.write(_new_header())
                    handle.writelines(map(wire.encode, lines))
                self._appends_since_check += len(lines)
                if self._appends_since_check >= self._check_interval:
                    self._appends_since_check = 0
                    self._compact_locked(self._compact_slack)
        except OSError:
            self.io_errors += 1
            return False
        return True

    # -- compaction --------------------------------------------------------------------

    def _scan_locked(self) -> Tuple[PoolState, int]:
        """(the log merged into one state, how many lines that took)."""
        lines: List[Optional[dict]] = []
        try:
            with _open(self._path) as handle:
                handle.readline()  # header
                lines = [line for line, _ in _lines(handle)]
        except OSError:
            pass
        state = PoolState()
        state.absorb(*_split(lines))
        return state, len(lines)

    def _compact_locked(self, slack: int) -> int:
        """Rewrite the log as its merged state if that drops >= ``slack`` lines.

        Every held record survives (a removed one too: ``remove`` hides,
        it does not delete) and so does the standing control per
        fingerprint — a late joiner must still learn "this fingerprint
        is disabled" from a compacted log.
        """
        state, total = self._scan_locked()
        dropped = total - len(state.records) - len(state.controls)
        if dropped >= slack:
            directory = os.path.dirname(os.path.abspath(self._path)) or "."
            fd, temp_name = tempfile.mkstemp(prefix=".dimmunix-share-",
                                             dir=directory)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(_new_header())
                for record in state.records.values():
                    handle.write(wire.encode({"signature": record}))
                for control in state.controls.values():
                    handle.write(wire.encode({"control": control.to_dict()}))
            os.replace(temp_name, self._path)
        return dropped

    def compact(self) -> int:
        """Deduplicate the log now; returns the number of lines dropped."""
        try:
            with locked_file(self._path, exclusive=True):
                return self._compact_locked(1)
        except OSError as exc:
            raise ShareError(f"cannot compact {self._path}: {exc}") from exc

    # -- introspection -----------------------------------------------------------------

    def status(self) -> Dict:
        """Counts for ``histctl pool-status``: records, unique, size."""
        try:
            with locked_file(self._path, exclusive=False):
                state, total = self._scan_locked()
                try:
                    size = os.path.getsize(self._path)
                except OSError:
                    size = 0
        except OSError as exc:
            raise ShareError(f"cannot read {self._path}: {exc}") from exc
        return {"transport": "file", "path": self._path, **state.counts(),
                "records": total, "bytes": size, "io_errors": self.io_errors}
