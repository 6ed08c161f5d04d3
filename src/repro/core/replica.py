"""The replicated signature set — the one place that knows how it merges.

Every holder of signatures replicates the same value: a set of signature
records plus one standing control per fingerprint.  This module owns
that value and its merge rules.  The gossip nodes, the daemon, the file
log and the memory hub each hold a :class:`PoolState`, every share
channel deduplicates what it carries with one of its own, and a
:class:`~repro.core.history.History` keeps its controls in one (its
records are its live signatures), so the history file is one more
replica.

The merge is a join, so it is commutative, associative and idempotent
by construction:

* **records** form a grow-only union keyed by fingerprint (the first
  body seen for a fingerprint is the one kept and forwarded);
* **controls** keep, per fingerprint, the maximum under the total order
  ``(clock, origin, action)`` — :class:`Control`'s field order;
* a standing ``remove`` **hides** its fingerprint's record from
  :meth:`PoolState.visible`/:meth:`PoolState.snapshot`; the record is
  still held and advertised, so arrival order never changes the state;
* the **digest** covers every held fingerprint and every standing
  control (fingerprint, action, clock, origin);
* **malformed input** — a record that is not a signature of the
  fingerprint it claims, a control with an unknown action or an
  unreadable clock — is rejected and counted in ``rejected``, never
  raised.

A :class:`PoolState` is not thread-safe; its owner serialises access.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, NamedTuple, Optional, Tuple

from .callstack import _remember
from .errors import ShareError
from .signature import Signature

#: Actions a control record may carry (each is also the name of the
#: :class:`~repro.core.history.History` method that stamps it).
CONTROL_ACTIONS = ("disable", "enable", "remove")


class Control(NamedTuple):
    """One validated control record; tuple order is the merge order."""

    clock: int
    origin: str
    action: str
    fingerprint: str

    def to_dict(self) -> Dict:
        """The wire/log form (what :func:`make_control` returns)."""
        return {"action": self.action, "fingerprint": self.fingerprint,
                "clock": self.clock, "origin": self.origin}


def _stamp(clock, origin) -> Tuple[int, str]:
    """Validate a ``(clock, origin)`` pair read from a wire or a log."""
    if isinstance(clock, bool) or not isinstance(origin, str):
        raise ValueError(f"bad control stamp ({clock!r}, {origin!r})")
    try:
        return int(clock), origin
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"bad control clock {clock!r}") from exc


def _read_control(raw) -> Control:
    if not isinstance(raw, dict):
        raise ValueError("control record is not an object")
    action, fingerprint = raw.get("action"), raw.get("fingerprint")
    if action not in CONTROL_ACTIONS:
        raise ValueError(f"unknown control action {action!r} "
                         f"(known: {', '.join(CONTROL_ACTIONS)})")
    if not fingerprint or not isinstance(fingerprint, str):
        raise ValueError("control record needs a fingerprint")
    clock, origin = _stamp(raw.get("clock", 0), raw.get("origin", ""))
    return Control(clock, origin, action, fingerprint)


def parse_control(raw) -> Optional[Control]:
    """The boundary parser: a raw control record, or None when malformed."""
    try:
        return _read_control(raw)
    except ValueError:
        return None


def make_control(action: str, fingerprint: str, clock: int = 0,
                 origin: str = "") -> Dict:
    """Build (and validate) one control record.

    Control records are the fleet-wide management plane: ``disable``
    stops every worker from avoiding a fingerprint (section 5.7 at fleet
    scale), ``enable`` reverses that, ``remove`` deletes it outright.
    ``clock`` is a Lamport timestamp and ``origin`` a tie-breaking node
    name; together with the action they totally order the controls of
    one fingerprint, and the greatest one stands everywhere.
    """
    try:
        return _read_control({
            "action": action, "fingerprint": fingerprint and str(fingerprint),
            "clock": clock, "origin": str(origin)}).to_dict()
    except ValueError as exc:
        raise ShareError(str(exc)) from exc


def parse_signatures(records) -> List[Signature]:
    """Fresh :class:`Signature` objects for the readable ``records``."""
    signatures = []
    for record in records:
        try:
            signatures.append(Signature.from_dict(record))
        except Exception:
            continue
    return signatures


#: fingerprint -> a record already known to be a signature of that
#: fingerprint (read once, or made by :func:`to_record`), bounded like the
#: capture memos.  A record crosses several states on its way (the sender's
#: channel, the hub, daemon or gossip node, the receiver's channel), so an
#: equal copy is taken as read; an evicted one is only read again.
_READ: Dict[str, dict] = {}


def to_record(signature: Signature) -> dict:
    """``signature``'s wire record, known to be readable without a parse."""
    record = signature.to_dict()
    _remember(_READ, record["fingerprint"], record)
    return record


def _readable(record) -> Optional[str]:
    """The fingerprint ``record`` claims, if it is a signature carrying it."""
    fingerprint = record.get("fingerprint") if isinstance(
        record, dict) else None
    if not fingerprint or not isinstance(fingerprint, str):
        return None
    if _READ.get(fingerprint) == record:
        return fingerprint
    try:
        if Signature.from_dict(record).fingerprint != fingerprint:
            return None
    except Exception:
        return None
    _remember(_READ, fingerprint, record)
    return fingerprint


class PoolState:
    """Signature records plus standing controls, merged by join."""

    __slots__ = ("records", "controls", "clock", "rejected")

    def __init__(self) -> None:
        #: Grow-only: fingerprint -> record, in admission order.
        self.records: Dict[str, dict] = {}
        #: The standing (greatest) control per fingerprint.
        self.controls: Dict[str, Control] = {}
        #: Highest clock among the standing controls, i.e. among every
        #: control ever merged (a Lamport clock's receive side).
        self.clock = 0
        #: Malformed inputs refused so far; not part of the value.
        self.rejected = 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoolState):
            return NotImplemented
        return (self.records.keys() == other.records.keys()
                and self.controls == other.controls)

    __hash__ = None

    # -- merging -----------------------------------------------------------------------

    def admit(self, record) -> bool:
        """Add one raw signature record.

        True when the record is new *and* visible — that is, when its
        holder should deliver or forward it.  A record that is not a
        signature carrying the fingerprint it claims is rejected, so a
        corrupt copy can never stand in for the real one.
        """
        fingerprint = _readable(record)
        if fingerprint is None:
            self.rejected += 1
            return False
        if fingerprint in self.records:
            return False
        self.records[fingerprint] = record
        return not self.hidden(fingerprint)

    def merge_control(self, control: Control) -> bool:
        """Join one control; True when it became the standing one."""
        held = self.controls.get(control.fingerprint)
        if held is not None and control <= held:
            return False
        self.controls[control.fingerprint] = control
        if control.clock > self.clock:
            self.clock = control.clock
        return True

    def absorb(self, records=(), controls=()
               ) -> Tuple[List[dict], List[Control]]:
        """Join raw wire/log input (lists of records and of controls).

        Returns the records that became visible and the controls that
        won; everything unreadable is counted in ``rejected``.  The
        controls merge first, so a record is judged visible under the
        controls that stand once the whole delta is in.
        """
        won = []
        for raw in self._listed(controls):
            control = parse_control(raw)
            if control is None:
                self.rejected += 1
            elif self.merge_control(control):
                won.append(control)
        fresh = [record for record in self._listed(records)
                 if self.admit(record)]
        return fresh, won

    def _listed(self, value):
        if isinstance(value, (list, tuple)):
            return value
        self.rejected += 1
        return ()

    def merge(self, other: "PoolState") -> None:
        """Join ``other`` into this state."""
        for fingerprint, record in other.records.items():
            self.records.setdefault(fingerprint, record)
        for control in other.controls.values():
            self.merge_control(control)

    # -- reading -----------------------------------------------------------------------

    def hidden(self, fingerprint: str) -> bool:
        """True while the standing control for ``fingerprint`` is ``remove``."""
        control = self.controls.get(fingerprint)
        return control is not None and control.action == "remove"

    def visible(self) -> List[dict]:
        """Every held record whose fingerprint is not removed."""
        return [record for fingerprint, record in self.records.items()
                if not self.hidden(fingerprint)]

    def snapshot(self) -> Tuple[List[dict], List[dict]]:
        """What a late joiner needs: visible records, standing controls."""
        return self.visible(), [control.to_dict()
                                for control in self.controls.values()]

    def counts(self) -> Dict[str, int]:
        """Counters every transport's ``status()`` reports."""
        return {"signatures": len(self.visible()),
                "controls": len(self.controls),
                "disabled_fingerprints": sum(
                    1 for control in self.controls.values()
                    if control.action == "disable"),
                "rejected": self.rejected}

    # -- anti-entropy ------------------------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over the held fingerprints and the standing controls."""
        digest = hashlib.sha256()
        for fingerprint in sorted(self.records):
            digest.update(fingerprint.encode("utf-8") + b"\x00")
        digest.update(b"\x01")
        for fingerprint, control in sorted(self.controls.items()):
            digest.update(repr((fingerprint, control.action,
                                (control.clock, control.origin))
                               ).encode("utf-8") + b"\x00")
        return digest.hexdigest()

    def summary(self) -> Tuple[List[str], Dict[str, list]]:
        """(held fingerprints, ``[clock, origin]`` per standing control)."""
        return sorted(self.records), {
            fingerprint: [control.clock, control.origin]
            for fingerprint, control in self.controls.items()}

    def diff(self, fingerprints, stamps
             ) -> Tuple[List[dict], List[dict], List[str], List[str]]:
        """Compare with a peer's :meth:`summary`.

        Returns ``(records to send, controls to send, fingerprints
        wanted, control fingerprints wanted)``.  Equal stamps are
        exchanged both ways because the summary does not carry the
        action that breaks the tie.  A malformed summary raises
        ``ValueError``.
        """
        if not isinstance(fingerprints, list) or not isinstance(stamps, dict):
            raise ValueError("malformed pool summary")
        theirs = {}
        for fingerprint, stamp in stamps.items():
            if not isinstance(stamp, list) or len(stamp) != 2:
                raise ValueError(f"malformed control stamp {stamp!r}")
            theirs[fingerprint] = _stamp(*stamp)
        held = {fingerprint for fingerprint in fingerprints
                if isinstance(fingerprint, str)}
        send = [record for fingerprint, record in self.records.items()
                if fingerprint not in held]
        send_controls = [
            control.to_dict() for fingerprint, control in self.controls.items()
            if fingerprint not in theirs or control[:2] >= theirs[fingerprint]]
        want = sorted(held.difference(self.records))
        want_controls = [
            fingerprint for fingerprint, stamp in theirs.items()
            if fingerprint not in self.controls
            or stamp >= self.controls[fingerprint][:2]]
        return send, send_controls, want, want_controls

    def pick(self, want, want_controls) -> Tuple[List[dict], List[dict]]:
        """The held records and standing controls a peer asked for."""
        return ([self.records[fingerprint] for fingerprint in self._listed(want)
                 if isinstance(fingerprint, str) and fingerprint in self.records],
                [self.controls[fingerprint].to_dict()
                 for fingerprint in self._listed(want_controls)
                 if isinstance(fingerprint, str)
                 and fingerprint in self.controls])

