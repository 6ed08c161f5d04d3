"""Deadlock and starvation signatures.

A signature is the "fingerprint" of a deadlock (or induced-starvation)
pattern: the multiset of call-stack labels found on the hold and yield
edges of the cycle that the monitor detected (paper section 5.3).  It
contains no thread or lock identities, which makes it portable across
executions.

Since the engine's resource model became capacity aware, every stack in
the multiset also carries the *acquisition mode* of the hold edge it
labels: :data:`EXCLUSIVE` for mutex and semaphore-permit holds,
:data:`SHARED` for reader-side rwlock holds.  Modes are part of the
signature identity only when a non-exclusive mode is present, so
signatures produced by plain locks keep their historical (v1)
fingerprints and old history files keep matching.

Besides the stack multiset, a signature carries bookkeeping used at
runtime: the matching depth (section 5.5), whether it has been disabled,
how many times it has been avoided, and how many yields against it were
aborted because of the yield-timeout safeguard (section 5.7).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .callstack import CallStack
from .errors import SignatureError

#: Signature kinds.
DEADLOCK = "deadlock"
STARVATION = "starvation"

_VALID_KINDS = (DEADLOCK, STARVATION)

#: Acquisition modes of hold edges (and of the requests that wait on
#: them).  EXCLUSIVE consumes one of a resource's permits — a mutex is a
#: one-permit resource, a counting semaphore an N-permit one.  SHARED
#: holds coexist with each other but exclude EXCLUSIVE holders, which is
#: the reader side of a reader-writer lock.
EXCLUSIVE = "exclusive"
SHARED = "shared"

_VALID_MODES = (EXCLUSIVE, SHARED)


class Signature:
    """A persistent fingerprint of a deadlock or starvation pattern."""

    __slots__ = (
        "stacks",
        "modes",
        "kind",
        "_matching_depth",
        "disabled",
        "avoidance_count",
        "abort_count",
        "occurrence_count",
        "created_at",
        "_fingerprint",
    )

    def __init__(self, stacks: Iterable[CallStack], kind: str = DEADLOCK,
                 matching_depth: int = 4, disabled: bool = False,
                 avoidance_count: int = 0, abort_count: int = 0,
                 occurrence_count: int = 1, created_at: float = 0.0,
                 modes: Optional[Iterable[str]] = None):
        stacks = tuple(stacks)
        if not stacks:
            raise SignatureError("a signature needs at least one call stack")
        if any(len(stack) == 0 for stack in stacks):
            raise SignatureError("signature stacks must be non-empty")
        if kind not in _VALID_KINDS:
            raise SignatureError(f"unknown signature kind {kind!r}")
        if matching_depth < 1:
            raise SignatureError("matching_depth must be >= 1")
        if modes is None:
            mode_list = [EXCLUSIVE] * len(stacks)
        else:
            mode_list = list(modes)
            if len(mode_list) != len(stacks):
                raise SignatureError(
                    "modes must parallel stacks "
                    f"({len(mode_list)} modes for {len(stacks)} stacks)")
            if any(mode not in _VALID_MODES for mode in mode_list):
                raise SignatureError(f"unknown acquisition mode in {mode_list!r}")
        # Sort (stack, mode) pairs together so the multiset identity is
        # stable regardless of detection order; for all-exclusive
        # signatures this is exactly the historical stack ordering.
        pairs = sorted(zip(stacks, mode_list), key=lambda p: (p[0], p[1]))
        self.stacks: Tuple[CallStack, ...] = tuple(stack for stack, _ in pairs)
        self.modes: Tuple[str, ...] = tuple(mode for _, mode in pairs)
        self.kind = kind
        self._matching_depth = matching_depth
        self.disabled = disabled
        self.avoidance_count = avoidance_count
        self.abort_count = abort_count
        self.occurrence_count = occurrence_count
        self.created_at = created_at
        self._fingerprint: Optional[str] = None

    @property
    def matching_depth(self) -> int:
        """How many innermost frames a runtime stack must share with a stack of this one.

        Changed only through :meth:`History.set_depth`, which tells the indexes.
        """
        return self._matching_depth

    # -- identity ------------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the stack/mode multiset and kind.

        The fingerprint ignores runtime bookkeeping (depth, counters) so a
        signature keeps its identity while it is being calibrated.  Modes
        are hashed only when a non-exclusive one is present, so signatures
        of plain mutex deadlocks keep their pre-v2 fingerprints and
        histories written before the multi-holder refactor still match.
        """
        if self._fingerprint is None:
            digest = hashlib.sha1()
            digest.update(self.kind.encode())
            for stack, mode in zip(self.stacks, self.modes):
                for frame in stack:
                    digest.update(frame.encode().encode())
                if mode != EXCLUSIVE:
                    digest.update(f"|mode:{mode}|".encode())
                digest.update(b"|stack|")
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return (self.kind == other.kind and self.stacks == other.stacks
                and self.modes == other.modes)

    def __hash__(self) -> int:
        return hash((self.kind, self.stacks, self.modes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Signature(kind={self.kind}, size={len(self.stacks)}, "
                f"depth={self.matching_depth}, fp={self.fingerprint})")

    # -- size / accessors -----------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of call stacks (i.e. threads) in the signature."""
        return len(self.stacks)

    @property
    def enabled(self) -> bool:
        """True unless the signature has been disabled (manually or automatically)."""
        return not self.disabled

    # -- matching --------------------------------------------------------------------

    def matching_stacks(self, runtime_stack: CallStack,
                        depth: Optional[int] = None) -> List[int]:
        """Indices of this signature's stacks that ``runtime_stack`` matches."""
        effective = self.matching_depth if depth is None else depth
        return [index for index, stack in enumerate(self.stacks)
                if stack.matches(runtime_stack, effective)]

    def record_avoidance(self) -> int:
        """Count one avoidance against this signature; returns the new total."""
        self.avoidance_count += 1
        return self.avoidance_count

    def record_abort(self) -> int:
        """Count one aborted yield (yield-timeout expiry); returns the new total."""
        self.abort_count += 1
        return self.abort_count

    def record_occurrence(self) -> int:
        """Count one more runtime occurrence of this pattern."""
        self.occurrence_count += 1
        return self.occurrence_count

    # -- serialization ------------------------------------------------------------------

    @property
    def multiholder(self) -> bool:
        """True when any hold edge was acquired in a non-exclusive mode."""
        return any(mode != EXCLUSIVE for mode in self.modes)

    def to_dict(self) -> Dict:
        """Serialize to a JSON-friendly dictionary (the v2 record shape)."""
        return {
            "kind": self.kind,
            "stacks": [stack.encode() for stack in self.stacks],
            "modes": list(self.modes),
            "matching_depth": self.matching_depth,
            "disabled": self.disabled,
            "avoidance_count": self.avoidance_count,
            "abort_count": self.abort_count,
            "occurrence_count": self.occurrence_count,
            "created_at": self.created_at,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Signature":
        """Inverse of :meth:`to_dict`."""
        try:
            stacks = [CallStack.decode(encoded) for encoded in data["stacks"]]
            modes = data.get("modes")
            if modes is not None:
                modes = [str(mode) for mode in modes]
            return cls(
                stacks=stacks,
                modes=modes,
                kind=data.get("kind", DEADLOCK),
                matching_depth=int(data.get("matching_depth", 4)),
                disabled=bool(data.get("disabled", False)),
                avoidance_count=int(data.get("avoidance_count", 0)),
                abort_count=int(data.get("abort_count", 0)),
                occurrence_count=int(data.get("occurrence_count", 1)),
                created_at=float(data.get("created_at", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SignatureError(f"malformed signature record: {exc}") from exc

    # -- construction from detection results ----------------------------------------------

    @classmethod
    def from_stacks(cls, stacks: Sequence[Sequence[str]], kind: str = DEADLOCK,
                    matching_depth: int = 4,
                    modes: Optional[Sequence[str]] = None) -> "Signature":
        """Build a signature from symbolic stack label lists (tests, tools)."""
        return cls([CallStack.from_labels(labels) for labels in stacks],
                   kind=kind, matching_depth=matching_depth, modes=modes)

    def describe(self) -> str:
        """Multi-line human readable description (used by reports and logs)."""
        lines = [f"{self.kind} signature {self.fingerprint} "
                 f"(depth={self.matching_depth}, threads={self.size}, "
                 f"avoided={self.avoidance_count})"]
        for index, (stack, mode) in enumerate(zip(self.stacks, self.modes)):
            suffix = "" if mode == EXCLUSIVE else f" [{mode}]"
            lines.append(f"  stack {index}{suffix}:")
            for frame in stack:
                lines.append(f"    {frame.label()}")
        return "\n".join(lines)
