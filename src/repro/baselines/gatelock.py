"""Gate-lock deadlock healing (Nir-Buchbinder et al. [17]).

Upon observing a deadlock, the code locations involved are wrapped in one
"gate lock": in subsequent executions a thread must own the gate before it
may perform a lock acquisition from any of those locations, which
serializes every execution of the wrapped code — including interleavings
that could never deadlock.  The paper shows this coarse-grained policy
causes more than an order of magnitude more false positives (and ~70%
throughput overhead) compared to Dimmunix on the same workload.

The gate is keyed on the *code region* performing the synchronization: the
caller of the lock operation (one frame above the lock call), which is the
closest stack-based approximation of "the code block wrapped by the gate".
No deeper call-path context and no runtime lock-holder information is
used — exactly the contrast the paper draws in section 4: on the
``update(x, y)`` example the gate serializes every call to ``update``,
even interleavings that can never deadlock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.avoidance import GO_OUTCOME, RequestOutcome
from ..core.callstack import CallStack
from ..core.signature import EXCLUSIVE
from ..sim.backends import YIELD_OUTCOME, SchedulerBackend
from ..sim.result import StallRecord


def _site_of(stack: CallStack) -> Optional[str]:
    """The code-region key of a lock operation: its caller frame.

    Falls back to the innermost frame for one-frame stacks.  The gate must
    be owned before *any* lock acquisition performed from that region, so
    taking the caller (rather than the lock call itself) makes the gate
    guard the whole block, as in the original healing approach.
    """
    if len(stack) == 0:
        return None
    frame = stack[1] if len(stack) > 1 else stack[0]
    return frame.encode()


@dataclass
class Gate:
    """One gate lock covering a set of code sites."""

    gate_id: int
    sites: FrozenSet[str]
    owner: Optional[int] = None
    depth: int = 0
    waiters: List[int] = field(default_factory=list)

    def covers(self, site: Optional[str]) -> bool:
        return site is not None and site in self.sites


class GateLockBackend(SchedulerBackend):
    """Serialize code blocks involved in previously seen deadlocks."""

    name = "gate-lock"

    def __init__(self):
        self._gates: List[Gate] = []
        self._gate_ids = itertools.count(1)
        #: (thread, lock) -> gates entered when acquiring that lock.
        self._entries: Dict[Tuple[int, int], List[Gate]] = {}
        #: per-thread count of gate ownerships (for reentrancy across locks).
        self._owned: Dict[int, Dict[int, int]] = {}
        self.denials = 0
        self.gate_acquisitions = 0
        self.deadlocks_learned = 0

    # -- learning ---------------------------------------------------------------------------

    def add_gate(self, sites) -> Gate:
        """Create a gate covering the given encoded call sites."""
        encoded = frozenset(
            site if isinstance(site, str) else _site_of(site) for site in sites)
        encoded = frozenset(site for site in encoded if site is not None)
        gate = Gate(gate_id=next(self._gate_ids), sites=encoded)
        self._gates.append(gate)
        return gate

    def learn_from_signature(self, signature) -> Gate:
        """Build a gate from a Dimmunix signature (used by experiments).

        Only the innermost frame of each stack is used — this is precisely
        what makes the approach coarse grained.
        """
        return self.add_gate([stack for stack in signature.stacks])

    def on_deadlock(self, stall: StallRecord, details: Dict) -> None:
        sites = [stack for stack in details.get("sites", {}).values()]
        if sites:
            self.add_gate(sites)
            self.deadlocks_learned += 1

    # -- lock protocol ------------------------------------------------------------------------

    def request(self, thread_id: int, lock_id: int, stack: CallStack,
                mode: str = EXCLUSIVE, capacity: int = 1, take=None) -> RequestOutcome:
        site = _site_of(stack)
        needed = [gate for gate in self._gates if gate.covers(site)]
        if not needed:
            return GO_OUTCOME
        for gate in needed:
            if gate.owner is not None and gate.owner != thread_id:
                self.denials += 1
                if thread_id not in gate.waiters:
                    gate.waiters.append(thread_id)
                return YIELD_OUTCOME
        # All needed gates are free (or already ours): take them.
        for gate in needed:
            if gate.owner is None:
                gate.owner = thread_id
                self.gate_acquisitions += 1
            gate.depth += 1
            self._owned.setdefault(thread_id, {})
            self._owned[thread_id][gate.gate_id] = \
                self._owned[thread_id].get(gate.gate_id, 0) + 1
            self._entries.setdefault((thread_id, lock_id), []).append(gate)
            if thread_id in gate.waiters:
                gate.waiters.remove(thread_id)
        return GO_OUTCOME

    def release(self, thread_id: int, lock_id: int) -> List[int]:
        gates = self._entries.pop((thread_id, lock_id), [])
        woken: Set[int] = set()
        for gate in gates:
            gate.depth -= 1
            owned = self._owned.get(thread_id, {})
            owned[gate.gate_id] = owned.get(gate.gate_id, 1) - 1
            if owned.get(gate.gate_id, 0) <= 0:
                owned.pop(gate.gate_id, None)
            if gate.depth <= 0:
                gate.depth = 0
                gate.owner = None
                woken.update(gate.waiters)
                gate.waiters.clear()
        return sorted(woken)

    def cancel(self, thread_id: int, lock_id: int) -> None:
        # A failed trylock releases any gates taken for it.
        self.release(thread_id, lock_id)

    def fork(self) -> "GateLockBackend":
        """A fresh backend with the learned gates but clean runtime state.

        Gates are keyed on encoded code sites, which are stable across
        runs, so a fork keeps the protection while dropping owners,
        waiters, and per-run counters — what schedule exploration needs
        for per-interleaving isolation.
        """
        fork = GateLockBackend()
        for gate in self._gates:
            fork.add_gate(gate.sites)
        return fork

    # -- reporting ---------------------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "gates": len(self._gates),
            "gate_denials": self.denials,
            "gate_acquisitions": self.gate_acquisitions,
            "deadlocks_learned": self.deadlocks_learned,
        }

    @property
    def gates(self) -> List[Gate]:
        """The gates currently installed."""
        return list(self._gates)
