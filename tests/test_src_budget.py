"""``src/`` line count is a tracked metric (ROADMAP aim 2) and only ratchets down.

The numbers are ``wc -l`` over ``src/repro/**/*.py`` — comments, docstrings
and blank lines included, so stripping those is not a way under the bar.
A change that grows ``src/`` must raise the number here, in its own diff,
where a reviewer sees it next to the reason.
"""

from __future__ import annotations

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "repro")

#: Lines once the paper's evaluation became one checked table
#: (``benchmarks/paper.py``): 17,954 before.  The harness gained the
#: scaling runner that used to live in a benchmark script (74 lines) and
#: a paper column pair for Tables 1-2, and the share channels 18 lines
#: for re-sending what a transport failed to write; one overhead function
#: replacing seven copies, ``dataclasses.replace`` in the microbenchmark
#: sweeps, columns named by their fields in the exploration matrix and
#: the dropped ``format_key_values`` and ``Explorer(visible_only=)`` paid
#: for all of it.  Earlier ratchets, newest first: 17,954 (the share
#: fabric's one contract), 19,155, 19,461, 20,136, 20,137, 20,169,
#: 20,352, 20,359, 20,674.
TOTAL_BUDGET = 17_944
#: ``instrument/`` + ``sim/locks.py``: the primitives that used to be
#: written once per runtime (2,691 before PR 12; PR 15 folded the second
#: copy of ``_caller_needs_native_lock`` into ``patching.py``).  2,276
#: until PR 24 made ``patching.py`` the only installer and registry and
#: ``skeleton.py`` the half of each primitive that is not sync-vs-async.
#: 1,964 before an unused ``SimLock.remove_waiter`` went.
PRIMITIVES_BUDGET = 1_962
#: ``share/``: four transports around one ``PoolState`` (``state.py`` and
#: ``wire.py`` included) and one ``send``/``receive``/``snapshot``
#: contract.  3,479 before that contract: 625 of the 1,241 lines it
#: dropped are the demo's move to ``examples/``, the rest the second
#: control plane, the transport registry, the coalescing queue, daemon
#: federation and the ``repro.share.server``/``gossip`` front ends; 39
#: came back so ``PoolState`` refuses a record that is not a signature of
#: the fingerprint it claims.  3,469 when each transport carried its own
#: merge rules; ``wire.no_delay`` and ``wire.hang_up`` later added a net 4.
#: 2,277 until a delta the transport failed to write stayed owed by the
#: channel (re-sent by the next send) instead of being lost to its dedup.
SHARE_BUDGET = 2_295
#: ``sim/``: scheduler, primitives and the explorer.  3,854 before PR 15,
#: when ``explore.py`` + ``parexplore.py`` carried four search loops;
#: 3,681 until PR 23 deleted ``parexplore.py`` and what only fed it.
#: 3,006 before ``Scheduler.thread_at_slot``, which nothing called, went;
#: 2,991 before ``Explorer(visible_only=)``, which nothing passed, went.
SIM_BUDGET = 2_983


def count_lines(*roots: str) -> int:
    total = 0
    for root in roots:
        paths = [root] if os.path.isfile(root) else [
            os.path.join(directory, name)
            for directory, _, names in os.walk(root)
            for name in names if name.endswith(".py")]
        for path in paths:
            with open(path, "rb") as handle:
                total += handle.read().count(b"\n")
    return total


def test_src_total_stays_within_budget():
    assert count_lines(SRC) <= TOTAL_BUDGET


def test_primitives_stay_within_budget():
    assert count_lines(os.path.join(SRC, "instrument"),
                       os.path.join(SRC, "sim", "locks.py")) <= PRIMITIVES_BUDGET


def test_share_stays_within_budget():
    assert count_lines(os.path.join(SRC, "share")) <= SHARE_BUDGET


def test_sim_stays_within_budget():
    assert count_lines(os.path.join(SRC, "sim")) <= SIM_BUDGET
