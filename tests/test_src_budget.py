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

#: Lines after PR 24 (one installer, one patch table, one primitive
#: skeleton).  19,461 after PR 23 (the explorer is one process), 20,136
#: after PRs 19 and 20, 20,137 after PR 16, 20,169 after PR 15, 20,352
#: after PR 14, 20,359 after PR 13, 20,674 after PR 12.
TOTAL_BUDGET = 19_155
#: ``instrument/`` + ``sim/locks.py``: the primitives that used to be
#: written once per runtime (2,691 before PR 12; PR 15 folded the second
#: copy of ``_caller_needs_native_lock`` into ``patching.py``).  2,276
#: until PR 24 made ``patching.py`` the only installer and registry and
#: ``skeleton.py`` the half of each primitive that is not sync-vs-async.
PRIMITIVES_BUDGET = 1_964
#: ``share/``: five transports around one ``PoolState`` (``state.py`` and
#: ``wire.py`` included).  3,469 before PR 13, when each transport carried
#: its own merge rules; the 3,300 that PR aimed for was not reached.
#: PR 16 raised it from 3,475: ``wire.no_delay`` (TCP_NODELAY on every
#: share socket) added 12 lines, and turning three by-hand socket closes
#: into ``wire.hang_up`` (the ``GossipChannel.close()`` fix) gave back 8.
SHARE_BUDGET = 3_479
#: ``sim/``: scheduler, primitives and the explorer.  3,854 before PR 15,
#: when ``explore.py`` + ``parexplore.py`` carried four search loops;
#: 3,681 until PR 23 deleted ``parexplore.py`` and what only fed it.
SIM_BUDGET = 3_006


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
