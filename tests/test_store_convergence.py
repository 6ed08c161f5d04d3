"""Replicas of one signature set converge, checked exhaustively at small scope.

A history file is one more replica of the signature set that
:class:`~repro.core.replica.PoolState` merges: every disable, enable,
removal and re-learning add is a stamped control, and a save, a reload
and a fresh load join by that one rule.  Plain ``itertools`` enumerates
every short schedule of edits and deliveries over two replicas and the
store between them (the file, or a third ``PoolState``), and checks:

* **convergence** — once everything is delivered, every replica and a
  fresh load hold the same fingerprints with the same flags;
* **the causally last edit wins** — when one stamped edit of a
  fingerprint happened after every other (its replica had seen them),
  the fingerprint ends as that edit left it.  In particular nothing comes
  back after a removal unless a later add learned it again;
* **autosaving replicas are one set** — with autosave on, each edit
  joins the file before it stamps, so every fresh load equals the same
  edits applied in order to a single set.

The pool replicas run the same schedules with every delivery duplicated,
and with one delivery lost and repaired by a ``summary``/``diff``/``pick``
exchange.
"""

from __future__ import annotations

import itertools
import os

import pytest

from repro.core.callstack import CallStack
from repro.core.history import History
from repro.core.replica import Control, PoolState
from repro.core.signature import Signature


def make_signature(label: str) -> Signature:
    return Signature([CallStack.from_labels([f"{label}:1", "main:0"]),
                      CallStack.from_labels([f"{label}:2", "main:0"])])


S1 = make_signature("s1")
FP = S1.fingerprint
ACTIONS = ("add", "disable", "enable", "remove")
#: What the causally last stamped edit leaves: None is absent, else the flag.
OUTCOME = {"add": False, "enable": False, "disable": True, "remove": None}


def state_of(history: History) -> dict:
    return {signature.fingerprint: signature.disabled for signature in history.signatures()}


def schedules(length: int):
    """Edits and deliveries, ``length`` steps, up to the symmetry of A and B.

    A schedule opens with an edit by A (B's mirror image is the same
    schedule) and closes with an edit (the final delivery follows anyway).
    """
    edits = [("edit", replica, action) for replica in "AB" for action in ACTIONS]
    syncs = [(step, replica) for step in ("save", "reload") for replica in "AB"]
    for middle in itertools.product(edits + syncs, repeat=length - 2):
        for first, last in itertools.product(edits[:len(ACTIONS)], edits):
            yield (first,) + middle + (last,)


#: Schedules of 2, 3 and 4 steps in which every step changes something.
RAN = {2: 16, 3: 96, 4: 622}


def explore(length: int, run) -> int:
    """``run`` every schedule of ``length`` steps; how many ran to the end.

    ``run`` returns None, or the index of a step that changed nothing: a
    schedule that is another, shorter one, which runs on its own.  Only
    stamped edits change a replica (s1 is held from the start), so such a
    step stamps or delivers nothing, and no schedule that begins with the
    same steps is run.
    """
    idle, ran = set(), 0
    for schedule in schedules(length):
        if any(schedule[:end] in idle for end in range(1, length)):
            continue
        cut = run(schedule)
        if cut is None:
            ran += 1
        else:
            idle.add(schedule[:cut + 1])
    return ran


class Causality:
    """Who has seen which stamped edit, and which edit each one had seen."""

    def __init__(self):
        self.known = {"A": set(), "B": set(), "F": set()}
        self.edits = {}

    def stamped(self, replica: str, action: str) -> None:
        edit = len(self.edits)
        self.edits[edit] = (action, frozenset(self.known[replica]))
        self.known[replica].add(edit)

    def deliver(self, source: str, target: str) -> bool:
        """Union ``source``'s knowledge into ``target``'s; True when it grew."""
        grew = not self.known[source] <= self.known[target]
        self.known[target] |= self.known[source]
        return grew

    def expected(self):
        """The causally last edit's outcome, or ``...`` when none is last."""
        for edit, (action, seen) in self.edits.items():
            if seen >= set(self.edits) - {edit}:
                return OUTCOME[action]
        return ...


def check_outcome(states, causality: Causality) -> None:
    first = states[0]
    assert all(state == first for state in states[1:]), states
    expected = causality.expected()
    if expected is not ...:
        assert first.get(FP) == expected, (first, causality.edits)


# -- the history file as a replica -----------------------------------------------------


def run_on_file(path: str, seed: bytes, schedule):
    """Run ``schedule`` from a file holding s1 (see :func:`explore`)."""
    with open(path, "wb") as handle:
        handle.write(seed)
    replicas = {name: History(path=path, autosave=False) for name in "AB"}
    causality = Causality()
    for index, step in enumerate(schedule):
        if step[0] == "edit":
            _, name, action = step
            history = replicas[name]
            before = history.control(FP)
            getattr(history, action)(make_signature("s1") if action == "add" else FP)
            if history.control(FP) == before:
                return index
            causality.stamped(name, action)
        elif step[0] == "save":
            if not (causality.deliver(step[1], "F") | causality.deliver("F", step[1])):
                return index
            replicas[step[1]].save()
        else:
            if not causality.deliver("F", step[1]):
                return index
            replicas[step[1]].reload()
    replicas["A"].save()
    replicas["B"].save()
    replicas["A"].reload()
    fresh = History(path=path, autosave=False)
    check_outcome([state_of(replicas["A"]), state_of(replicas["B"]), state_of(fresh)],
                  causality)
    return None


@pytest.mark.parametrize("length", [2, 3, 4])
def test_file_replicas_converge_and_the_causally_last_edit_wins(tmp_path, length):
    path = str(tmp_path / "shared.history")
    History(path=path).add(make_signature("s1"))
    with open(path, "rb") as handle:
        seed = handle.read()
    assert explore(length, lambda schedule: run_on_file(path, seed, schedule)) == RAN[length]


def in_order(sequence):
    """The states one set passes through under ``sequence``; None if an edit is a no-op."""
    states, state = [], {}
    for _, action in sequence:
        if (action == "add") == (FP in state):
            return None
        state = {} if action == "remove" else {FP: action == "disable"}
        states.append(state)
    return states


def test_autosaving_replicas_behave_as_one_set(tmp_path):
    """Every edit joins the file first: fresh loads follow the edits in order."""
    path = str(tmp_path / "shared.history")
    edits = [(name, action) for name in "AB" for action in ACTIONS]
    ran = 0
    for sequence in itertools.product(edits, repeat=4):
        states = in_order(sequence)
        if states is None:
            continue
        if os.path.exists(path):
            os.unlink(path)
        replicas = {name: History(path=path) for name in "AB"}
        for (name, action), state in zip(sequence, states):
            history = replicas[name]
            assert getattr(history, action)(make_signature("s1") if action == "add" else FP)
            assert state_of(history) == state
            assert state_of(History(path=path, autosave=False)) == state
        for history in replicas.values():
            history.reload()
            assert state_of(history) == states[-1]
        ran += 1
    assert ran == 272


def test_a_concurrent_save_keeps_a_disable_and_a_removal(tmp_path):
    """Two histories autosave one path.  A disables s1 and removes s2, then B
    (loaded before both edits) adds s3: a fresh load keeps all three edits."""
    path = str(tmp_path / "shared.history")
    s1, s2, s3 = (make_signature(label) for label in ("s1", "s2", "s3"))
    a = History(path=path)
    a.add(s1)
    a.add(s2)
    b = History(path=path)
    assert a.disable(s1.fingerprint) and a.remove(s2.fingerprint)
    b.add(s3)
    fresh = History(path=path, autosave=False)
    assert state_of(fresh) == {s1.fingerprint: True, s3.fingerprint: False}
    assert state_of(b) == state_of(fresh)


def test_origins_are_unique_per_history_object():
    signature = make_signature("origin")
    first, second = History(), History()
    for history in (first, second):
        history.add(make_signature("origin"))
        history.disable(signature.fingerprint)
    assert first.control(signature.fingerprint).origin != \
        second.control(signature.fingerprint).origin


def test_a_relearned_signature_survives_a_restart(tmp_path):
    path = str(tmp_path / "relearn.history")
    history = History(path=path)
    history.add(make_signature("back"))
    history.remove(make_signature("back").fingerprint)
    assert history.add(make_signature("back"))
    assert state_of(History(path=path, autosave=False)) == {
        make_signature("back").fingerprint: False}


# -- the same schedules over pool replicas ----------------------------------------------


def pool_edit(state: PoolState, origin: str, action: str) -> bool:
    """The history's edit on a pool replica; True when it stamped a control."""
    held = FP in state.records and not state.hidden(FP)
    if action == "add":
        state.admit(S1.to_dict())
        if not state.hidden(FP):
            return False
        action = "enable"
    elif not held:
        return False
    state.merge_control(Control(state.clock + 1, origin, action, FP))
    return True


def pool_state(state: PoolState) -> dict:
    visible = {}
    for record in state.visible():
        control = state.controls.get(record["fingerprint"])
        visible[record["fingerprint"]] = (control.action == "disable" if control is not None
                                          else record["disabled"])
    return visible


def anti_entropy(a: PoolState, b: PoolState) -> None:
    """One digest-first exchange: what each side lacks crosses once."""
    send, send_controls, want, want_controls = a.diff(*b.summary())
    b.absorb(send, send_controls)
    a.absorb(*b.pick(want, want_controls))


def run_on_pool(schedule, duplicate: bool = False, lose: int = -1):
    """``schedule`` over PoolState replicas, checked to the end (see :func:`explore`).

    Every delivery is made twice when ``duplicate``; delivery number
    ``lose`` is lost, and the anti-entropy repair at the end makes it good.
    """
    replicas = {name: PoolState() for name in "ABF"}
    for state in replicas.values():
        state.admit(S1.to_dict())
    causality = Causality()
    deliveries = itertools.count()

    def deliver(source: str, target: str) -> bool:
        if next(deliveries) == lose:
            return True
        for _ in range(2 if duplicate else 1):
            replicas[target].absorb(*replicas[source].snapshot())
        return causality.deliver(source, target)

    idle = None
    for index, step in enumerate(schedule):
        if step[0] == "edit":
            changed = pool_edit(replicas[step[1]], step[1], step[2])
            if changed:
                causality.stamped(step[1], step[2])
        elif step[0] == "save":
            changed = deliver(step[1], "F") | deliver("F", step[1])
        else:
            changed = deliver("F", step[1])
        if not changed and idle is None:
            idle = index
    for source, target in (("A", "F"), ("B", "F"), ("F", "A")):
        deliver(source, target)
    for name in "ABA":                   # the repair: anti-entropy with the store
        anti_entropy(replicas[name], replicas["F"])
        causality.deliver(name, "F")
        causality.deliver("F", name)
    assert len({state.digest() for state in replicas.values()}) == 1
    check_outcome([pool_state(state) for state in replicas.values()], causality)
    return idle


def run_with_each_loss(schedule):
    """:func:`run_on_pool`, then once per delivery with that one lost."""
    cut = run_on_pool(schedule)
    if cut is None:
        deliveries = 3 + sum(2 if step[0] == "save" else 1
                             for step in schedule if step[0] != "edit")
        for lose in range(deliveries):
            run_on_pool(schedule, lose=lose)
    return cut


@pytest.mark.parametrize("length", [2, 3, 4])
def test_pool_replicas_converge_under_duplicates(length):
    assert explore(length, lambda schedule: run_on_pool(schedule, duplicate=True)) == \
        RAN[length]


@pytest.mark.parametrize("length", [2, 3, 4])
def test_pool_replicas_converge_when_one_delivery_is_lost_and_repaired(length):
    assert explore(length, run_with_each_loss) == RAN[length]
