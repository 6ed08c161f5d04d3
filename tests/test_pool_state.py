"""Properties of the replicated pool state (repro.core.replica).

Every transport holds a :class:`PoolState` and only moves bytes, so the
convergence of the whole share fabric rests on this one merge being a
join.  Hypothesis drives random bags of signature records and controls
— equal stamps, every action, duplicates, malformed input — through it
and checks the join laws, order independence, hide-on-remove, the
one-exchange anti-entropy repair, and a naive reference fold.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ShareError
from repro.core.history import History
from repro.core.callstack import CallStack
from repro.core.signature import Signature
from repro.core.replica import CONTROL_ACTIONS, Control, parse_control
from repro.share import PoolState, make_control

def make_signature(label: str) -> Signature:
    return Signature([CallStack.from_labels([f"{label}:1", "main:0"]),
                      CallStack.from_labels([f"{label}:2", "main:0"])])


RECORDS = {signature.fingerprint: signature.to_dict()
           for signature in map(make_signature, ("aa", "bb", "cc", "dd"))}
FINGERPRINTS = list(RECORDS)
FP = FINGERPRINTS[0]

# Bodies of one fingerprint differ only in bookkeeping ("body").
records = st.builds(lambda fp, body: {**RECORDS[fp], "body": body},
                    st.sampled_from(FINGERPRINTS), st.integers(0, 3))
controls = st.builds(
    lambda action, fp, clock, origin: {"action": action, "fingerprint": fp,
                                       "clock": clock, "origin": origin},
    st.sampled_from(CONTROL_ACTIONS), st.sampled_from(FINGERPRINTS),
    st.integers(0, 3), st.sampled_from(["x", "y"]))
# The last two claim a real fingerprint: a corrupt body, and another
# signature's body.
bad_records = st.sampled_from([{}, {"fingerprint": ""}, {"fingerprint": 7},
                               None, 5, FP, [FP],
                               {"fingerprint": FP, "stacks": 7},
                               {**RECORDS[FINGERPRINTS[1]], "fingerprint": FP}])
bad_controls = st.sampled_from([
    {"action": "disable", "fingerprint": "aa", "clock": "zzz"},
    {"action": "disable", "fingerprint": "aa", "clock": None},
    {"action": "disable", "fingerprint": "aa", "clock": True},
    {"action": "disable", "fingerprint": "aa", "clock": float("inf")},
    {"action": "disable", "fingerprint": "aa", "clock": 1, "origin": None},
    {"action": "explode", "fingerprint": "aa", "clock": 1},
    {"action": ["disable"], "fingerprint": "aa"},
    {"action": "remove", "fingerprint": "", "clock": 1},
    {"action": "remove", "clock": 1},
    None, 3, "disable", []])
ops = st.lists(st.one_of(
    st.tuples(st.just("record"), st.one_of(records, bad_records)),
    st.tuples(st.just("control"), st.one_of(controls, bad_controls))),
    max_size=24)


def build(sequence) -> PoolState:
    state = PoolState()
    for kind, value in sequence:
        if kind == "record":
            state.absorb(records=[value])
        else:
            state.absorb(controls=[value])
    return state


def joined(*states: PoolState) -> PoolState:
    result = PoolState()
    for state in states:
        result.merge(state)
    return result


def visible_fingerprints(state: PoolState):
    return {record["fingerprint"] for record in state.visible()}


# ---------------------------------------------------------------------------
# The join laws
# ---------------------------------------------------------------------------


@given(ops, ops)
def test_merge_is_commutative(left, right):
    a, b = build(left), build(right)
    assert joined(a, b) == joined(b, a)
    assert joined(a, b).digest() == joined(b, a).digest()


@given(ops, ops, ops)
def test_merge_is_associative(first, second, third):
    a, b, c = build(first), build(second), build(third)
    assert joined(joined(a, b), c) == joined(a, joined(b, c))


@given(ops)
def test_merge_is_idempotent(sequence):
    a = build(sequence)
    assert joined(a, a) == a
    assert joined(a, a).digest() == a.digest()


@given(ops, ops)
def test_merge_equals_absorbing_both_sequences(left, right):
    assert joined(build(left), build(right)) == build(left + right)


# ---------------------------------------------------------------------------
# Order independence, hide-on-remove, the reference fold
# ---------------------------------------------------------------------------


@given(ops.flatmap(lambda seq: st.tuples(st.just(seq), st.permutations(seq))))
def test_any_arrival_order_yields_the_same_state(pair):
    sequence, shuffled = pair
    a, b = build(sequence), build(shuffled)
    assert a == b
    assert a.digest() == b.digest()
    assert visible_fingerprints(a) == visible_fingerprints(b)
    assert a.clock == b.clock
    assert a.rejected == b.rejected


@given(ops)
def test_a_removed_fingerprint_is_never_visible(sequence):
    state = build(sequence)
    removed = {fp for fp, control in state.controls.items()
               if control.action == "remove"}
    snapshot_records, snapshot_controls = state.snapshot()
    assert not removed & visible_fingerprints(state)
    assert not removed & {r["fingerprint"] for r in snapshot_records}
    # Hidden, not forgotten: the record is still held and advertised.
    assert visible_fingerprints(state) == set(state.records) - removed
    assert {c["fingerprint"] for c in snapshot_controls} == set(state.controls)


@given(ops)
def test_state_matches_a_naive_fold_and_counts_what_it_rejects(sequence):
    held, standing, malformed = set(), {}, 0
    for kind, value in sequence:
        if kind == "record":
            try:
                readable = (Signature.from_dict(value).fingerprint
                            == value["fingerprint"])
            except Exception:
                readable = False
            if readable:
                held.add(value["fingerprint"])
            else:
                malformed += 1
        else:
            control = parse_control(value)
            if control is None:
                malformed += 1
                continue
            key = (control.clock, control.origin, control.action)
            if key > standing.get(control.fingerprint, (-1, "", "")):
                standing[control.fingerprint] = key
    state = build(sequence)
    assert set(state.records) == held
    assert {fp: (c.clock, c.origin, c.action)
            for fp, c in state.controls.items()} == standing
    assert state.rejected == malformed
    assert state.clock == max([key[0] for key in standing.values()] + [0])
    counts = state.counts()
    assert counts["signatures"] == len(state.visible())
    assert counts["controls"] == len(standing)
    assert counts["rejected"] == malformed


# ---------------------------------------------------------------------------
# Anti-entropy: one summary -> diff exchange repairs any divergence
# ---------------------------------------------------------------------------


@given(ops, ops)
def test_one_exchange_makes_two_states_equal(left, right):
    a, b = build(left), build(right)
    send, send_controls, want, want_controls = a.diff(*b.summary())
    b.absorb(send, send_controls)
    a.absorb(*b.pick(want, want_controls))
    assert a == b
    assert a.digest() == b.digest()
    # Once equal, nothing but stamp ties is left to say.
    send, _, want, _ = a.diff(*b.summary())
    assert send == [] and want == []


def test_equal_stamps_with_different_actions_converge():
    a, b = PoolState(), PoolState()
    a.merge_control(Control(1, "o", "disable", "ff"))
    b.merge_control(Control(1, "o", "enable", "ff"))
    assert a.digest() != b.digest()
    _, send_controls, _, want_controls = a.diff(*b.summary())
    b.absorb(controls=send_controls)
    a.absorb(*b.pick([], want_controls))
    assert a == b
    assert a.controls["ff"].action == "enable"   # (clock, origin, action)


@pytest.mark.parametrize("fingerprints, stamps", [
    ([], {"ff": []}),
    ([], {"ff": [1]}),
    ([], {"ff": ["zzz", "o"]}),
    ([], {"ff": [None, "o"]}),
    ([], {"ff": [1, 2]}),
    ([], {"ff": "1o"}),
    ([], ["ff"]),
    ("ff", {}),
    (None, None),
])
def test_a_malformed_summary_is_a_value_error(fingerprints, stamps):
    state = PoolState()
    state.merge_control(Control(1, "o", "disable", "ff"))
    with pytest.raises(ValueError):
        state.diff(fingerprints, stamps)


def test_pick_ignores_what_it_cannot_read():
    state = build([("record", RECORDS[FP]),
                   ("control", make_control("disable", FP, 1, "o"))])
    assert state.pick([FP, 7, None, "zz"], [FP, [], "zz"]) == (
        [RECORDS[FP]], [make_control("disable", FP, 1, "o")])
    assert state.pick(FP, None) == ([], [])


def test_a_corrupt_copy_never_stands_in_for_its_fingerprint():
    """A record claiming FP that is no signature of FP is refused, so the
    real FP is still admitted and delivered after it."""
    state = PoolState()
    for corrupt in ({"fingerprint": FP, "stacks": 7},
                    {**RECORDS[FINGERPRINTS[1]], "fingerprint": FP}):
        assert state.absorb([corrupt]) == ([], [])
    assert state.rejected == 2 and not state.records
    assert state.absorb([RECORDS[FP]]) == ([RECORDS[FP]], [])


def test_the_read_memo_stays_bounded_and_reads_an_evicted_record_again():
    """Past its bound the fingerprint -> read-record memo sheds its oldest
    half; an evicted record is read again: admitted when it is a signature
    of its fingerprint, refused when it is not."""
    from repro.core.callstack import _CAPTURE_CACHE_LIMIT
    from repro.core import replica

    other = FINGERPRINTS[1]
    assert replica._readable(RECORDS[FP]) == FP
    assert replica._readable(RECORDS[other]) == other
    for remember in (replica.to_record, lambda filler: PoolState().admit(filler.to_dict())):
        for index in range(_CAPTURE_CACHE_LIMIT):  # made here, or read at admission
            remember(make_signature(f"filler{index}-{remember.__name__}"))
            assert len(replica._READ) <= _CAPTURE_CACHE_LIMIT
    assert FP not in replica._READ and other not in replica._READ
    state = PoolState()
    assert state.admit(RECORDS[FP]) and FP in replica._READ
    assert not state.admit({**RECORDS[FINGERPRINTS[2]], "fingerprint": other})
    assert state.rejected == 1 and other not in state.records


def test_a_record_is_judged_under_the_controls_of_its_own_delta():
    """A disable that outranks a standing remove, arriving with the record
    it un-hides, delivers the record along with the control."""
    state = PoolState()
    state.merge_control(Control(1, "o", "remove", FP))
    disable = make_control("disable", FP, 2, "o")
    assert state.absorb([RECORDS[FP]], [disable]) == (
        [RECORDS[FP]], [parse_control(disable)])
    removed = PoolState()
    remove = make_control("remove", FP, 1, "o")
    assert removed.absorb([RECORDS[FP]], [remove]) == (
        [], [parse_control(remove)])


# ---------------------------------------------------------------------------
# The boundary parser and the History dispatch
# ---------------------------------------------------------------------------


class TestControlBoundary:
    def test_round_trip_is_the_make_control_shape(self):
        raw = make_control("disable", "fp-1", clock=3, origin="ctl")
        assert parse_control(raw) == Control(3, "ctl", "disable", "fp-1")
        assert parse_control(raw).to_dict() == raw

    def test_missing_clock_and_origin_default(self):
        assert parse_control({"action": "enable", "fingerprint": "fp"}) == \
            Control(0, "", "enable", "fp")

    def test_make_control_refuses_what_the_parser_refuses(self):
        for arguments in (("explode", "fp"), ("disable", ""),
                          ("disable", "fp", "zzz"), ("disable", "fp", None)):
            with pytest.raises(ShareError):
                make_control(*arguments)

    def test_total_order_is_clock_origin_action(self):
        ordered = [Control(1, "a", "disable", "fp"),
                   Control(1, "a", "enable", "fp"),
                   Control(1, "a", "remove", "fp"),
                   Control(1, "b", "disable", "fp"),
                   Control(2, "a", "disable", "fp")]
        assert sorted(reversed(ordered)) == ordered
        state = PoolState()
        for control in reversed(ordered):
            state.merge_control(control)
        assert state.controls["fp"] == ordered[-1]


class TestHistoryJoin:
    def test_each_winning_action_reaches_the_held_signature(self):
        history = History(path=None, autosave=False)
        signature = make_signature("dispatch")
        history.add(signature)
        fp = signature.fingerprint
        assert history.join(controls=[make_control("disable", fp, 1, "o")]) == (0, 1)
        assert history.enabled_signatures() == []
        assert history.join(controls=[make_control("enable", fp, 2, "o")]) == (0, 1)
        assert len(history.enabled_signatures()) == 1
        assert history.join(controls=[make_control("remove", fp, 3, "o")]) == (0, 1)
        assert len(history) == 0
        # A stale control loses, and a late copy of the record stays out.
        assert history.join([make_signature("dispatch")],
                            [make_control("enable", fp, 2, "o")]) == (0, 0)
        assert len(history) == 0

    def test_standing_controls_beat_late_records(self):
        history = History(path=None, autosave=False)
        disabled, removed, plain = (make_signature(name)
                                    for name in ("late-d", "late-r", "late-p"))
        plain.disabled = True                    # the record's flag loses too
        controls = [make_control("disable", disabled.fingerprint, 1, "o"),
                    make_control("remove", removed.fingerprint, 1, "o"),
                    make_control("enable", plain.fingerprint, 1, "o")]
        assert history.join([disabled, removed, plain], controls) == (2, 3)
        assert [s.fingerprint for s in history.signatures()] == [
            disabled.fingerprint, plain.fingerprint]
        assert [s.fingerprint for s in history.enabled_signatures()] == [
            plain.fingerprint]
