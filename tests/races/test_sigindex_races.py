"""SignatureIndex COW publication races: benign false negatives only.

``candidates()`` reads the published ``sites`` dict lock-free while a
writer churns signatures in and out.  The publication contract (one
reference assignment of a dict nobody mutates afterwards) makes every
interleaving a *false negative* at worst; a publication bug shows up here
as a reader crash (torn structure), a false positive (matching a
signature that was never indexed), or an index that drifts from a
rebuild.
"""

from __future__ import annotations

import threading

from repro.core.callstack import CallStack
from repro.core.history import History
from repro.core.sigindex import SignatureIndex
from repro.core.signature import Signature

from .harness import preemption_pressure, run_threads


def stack(*labels):
    return CallStack.from_labels(list(labels))


def make_signature(seed: int) -> Signature:
    return Signature([stack(f"lock:{seed}", f"caller:{seed}", "main:0"),
                      stack(f"lock:{seed + 1000}", f"caller:{seed}", "main:0")],
                     matching_depth=2)


class TestReaderWriterStorm:
    def test_probes_race_churn_without_false_positives(self):
        history = History(path=None, autosave=False)
        index = SignatureIndex(history)
        churn_rounds, reader_probes = 150, 4000
        signatures = [make_signature(seed) for seed in range(8)]
        valid_fingerprints = {sig.fingerprint for sig in signatures}
        # One permanently indexed signature: readers probing it while only
        # OTHER signatures churn must always find it (no collateral
        # false negative from unrelated writes).
        anchor = make_signature(9999)
        history.add(anchor)
        done = threading.Event()
        failures = []

        def churner():
            try:
                for round_index in range(churn_rounds):
                    sig = signatures[round_index % len(signatures)]
                    history.add(sig)
                    history.remove(sig.fingerprint)
            finally:
                done.set()

        def reader(offset):
            probes = 0
            while not done.is_set() or probes < reader_probes // 4:
                seed = (probes + offset) % 8
                hit = index.candidates(
                    stack(f"lock:{seed}", f"caller:{seed}", "main:0"))
                for found in hit:
                    if found.fingerprint not in valid_fingerprints:
                        failures.append(
                            f"false positive: {found.fingerprint}")
                anchored = index.candidates(
                    stack("lock:9999", "caller:9999", "main:0"))
                if anchor not in anchored:
                    failures.append("anchor signature lost to a reader")
                missed = index.candidates(stack("never:1", "indexed:2"))
                if missed:
                    failures.append(f"phantom match: {missed}")
                probes += 1

        with preemption_pressure():
            run_threads([churner] + [lambda off=off: reader(off)
                                     for off in range(3)])

        assert not failures, failures[:5]
        # Quiescent: the incremental index must equal a rebuild.
        assert index.equivalent_to_rebuild()
        # And the index converged to the anchor alone.
        assert index.candidates(
            stack("lock:9999", "caller:9999", "main:0")) == [anchor]
