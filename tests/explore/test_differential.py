"""DPOR-vs-DFS differential equivalence, and run-to-run determinism.

The claims pinned here (see the package docstring) are the acceptance
criteria of the "Explorer at scale" change:

* The unreduced ``"dfs"`` enumeration — the ground truth everything
  below is compared against — visits a pinned multiset of runs on every
  registered scenario; the figures were derived from the stack-ordered
  loop before it was replaced by wave order, so they also show that the
  visiting order does not matter.
* On every registered scenario, source-DPOR's deadlock-*signature* set
  (stall footprints — who waits on what) equals full DFS's, with both
  trees fully enumerated.  Registry parameterization means a new
  scenario is covered the moment it is registered.  The same holds on
  every Table 1-2 exploit, whose threads run application code.
* On the philosophers-3 full (eat-time-zero) tree DPOR runs strictly
  fewer than the 107-of-1239 the retired stand-alone sleep-set strategy
  needed — the reduction is real, not a relabeling.
* Engine-backed (Dimmunix) exploration, where sleep sets never applied,
  gets the same guarantee: the immunity claim holds under DPOR with
  fewer runs than unreduced search.
* Exploring a scenario twice gives the same counters and the same
  deadlock schedules *in the same order* — ``ImmunityChecker`` learns
  from ``deadlocks[0]``, so the order is behaviour, not presentation.

All of it runs on every tier-1 run, for the whole registry.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.sim import Explorer, ImmunityChecker, NullBackend
from repro.sim.explore import SCENARIOS
from repro.workloads.exploits import all_exploits, exploit_by_name


def explore(name: str, strategy: str, max_runs: int = 20_000, scenario=None):
    scenario = scenario or SCENARIOS[name]
    return Explorer(lambda: scenario(NullBackend()), name=name,
                    strategy=strategy, max_runs=max_runs).explore()


def signature_set(result):
    """The deduplicated deadlock-signature set of an exploration."""
    return {finding.footprint for finding in result.deadlocks}


#: scenario -> (runs, steps, completed, deadlocks, digest of the sorted
#: deadlock schedules), under ``NullBackend``, as enumerated by the stack
#: DFS of commit 79c1269.
UNREDUCED = {
    "two-lock-inversion": (14, 184, 10, 4, "4cb833e28028"),
    "aio-two-lock-inversion": (14, 184, 10, 4, "4cb833e28028"),
    "philosophers-3": (36, 432, 0, 36, "8b7adbee2c98"),
    "aio-philosophers-3": (36, 324, 0, 36, "fe581d549429"),
    "philosophers-3-eat0": (1239, 29160, 1191, 48, "361cf3d9fb4e"),
    "sem-exhaustion-cycle": (14, 136, 10, 4, "42b311cbfdeb"),
    "rwlock-upgrade-inversion": (14, 136, 10, 4, "42b311cbfdeb"),
}


class TestUnreducedEnumerationIsOrderIndependent:
    def test_table_covers_the_registry(self):
        assert set(UNREDUCED) == set(SCENARIOS)

    @pytest.mark.parametrize("scenario", sorted(UNREDUCED))
    def test_dfs_visits_the_pinned_multiset_of_runs(self, scenario):
        result = Explorer(lambda: SCENARIOS[scenario](NullBackend()),
                          name=scenario, strategy="dfs",
                          max_runs=20_000).explore()
        assert result.exhausted
        digest = hashlib.sha256(json.dumps(sorted(
            list(finding.trace.choices) for finding in result.deadlocks
        )).encode()).hexdigest()[:12]
        assert (result.runs, result.steps, result.completed,
                result.deadlock_count, digest) == UNREDUCED[scenario]


class TestDporEqualsDfs:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_deadlock_signature_sets_equal(self, scenario):
        """DPOR finds exactly the deadlock signatures full DFS finds."""
        self.check(scenario)

    @pytest.mark.parametrize("exploit", [exploit.name for exploit in all_exploits()])
    def test_exploit_deadlock_signature_sets_equal(self, exploit):
        """The same on the Table 1-2 exploits: app code run as thread programs."""
        self.check(exploit, exploit_by_name(exploit).scenario)

    @staticmethod
    def check(name, scenario=None):
        dfs = explore(name, "dfs", scenario=scenario)
        dpor = explore(name, "dpor", scenario=scenario)
        assert dfs.exhausted, name
        assert dpor.exhausted, name
        assert signature_set(dpor) == signature_set(dfs), name
        assert dpor.unique_deadlocks == dfs.unique_deadlocks, name
        assert dpor.runs <= dfs.runs, name


class TestPhilosophersFullTree:
    """The headline reduction numbers, pinned exactly (always on)."""

    def test_dpor_strictly_beats_sleep_sets_on_the_full_tree(self):
        dfs = explore("philosophers-3-eat0", "dfs")
        dpor = explore("philosophers-3-eat0", "dpor")
        assert dfs.exhausted and dpor.exhausted
        # The unreduced tree: 1239 runs, one unique deadlock signature.
        assert dfs.runs == 1239
        assert dfs.unique_deadlocks == 1
        # Stand-alone sleep sets needed 107 before that strategy was
        # retired; DPOR must stay strictly better — and explore exactly
        # the runs it did before the search loops were merged.
        assert dpor.runs == 90 < 107
        # ... while finding the identical deadlock-signature set.
        assert signature_set(dpor) == signature_set(dfs)


class TestEngineBackedDpor:
    """DPOR applies to Dimmunix-backed exploration (sleep sets never did)."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_immunity_claim_holds_under_dpor_with_fewer_runs(self, scenario):
        dpor_report = ImmunityChecker(SCENARIOS[scenario], name=scenario,
                                      max_runs=20_000,
                                      strategy="dpor").check()
        assert dpor_report.holds, (scenario, dpor_report.as_dict())
        dfs_report = ImmunityChecker(SCENARIOS[scenario], name=scenario,
                                     max_runs=20_000, strategy="dfs").check()
        assert dfs_report.holds, (scenario, dfs_report.as_dict())
        # The immune phase explores an engine-backed tree; the reduction
        # must actually engage there.
        assert dpor_report.immune.runs <= dfs_report.immune.runs, scenario

    def test_engine_backed_reduction_is_strict_on_the_full_tree(self):
        """On the contended tree the engine-backed pruning is strict."""
        scenario = "philosophers-3-eat0"
        dpor_report = ImmunityChecker(SCENARIOS[scenario], name=scenario,
                                      max_runs=20_000,
                                      strategy="dpor").check()
        dfs_report = ImmunityChecker(SCENARIOS[scenario], name=scenario,
                                     max_runs=20_000, strategy="dfs").check()
        assert dpor_report.holds and dfs_report.holds
        assert dpor_report.immune.runs < dfs_report.immune.runs


class TestExplorationIsDeterministic:
    @pytest.mark.parametrize("strategy", ["dfs", "dpor"])
    def test_two_explorations_agree_run_for_run(self, strategy):
        """Same counters, same deadlock schedules, in the same order."""
        first, second = (explore("philosophers-3-eat0", strategy)
                         for _attempt in range(2))

        def timing_free(result):
            summary = result.summary()
            del summary["elapsed"], summary["states_per_second"]
            return summary

        assert timing_free(first) == timing_free(second)
        assert first.deadlocks  # the ordered comparison is not vacuous
        assert [finding.trace.choices for finding in first.deadlocks] \
            == [finding.trace.choices for finding in second.deadlocks]
