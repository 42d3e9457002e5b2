"""Sharded parallel-campaign tests: invariance, determinism, merging."""

from __future__ import annotations

from collections import Counter
from dataclasses import fields

import pytest

from repro.ebpf.maps import MapType
from repro.ebpf.program import ProgType
from repro.fuzz.campaign import CampaignConfig, CampaignResult
from repro.fuzz.corpus import MapSpec
from repro.fuzz.oracle import BugFinding
from repro.fuzz.parallel import (
    ParallelCampaign,
    _strip_finding,
    merge_shards,
    shard_budgets,
)
from repro.fuzz.rng import FuzzRng, derive_seed
from repro.fuzz.structure import ExecutionPlan, GeneratedProgram
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel, replay_kernel


def finding(bug_id: str, iteration: int) -> BugFinding:
    return BugFinding(
        bug_id=bug_id,
        indicator="indicator1",
        report_kind="test",
        message=bug_id,
        iteration=iteration,
    )


def div_dict(key: str, iteration: int) -> dict:
    return {
        "key": key,
        "kind": "verdict",
        "profile_a": "v5.15",
        "profile_b": "v6.1",
        "verdict_a": "accept",
        "verdict_b": "reject",
        "reason_a": "",
        "reason_b": "R_PTR_ALU",
        "classification": "known-flaw",
        "explanation": "cve-2022-23222",
        "iteration": iteration,
    }


#: The result maps merged by "earliest global iteration wins".
EARLIEST_FIELDS = ("findings", "divergences", "reject_explanations",
                   "repair_examples")


def entry(name: str, key: str, iteration: int):
    """One entry of the result map ``name`` at a global iteration."""
    if name == "findings":
        return finding(key, iteration)
    if name == "divergences":
        return div_dict(key, iteration)
    return {"reason": key, "iteration": iteration}


def iteration_of(value) -> int:
    if isinstance(value, BugFinding):
        return value.iteration
    return value["iteration"]


class TestShardBudgets:
    def test_even_split(self):
        assert shard_budgets(100, 4) == [25, 25, 25, 25]

    def test_remainder_goes_to_leading_shards(self):
        assert shard_budgets(10, 3) == [4, 3, 3]

    def test_no_empty_shards(self):
        assert shard_budgets(3, 8) == [1, 1, 1]

    def test_total_preserved(self):
        for budget in (1, 7, 100, 301):
            for shards in (1, 3, 8):
                assert sum(shard_budgets(budget, shards)) == budget

    def test_zero_budget(self):
        assert shard_budgets(0, 4) == []


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_lanes_distinct(self):
        seeds = {derive_seed(0, i) for i in range(64)}
        assert len(seeds) == 64

    def test_seed_distinct(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_derived_rng_streams_diverge(self):
        a = FuzzRng.derived(9, 0)
        b = FuzzRng.derived(9, 1)
        assert [a.randint(0, 10**9) for _ in range(4)] != [
            b.randint(0, 10**9) for _ in range(4)
        ]


class TestMergeShards:
    def shard(self, index, **kw) -> CampaignResult:
        """Shard ``index``'s result, its iterations already global."""
        config = CampaignConfig(budget=10, seed=derive_seed(0, index),
                                shard_index=index)
        defaults = dict(generated=10, accepted=5)
        defaults.update(kw)
        return CampaignResult(config=config, **defaults)

    def test_counters_sum(self):
        merged = merge_shards(
            CampaignConfig(budget=20),
            [
                self.shard(0, reject_errnos=Counter({22: 3}),
                           insn_classes=Counter({"alu": 7}), corpus_size=2),
                self.shard(1, reject_errnos=Counter({22: 1, 13: 2}),
                           insn_classes=Counter({"alu": 1}), corpus_size=3),
            ],
        )
        assert merged.generated == 20
        assert merged.accepted == 10
        assert merged.reject_errnos == Counter({22: 4, 13: 2})
        assert merged.insn_classes == Counter({"alu": 8})
        assert merged.corpus_size == 5

    def test_findings_dedup_keeps_earliest_global_iteration(self):
        merged = merge_shards(
            CampaignConfig(budget=20),
            [
                self.shard(0, findings={"bug-5": finding("bug-5", 8)}),
                self.shard(1, findings={"bug-5": finding("bug-5", 12),
                                        "bug-7": finding("bug-7", 14)}),
            ],
        )
        assert set(merged.findings) == {"bug-5", "bug-7"}
        assert merged.findings["bug-5"].iteration == 8

    def test_dedup_order_independent(self):
        shards = [
            self.shard(0, findings={"bug-5": finding("bug-5", 9)}),
            self.shard(1, findings={"bug-5": finding("bug-5", 11)}),
        ]
        a = merge_shards(CampaignConfig(budget=20), shards)
        b = merge_shards(CampaignConfig(budget=20), list(reversed(shards)))
        assert a.findings["bug-5"].iteration == b.findings["bug-5"].iteration == 9

    def test_coverage_union_no_double_count(self):
        merged = merge_shards(
            CampaignConfig(budget=20),
            [
                self.shard(0, edge_samples=[(5, frozenset({1, 2})),
                                            (10, frozenset({3}))]),
                self.shard(1, edge_samples=[(5, frozenset({2, 4})),
                                            (10, frozenset({3}))]),
            ],
        )
        assert merged.final_coverage == 4  # union of {1,2,3} and {2,3,4}
        assert merged.edges == frozenset({1, 2, 3, 4})
        # Curve x axis is cumulative programs across the fleet and the
        # y axis reaches the merged total without double-counting.
        assert merged.coverage_curve[-1] == (20, 4)
        xs = [x for x, _ in merged.coverage_curve]
        ys = [y for _, y in merged.coverage_curve]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        # Incremental samples re-union to the same edge set.
        union = set().union(*(s for _, s in merged.edge_samples))
        assert len(union) == 4

    def test_timing_sums_over_shards(self):
        merged = merge_shards(
            CampaignConfig(budget=20),
            [
                self.shard(0, stage_seconds=Counter(
                    generate=1.0, verify=2.0, execute=0.5)),
                self.shard(1, stage_seconds=Counter(
                    generate=0.5, verify=1.0, triage=0.25)),
            ],
        )
        assert merged.stage_seconds == pytest.approx(
            {"generate": 1.5, "verify": 3.0, "execute": 0.5, "triage": 0.25})

    @pytest.mark.parametrize("name", EARLIEST_FIELDS)
    def test_earliest_iteration_wins(self, name):
        merged = merge_shards(
            CampaignConfig(budget=20),
            [
                self.shard(0, **{name: {"k1": entry(name, "k1", 40)}}),
                self.shard(1, **{name: {"k1": entry(name, "k1", 7)}}),
            ],
        )
        assert iteration_of(getattr(merged, name)["k1"]) == 7

    @pytest.mark.parametrize("name", EARLIEST_FIELDS)
    def test_fold_order_independent(self, name):
        first = {"k1": entry(name, "k1", 9)}
        second = {"k1": entry(name, "k1", 11), "k2": entry(name, "k2", 3)}
        a = merge_shards(CampaignConfig(budget=20), [
            self.shard(0, **{name: first}), self.shard(1, **{name: second}),
        ])
        b = merge_shards(CampaignConfig(budget=20), [
            self.shard(1, **{name: first}), self.shard(0, **{name: second}),
        ])
        assert getattr(a, name) == getattr(b, name)
        assert iteration_of(getattr(a, name)["k1"]) == 9

    @pytest.mark.parametrize("name", EARLIEST_FIELDS)
    def test_sorted_by_key(self, name):
        merged = merge_shards(
            CampaignConfig(budget=20),
            [
                self.shard(0, **{name: {"zz": entry(name, "zz", 1)}}),
                self.shard(1, **{name: {"aa": entry(name, "aa", 12)}}),
            ],
        )
        assert list(getattr(merged, name)) == ["aa", "zz"]

    @pytest.mark.parametrize("name", EARLIEST_FIELDS)
    def test_empty_input(self, name):
        assert getattr(merge_shards(CampaignConfig(budget=0), []), name) == {}


class TestMergeCompleteness:
    """Every result field some shard fills must survive the merge: the
    guard against a new CampaignResult field the fold forgets."""

    CONFIG = CampaignConfig(
        tool="bvf", kernel_version="bpf-next", budget=40, seed=1,
        flight=True, repair_feedback=True, differential=True, profile=True,
    )
    #: fields that legitimately stay per-shard (none today)
    PER_SHARD_ONLY: frozenset[str] = frozenset()

    def test_no_field_dropped(self):
        result = ParallelCampaign(self.CONFIG, workers=1, shards=2).run()
        names = [f.name for f in fields(CampaignResult)]
        filled = [n for n in names
                  if any(getattr(s, n) for s in result.shard_results)]
        # The run must exercise the oracles, or the check proves little.
        for name in EARLIEST_FIELDS + ("profile", "frontier", "metrics"):
            assert name in filled
        dropped = [n for n in filled
                   if not getattr(result, n) and n not in self.PER_SHARD_ONLY]
        assert dropped == []


class TestParallelCampaign:
    CONFIG = CampaignConfig(
        tool="bvf", kernel_version="bpf-next", budget=120, seed=4
    )

    def run(self, workers):
        return ParallelCampaign(self.CONFIG, workers=workers).run()

    @pytest.fixture(scope="class")
    def serial(self):
        return self.run(workers=1)

    @pytest.fixture(scope="class")
    def parallel(self):
        return self.run(workers=4)

    def test_worker_count_invariance(self, serial, parallel):
        """workers is a throughput knob: merged results are identical."""
        assert serial.generated == parallel.generated == self.CONFIG.budget
        assert serial.accepted == parallel.accepted
        assert sorted(serial.findings) == sorted(parallel.findings)
        assert serial.final_coverage == parallel.final_coverage
        assert serial.coverage_curve == parallel.coverage_curve
        assert serial.edge_samples == parallel.edge_samples
        assert serial.reject_errnos == parallel.reject_errnos
        assert serial.insn_classes == parallel.insn_classes
        for bug_id in serial.findings:
            assert (serial.findings[bug_id].iteration
                    == parallel.findings[bug_id].iteration)

    def test_parallel_determinism(self, parallel):
        """Two identical parallel runs merge to identical results."""
        again = self.run(workers=4)
        assert again.accepted == parallel.accepted
        assert sorted(again.findings) == sorted(parallel.findings)
        assert again.final_coverage == parallel.final_coverage
        assert again.coverage_curve == parallel.coverage_curve

    def test_finds_bugs_on_flawed_kernel(self, parallel):
        assert len(parallel.findings) >= 3

    def test_shard_metadata(self, parallel):
        assert parallel.shards == len(parallel.shard_results)
        assert [s.config.shard_index for s in parallel.shard_results] == list(
            range(parallel.shards)
        )
        plan = ParallelCampaign(self.CONFIG).shard_plan()
        starts = [start for _, _, start, _, _ in plan]
        assert starts == sorted(starts)
        assert [s.config.budget for s in parallel.shard_results] == [
            budget for _, _, _, budget, _ in plan
        ]
        assert sum(s.generated for s in parallel.shard_results) == (
            self.CONFIG.budget
        )
        seeds = {s.config.seed for s in parallel.shard_results}
        assert len(seeds) == parallel.shards

    def test_findings_are_stripped_for_pickling(self, parallel):
        for finding_ in parallel.findings.values():
            if finding_.prog is not None:
                for spec in finding_.prog.maps:
                    assert isinstance(spec, MapSpec)

    def test_stripped_finding_replays_with_spin_lock(self):
        config = PROFILES["bpf-next"]()
        kernel = Kernel(config)
        fd = kernel.map_create(MapType.HASH, 8, 16, 4, has_spin_lock=True)
        stripped = _strip_finding(BugFinding(
            bug_id="b", indicator="indicator1", report_kind="test",
            message="m", prog=GeneratedProgram(
                insns=[], prog_type=ProgType.KPROBE,
                maps=[kernel.map_by_fd(fd)], plan=ExecutionPlan()),
        ))
        assert stripped.prog.maps == [MapSpec(MapType.HASH, 8, 16, 4, True)]
        assert replay_kernel(config, stripped.prog).map_by_fd(fd).has_spin_lock

    def test_timing_populated(self, parallel):
        assert parallel.wall_seconds > 0
        assert parallel.stage_seconds["verify"] > 0
        assert parallel.stage_seconds["generate"] > 0

    def test_single_shard_inline(self):
        result = ParallelCampaign(
            CampaignConfig(tool="bvf", budget=20, seed=1),
            workers=4,
            shards=1,
        ).run()
        assert result.generated == 20
        assert result.shards == 1

    def test_shard_plan_independent_of_workers(self):
        few = ParallelCampaign(self.CONFIG, workers=1).shard_plan()
        many = ParallelCampaign(self.CONFIG, workers=16).shard_plan()
        assert few == many


class TestDifferentialInvariance:
    """Issue 6 satellite: the cross-version divergence artifacts are part
    of the worker-count-invariance contract — workers=1 and workers=4
    produce bit-identical ``strip_wall(artifact)``, differential section
    included."""

    CONFIG = CampaignConfig(
        tool="bvf",
        kernel_version="bpf-next",
        budget=60,
        seed=0,
        differential=True,
        check_invariants=True,
    )

    @pytest.fixture(scope="class")
    def serial(self):
        return ParallelCampaign(self.CONFIG, workers=1).run()

    @pytest.fixture(scope="class")
    def parallel(self):
        return ParallelCampaign(self.CONFIG, workers=4).run()

    def test_campaign_produces_divergences(self, serial):
        assert serial.divergences
        for key, div in serial.divergences.items():
            assert div["key"] == key

    def test_divergences_identical_across_workers(self, serial, parallel):
        assert serial.divergences == parallel.divergences

    def test_stripped_artifacts_identical(self, serial, parallel):
        from repro.obs.artifact import build_artifact, strip_wall

        a = strip_wall(build_artifact(serial))
        b = strip_wall(build_artifact(parallel))
        assert a == b
        assert a["differential"]["enabled"]
        assert a["differential"]["total"] == len(serial.divergences)

    def test_differential_findings_merged(self, serial):
        # Non-feature-gap divergences become findings with the
        # 'differential' indicator (or a registry bug_id).
        diff_findings = [
            f for f in serial.findings.values()
            if f.indicator == "differential"
        ]
        interesting = [
            d for d in serial.divergences.values()
            if d["classification"] != "feature-gap"
        ]
        assert len(diff_findings) == len(interesting)


class TestFlightInvariance:
    """Issue 8 satellite: flight-recorder explanations are part of the
    worker-count-invariance contract — workers=1 and workers=4 attach
    identical per-reason explanations (keyed by earliest global
    iteration), and the explained artifact survives strip_wall."""

    CONFIG = CampaignConfig(
        tool="bvf",
        kernel_version="bpf-next",
        budget=80,
        seed=5,
        flight=True,
    )

    @pytest.fixture(scope="class")
    def serial(self):
        return ParallelCampaign(self.CONFIG, workers=1).run()

    @pytest.fixture(scope="class")
    def parallel(self):
        return ParallelCampaign(self.CONFIG, workers=4).run()

    def test_campaign_produces_explanations(self, serial):
        assert serial.reject_explanations
        for reason, entry in serial.reject_explanations.items():
            assert entry["reason"] == reason
            assert entry["iteration"] >= 0
            assert entry["insn_idx"] >= 0
            assert entry["trail"]

    def test_every_reject_reason_is_explained(self, serial):
        assert (sorted(serial.reject_explanations)
                == sorted(serial.reject_reasons))

    def test_explanations_identical_across_workers(self, serial, parallel):
        assert serial.reject_explanations == parallel.reject_explanations

    def test_explanations_keep_earliest_global_iteration(self, parallel):
        # Per shard, the kept explanation is first-come; after the merge
        # the winner must be the globally earliest across shards.
        for reason, entry in parallel.reject_explanations.items():
            candidates = [
                shard.reject_explanations[reason]["iteration"]
                for shard in parallel.shard_results
                if reason in shard.reject_explanations
            ]
            assert entry["iteration"] == min(candidates)

    def test_explanations_name_global_program(self, serial):
        # The label is Campaign._explain_reject's ``{origin}_{iteration}``;
        # a sharded explanation must carry the global iteration there
        # and in its trail's ``begin`` event, not the shard-local one.
        for entry in serial.reject_explanations.values():
            assert entry["program"].endswith(f"_{entry['iteration']}")
            for event in entry["trail"]:
                if event["kind"] == "begin":
                    assert event["program"] == entry["program"]

    def test_stripped_artifacts_identical(self, serial, parallel):
        from repro.obs.artifact import build_artifact, strip_wall

        a = strip_wall(build_artifact(serial))
        b = strip_wall(build_artifact(parallel))
        assert a == b
        assert a["config"]["flight"] is True
        assert a["taxonomy"]["explanations"] == serial.reject_explanations


class TestWorkerBootstrapMetric:
    CONFIG = CampaignConfig(
        tool="bvf", kernel_version="bpf-next", budget=40, seed=0,
        collect_coverage=False,
    )

    def test_forked_workers_record_bootstrap(self):
        result = ParallelCampaign(self.CONFIG, workers=4, shards=4).run()
        assert result.bootstrap_seconds > 0
        assert result.setup_seconds > 0
        # Each shard's share is non-negative and sums to the total.
        per_shard = [s.bootstrap_seconds for s in result.shard_results]
        assert all(b >= 0 for b in per_shard)
        assert sum(per_shard) == pytest.approx(result.bootstrap_seconds)

    def test_bootstrap_lands_in_wall_metrics(self):
        result = ParallelCampaign(self.CONFIG, workers=2, shards=2).run()
        sums = result.metrics["wall"]["sums"]
        assert "worker.bootstrap_seconds" in sums
        assert "worker.setup_seconds" in sums
        assert sums["worker.bootstrap_seconds"] == pytest.approx(
            result.bootstrap_seconds
        )

    def test_bootstrap_is_wall_side_only(self):
        # The invariance contract must not see bootstrap timing.
        from repro.obs.metrics import strip_wall_fields

        result = ParallelCampaign(self.CONFIG, workers=2, shards=2).run()
        stripped = strip_wall_fields(result.metrics)
        assert "wall" not in stripped

    def test_inline_shards_attribute_bootstrap_once(self):
        # workers=1 runs shards in-process: only the first shard can
        # carry the (tiny) bootstrap interval; the rest must be zero.
        result = ParallelCampaign(self.CONFIG, workers=1, shards=4).run()
        later = [s.bootstrap_seconds for s in result.shard_results[1:]]
        assert later == [0.0, 0.0, 0.0]
