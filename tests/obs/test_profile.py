"""Hierarchical-profiler tests: accounting algebra, campaign
integration, worker invariance, and the self-time coverage floor.

Tentpole requirements covered here:

- frame self/cum telescoping: at every node ``self = cum - Σ
  children.cum``, so total self time equals total root cumulative;
- counts are exact and worker-count invariant (workers=1 vs 4 merge to
  bit-identical ``counts`` sections);
- the self times under the ``verify`` root sum to >=95% of the
  measured verify stage wall on a real campaign;
- as an event subscriber it unwinds every frame a verification opened,
  whether the verification ends in a verdict or an abort, and the
  campaign only creates a profiler when ``config.profile`` is on.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.ebpf import asm
from repro.ebpf.opcodes import AluOp, JmpOp, Reg
from repro.ebpf.program import BpfProgram
from repro.errors import VerifierReject
from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.parallel import ParallelCampaign
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.obs.artifact import build_artifact, strip_wall
from repro.obs.profile import (
    VerifierProfiler,
    merge_profiles,
    render_profile,
    strip_profile_wall,
)


@pytest.fixture(scope="module")
def profiled_result():
    config = CampaignConfig(tool="bvf", budget=100, seed=11, profile=True)
    return Campaign(config).run()


def _load(profiler, insns, check_invariants=False):
    """prog_load ``insns`` on patched with ``profiler`` observing, under
    a ``verify`` root frame like the campaign's."""
    kernel = Kernel(PROFILES["patched"]())
    token = obs.install(None, None, profiler)
    profiler.push("verify")
    try:
        kernel.prog_load(BpfProgram(insns=insns),
                         check_invariants=check_invariants)
    finally:
        profiler.pop()
        obs.restore(token)


_BRANCHY = [
    asm.mov64_imm(Reg.R0, 1),
    asm.alu64_imm(AluOp.ADD, Reg.R0, 2),
    asm.jmp_imm(JmpOp.JEQ, Reg.R0, 0, 1),
    asm.mov64_imm(Reg.R0, 2),
    asm.exit_insn(),
]


class TestNullProfiler:
    def test_default_process_profiler_is_null(self):
        # There is no null profiler object: a campaign without
        # --profile (nor --flight/--trace) installs no observer at all.
        seen = []

        class Probe(Campaign):
            def _load(self, kernel, prog):
                seen.append(obs.observer())
                return super()._load(kernel, prog)

        Probe(CampaignConfig(budget=3, seed=0)).run()
        assert seen and all(observer is None for observer in seen)
        assert obs.observer() is None


class TestEventAccounting:
    def test_leaves_follow_the_steps(self):
        prof = VerifierProfiler()
        _load(prof, _BRANCHY)
        nodes = prof.snapshot()["counts"]["nodes"]
        assert nodes["verify"] == 1
        for stage in ("structure", "resolve", "do_check", "fixup"):
            assert nodes[f"verify/{stage}"] == 1
        # r0 = 3 is known, so the branch is decided: one path, one
        # step per instruction, and no fork.
        assert nodes["verify/do_check/alu"] == 3
        assert nodes["verify/do_check/jump.cond"] == 1
        assert nodes["verify/do_check/exit"] == 1
        counts = prof.snapshot()["counts"]
        assert counts["alu_ops"] == {"ADD64": 1, "MOV64": 2}
        assert counts["jmp_ops"] == {"JEQ": 1}
        assert prof._stack == []

    def test_reject_unwinds_to_the_root_frame(self):
        prof = VerifierProfiler()
        with pytest.raises(VerifierReject):
            _load(prof, [asm.mov64_reg(Reg.R0, Reg.R2), asm.exit_insn()])
        nodes = prof.snapshot()["counts"]["nodes"]
        assert nodes["verify/do_check/alu"] == 1
        assert "verify/fixup" not in nodes
        assert prof._stack == []


class TestAccounting:
    def test_counts_and_paths(self):
        prof = VerifierProfiler()
        prof.push("verify")
        prof.push("do_check")
        prof.pop()
        prof.push("do_check")
        prof.pop()
        prof.pop()
        snap = prof.snapshot()
        assert snap["counts"]["nodes"] == {
            "verify": 1, "verify/do_check": 2,
        }

    def test_self_cum_telescoping(self):
        prof = VerifierProfiler()
        prof.push("root")
        prof.push("a")
        prof.push("leaf")
        prof.pop()
        prof.pop()
        prof.push("b")
        prof.pop()
        prof.pop()
        wall = prof.snapshot()["wall"]["nodes"]
        root = wall["root"]
        # self = cum - sum of direct children cum, at every node.
        children = wall["root/a"]["cum"] + wall["root/b"]["cum"]
        assert root["self"] == pytest.approx(root["cum"] - children)
        # Total self telescopes to the root cumulative exactly.
        total_self = sum(times["self"] for times in wall.values())
        assert total_self == pytest.approx(root["cum"])

    def test_pop_on_exception(self):
        # An abort (an exception that is not a verdict) closes every
        # frame the verification opened, and only those.
        prof = VerifierProfiler()
        prof.push("outer")
        prof.begin("p", 1)
        prof.enter("inner")
        prof.abort(ValueError("boom"))
        prof.pop()
        assert prof._stack == []
        assert prof.snapshot()["counts"]["nodes"] == {
            "outer": 1, "outer/inner": 1,
        }

    def test_flat_counters(self):
        prof = VerifierProfiler()
        prof.alu_ops["ADD64"] += 2
        prof.helpers["bpf_map_lookup_elem"] += 1
        prof.ops["prune.miss"] += 3
        counts = prof.snapshot()["counts"]
        assert counts["alu_ops"] == {"ADD64": 2}
        assert counts["helpers"] == {"bpf_map_lookup_elem": 1}
        assert counts["ops"] == {"prune.miss": 3}


class TestMergeAndStrip:
    def _snap(self, n):
        prof = VerifierProfiler()
        prof.push("verify")
        prof.pop()
        prof.alu_ops["ADD64"] += n
        return prof.snapshot()

    def test_merge_sums_counts_and_wall(self):
        merged = merge_profiles([self._snap(1), self._snap(2), {}])
        assert merged["counts"]["nodes"] == {"verify": 2}
        assert merged["counts"]["alu_ops"] == {"ADD64": 3}
        assert merged["wall"]["nodes"]["verify"]["cum"] > 0

    def test_merge_all_empty_is_empty(self):
        assert merge_profiles([{}, {}]) == {}

    def test_strip_profile_wall(self):
        snap = self._snap(1)
        stripped = strip_profile_wall(snap)
        assert "wall" not in stripped
        assert stripped["counts"] == snap["counts"]
        assert strip_profile_wall({}) == {}


class TestCampaignIntegration:
    def test_profile_snapshot_populated(self, profiled_result):
        counts = profiled_result.profile["counts"]
        # The campaign root frame and the verifier pipeline under it.
        assert counts["nodes"]["verify"] == profiled_result.generated
        assert "verify/do_check" in counts["nodes"]
        assert "verify/structure" in counts["nodes"]
        assert counts["alu_ops"]  # scalar ALU dominates generation
        assert any(key.startswith("prune.") for key in counts["ops"])
        assert "sanitizer.sites" in counts["ops"]

    def test_profile_off_by_default(self):
        result = Campaign(CampaignConfig(budget=5, seed=0)).run()
        assert result.profile == {}

    def test_self_times_cover_verify_wall(self, profiled_result):
        # The acceptance floor: the self times under the verify root
        # must account for >=95% of the measured verify stage wall
        # (telescoping makes this exact up to the stage context-manager
        # overhead).
        wall = profiled_result.profile["wall"]["nodes"]
        verify_self = sum(times["self"] for path, times in wall.items()
                          if path.split("/")[0] == "verify")
        assert verify_self >= 0.95 * profiled_result.stage_seconds["verify"]

    def test_deterministic_across_runs(self):
        config = CampaignConfig(budget=30, seed=3, profile=True)
        a = Campaign(config).run().profile["counts"]
        b = Campaign(config).run().profile["counts"]
        assert a == b


class TestWorkerInvariance:
    @pytest.fixture(scope="class")
    def sharded(self):
        config = CampaignConfig(budget=80, seed=9, profile=True)
        one = ParallelCampaign(config, workers=1, shards=4).run()
        four = ParallelCampaign(config, workers=4, shards=4).run()
        return one, four

    def test_profile_counts_bit_identical(self, sharded):
        one, four = sharded
        a = json.dumps(strip_profile_wall(one.profile), sort_keys=True)
        b = json.dumps(strip_profile_wall(four.profile), sort_keys=True)
        assert a == b

    def test_artifact_sections_bit_identical(self, sharded):
        one, four = sharded
        a = strip_wall(build_artifact(one))
        b = strip_wall(build_artifact(four))
        assert json.dumps(a["profile"], sort_keys=True) == json.dumps(
            b["profile"], sort_keys=True
        )
        assert json.dumps(a["frontier"], sort_keys=True) == json.dumps(
            b["frontier"], sort_keys=True
        )

    def test_stripped_profile_has_no_wall(self, sharded):
        one, _ = sharded
        artifact = strip_wall(build_artifact(one))
        assert "wall" not in artifact["profile"]
        assert artifact["profile"]["enabled"] is True


class TestRender:
    def test_render_full_snapshot(self, profiled_result):
        text = render_profile(profiled_result.profile)
        assert "verifier profile:" in text
        assert "hotspots" in text
        assert "ALU ops" in text
        assert "self %" in text

    def test_render_degrades_without_wall(self, profiled_result):
        text = render_profile(strip_profile_wall(profiled_result.profile))
        assert "verifier profile:" in text
        assert "hotspots" not in text
        assert "self %" not in text

    def test_render_empty(self):
        assert "no profile data" in render_profile({})
