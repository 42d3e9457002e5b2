"""Cross-version differential oracle: acceptance criteria from Issue 6.

The headline property: run over the seed selftest corpus, the oracle
detects every injected flaw that manifests as a verdict or range
divergence between v5.15 / v6.1 / bpf-next — without executing a single
program — and reports zero unexplained divergences; a pair of flaw-free
profiles produces zero divergences of any kind.

Ground truth is computed independently here (direct ``prog_load`` per
profile), so the tests would catch the oracle both under-reporting
(missing a flip) and over-reporting (inventing one).
"""

from __future__ import annotations

import pytest

from repro.analysis.differential import (
    DEFAULT_PROFILES,
    DifferentialOracle,
    Divergence,
    ProfileOutcome,
)
from repro.errors import BpfError, VerifierReject
from repro.fuzz.oracle import Oracle
from repro.fuzz.structure import ExecutionPlan, GeneratedProgram
from repro.kernel.config import PROFILES, Flaw, pristine
from repro.kernel.syscall import Kernel
from repro.ebpf import asm
from repro.ebpf.helpers import HelperId
from repro.ebpf.kfuncs import KFUNC_RAND
from repro.ebpf.maps import BpfMap, MapType
from repro.ebpf.opcodes import AluOp, JmpOp, Reg, Size
from repro.ebpf.program import BpfProgram, ProgType
from repro.testsuite import all_selftests_extended


def wrap_selftest(selftest) -> GeneratedProgram:
    """Build a selftest on a scratch kernel and lift it to a
    :class:`GeneratedProgram` (maps in fd-creation order, so the
    oracle's replay kernels reproduce the embedded fd layout)."""
    kernel = Kernel(PROFILES["bpf-next"]())
    prog = selftest.build(kernel)
    maps = [obj for obj in kernel._fds.values() if isinstance(obj, BpfMap)]
    return GeneratedProgram(
        insns=list(prog.insns),
        prog_type=prog.prog_type,
        maps=maps,
        plan=ExecutionPlan(),
    )


def direct_verdict(config, gp: GeneratedProgram) -> str:
    """Ground-truth verdict via a plain prog_load, no oracle involved."""
    kernel = Kernel(config)
    for bpf_map in gp.maps:
        kernel.map_create(
            bpf_map.map_type,
            bpf_map.key_size,
            bpf_map.value_size,
            bpf_map.max_entries,
        )
    prog = BpfProgram(insns=list(gp.insns), prog_type=gp.prog_type)
    try:
        kernel.prog_load(prog, sanitize=False)
        return "accept"
    except (VerifierReject, BpfError):
        return "reject"


@pytest.fixture(scope="module")
def corpus():
    return [(st.name, wrap_selftest(st)) for st in all_selftests_extended()]


@pytest.fixture(scope="module")
def corpus_divergences(corpus):
    """name -> list[Divergence] over the three stock profiles."""
    oracle = DifferentialOracle()
    return {name: oracle.run(gp) for name, gp in corpus}


class TestProfileOutcome:
    def test_signature_ignores_profile_name(self):
        a = ProfileOutcome(profile="v5.15", verdict="accept",
                           fingerprint=((1, 2, 3, 4, 5, 6),))
        b = ProfileOutcome(profile="v6.1", verdict="accept",
                           fingerprint=((1, 2, 3, 4, 5, 6),))
        assert a.signature == b.signature

    def test_reject_reason_not_part_of_signature(self):
        # Two profiles rejecting for different stated reasons still
        # agree on the verdict; reason text is diagnostic only.
        a = ProfileOutcome(profile="a", verdict="reject", reason="R_STACK_OOB")
        b = ProfileOutcome(profile="b", verdict="reject", reason="R_UNINIT")
        assert a.signature == b.signature

    def test_fingerprint_differentiates(self):
        a = ProfileOutcome(profile="a", verdict="accept",
                           fingerprint=((0, 4, 0, 4, 4, 0),))
        b = ProfileOutcome(profile="a", verdict="accept",
                           fingerprint=((0, 18446744073709551615, 0, -1, 0,
                                         18446744073709551615),))
        assert a.signature != b.signature


class TestCorpusAcceptance:
    """The Issue-6 acceptance criterion, verified against ground truth."""

    def test_every_verdict_flip_detected(self, corpus, corpus_divergences):
        configs = {name: PROFILES[name]() for name in DEFAULT_PROFILES}
        flips = 0
        for name, gp in corpus:
            verdicts = {
                profile: direct_verdict(config, gp)
                for profile, config in configs.items()
            }
            names = sorted(verdicts)
            reported = {
                (d.profile_a, d.profile_b)
                for d in corpus_divergences[name]
            }
            for i, pa in enumerate(names):
                for pb in names[i + 1:]:
                    if verdicts[pa] == verdicts[pb]:
                        continue
                    flips += 1
                    assert (pa, pb) in reported, (
                        f"{name}: {pa}={verdicts[pa]} vs {pb}={verdicts[pb]} "
                        f"not reported by the oracle"
                    )
        # The corpus must actually exercise the property: the
        # task-struct OOB flaw flips btf_task_oob across versions.
        assert flips > 0

    def test_zero_unexplained_divergences(self, corpus_divergences):
        unexplained = [
            (name, d.key)
            for name, divs in corpus_divergences.items()
            for d in divs
            if d.classification == "unexplained"
        ]
        assert unexplained == []

    def test_every_divergence_classified(self, corpus_divergences):
        allowed = {"known-flaw", "feature-gap", "combined"}
        for divs in corpus_divergences.values():
            for d in divs:
                assert d.classification in allowed

    def test_task_struct_oob_found_as_known_flaw(self, corpus_divergences):
        """The registry-regression half: bug #2 rediscovered statically."""
        divs = corpus_divergences["btf_task_oob"]
        assert divs, "btf_task_oob must diverge across versions"
        explanations = {
            d.explanation for d in divs if d.classification == "known-flaw"
        }
        assert Flaw.TASK_STRUCT_OOB.value in explanations

    def test_no_execution_happened(self, corpus_divergences):
        # Sanity anchor for "without executing a single program": the
        # oracle never constructs an Executor; outcomes carry verifier
        # verdicts only.
        for divs in corpus_divergences.values():
            for d in divs:
                assert d.outcome_a.verdict in ("accept", "reject")
                assert d.outcome_b.verdict in ("accept", "reject")


class TestPristinePair:
    def test_flaw_free_profiles_never_diverge(self, corpus):
        """Two fully-fixed kernels differing only in version string must
        agree on every corpus program — verdicts and range states."""
        oracle = DifferentialOracle(("v6.1", "bpf-next"))
        oracle.configs = {
            "fixed-a": pristine("fixed-a"),
            "fixed-b": pristine("fixed-b"),
        }
        for name, gp in corpus:
            assert oracle.run(gp) == [], name


class TestCveWitness:
    """CVE-2022-23222: v5.15 accepts ALU on a nullable map pointer."""

    def witness(self) -> GeneratedProgram:
        kernel = Kernel(PROFILES["v5.15"]())
        fd = kernel.map_create(MapType.HASH, 8, 16, 4)
        insns = [
            asm.st_mem(Size.DW, Reg.R10, -8, 0),
            *asm.ld_map_fd(Reg.R1, fd),
            asm.mov64_reg(Reg.R2, Reg.R10),
            asm.alu64_imm(AluOp.ADD, Reg.R2, -8),
            asm.call_helper(HelperId.MAP_LOOKUP_ELEM),
            asm.mov64_reg(Reg.R1, Reg.R0),
            asm.alu64_imm(AluOp.ADD, Reg.R1, 8),
            asm.jmp_imm(JmpOp.JEQ, Reg.R1, 0, 2),
            asm.st_mem(Size.DW, Reg.R1, 0, 0x42),
            asm.ja(0),
            asm.mov64_imm(Reg.R0, 0),
            asm.exit_insn(),
        ]
        maps = [obj for obj in kernel._fds.values() if isinstance(obj, BpfMap)]
        return GeneratedProgram(
            insns=insns,
            prog_type=ProgType.SOCKET_FILTER,
            maps=maps,
            plan=ExecutionPlan(),
        )

    def test_verdict_divergence_attributed_to_cve(self):
        oracle = DifferentialOracle(("v5.15", "v6.1"))
        divs = oracle.run(self.witness())
        assert len(divs) == 1
        div = divs[0]
        assert div.kind == "verdict"
        assert {div.outcome_a.verdict, div.outcome_b.verdict} == {
            "accept", "reject"
        }
        assert div.classification == "known-flaw"
        assert div.explanation == Flaw.CVE_2022_23222.value


class TestKfuncBacktrackWitness:
    """Bug #3 manifests as a *range* divergence: both profiles accept,
    but the flawed one keeps stale R0 bounds across the kfunc call."""

    def witness(self) -> GeneratedProgram:
        insns = [
            asm.mov64_imm(Reg.R0, 4),
            asm.call_kfunc(KFUNC_RAND),
            asm.exit_insn(),
        ]
        return GeneratedProgram(
            insns=insns,
            prog_type=ProgType.KPROBE,
            maps=[],
            plan=ExecutionPlan(),
        )

    def test_range_divergence_attributed_to_bug3(self):
        oracle = DifferentialOracle(("v6.1", "bpf-next"))
        divs = oracle.run(self.witness())
        assert len(divs) == 1
        div = divs[0]
        assert div.kind == "range"
        assert div.outcome_a.verdict == div.outcome_b.verdict == "accept"
        assert div.outcome_a.fingerprint != div.outcome_b.fingerprint
        assert div.classification == "known-flaw"
        assert div.explanation == Flaw.KFUNC_BACKTRACK.value


class TestOracleFindingPolicy:
    """How ``Oracle.classify_divergence`` maps divergences to findings."""

    def divergence(self, classification: str, explanation: str) -> Divergence:
        return Divergence(
            kind="verdict",
            profile_a="v5.15",
            profile_b="v6.1",
            outcome_a=ProfileOutcome("v5.15", "accept"),
            outcome_b=ProfileOutcome("v6.1", "reject", reason="R_PTR_ALU"),
            classification=classification,
            explanation=explanation,
            iteration=12,
        )

    def oracle(self) -> Oracle:
        return Oracle(PROFILES["bpf-next"]())

    def test_feature_gap_produces_no_finding(self):
        div = self.divergence("feature-gap", "has_kfuncs")
        assert self.oracle().classify_divergence(div) is None

    def test_known_flaw_maps_to_registry_bug_id(self):
        div = self.divergence("known-flaw", Flaw.CVE_2022_23222.value)
        finding = self.oracle().classify_divergence(div)
        assert finding.bug_id == Flaw.CVE_2022_23222.value
        assert finding.indicator == "differential"
        assert finding.is_verifier_bug

    def test_unexplained_gets_stable_digest_id(self):
        div = self.divergence("unexplained", "outcome not reproduced")
        a = self.oracle().classify_divergence(div)
        b = self.oracle().classify_divergence(div)
        assert a.bug_id == b.bug_id
        assert a.bug_id.startswith("differential:unexplained:v5.15-vs-v6.1:")
