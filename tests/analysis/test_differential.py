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

from dataclasses import replace

import pytest

from repro import obs
from repro.analysis import differential
from repro.analysis.differential import (
    DEFAULT_PROFILES,
    DifferentialOracle,
    Divergence,
    ProfileOutcome,
    _ReadRecorder,
    recording_reads,
)
from repro.errors import BpfError, VerifierReject
from repro.fuzz.generator import StructuredGenerator
from repro.fuzz.oracle import Oracle
from repro.fuzz.rng import FuzzRng
from repro.fuzz.structure import ExecutionPlan, GeneratedProgram
from repro.kernel.config import PROFILES, Flaw, pristine
from repro.kernel.syscall import Kernel
from repro.ebpf import asm
from repro.ebpf.helpers import HelperId
from repro.ebpf.kfuncs import KFUNC_GET_TASK, KFUNC_RAND
from repro.ebpf.maps import BpfMap, MapType
from repro.ebpf.opcodes import AluOp, JmpOp, Reg, Size
from repro.ebpf.program import BpfProgram, ProgType
from repro.testsuite import all_selftests_extended
from repro.verifier.core import Verifier


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


class TestPairWitnesses:
    """v5.15 rejects and v6.1 accepts, and no single registry difference
    explains it: the smallest explaining set is a pair."""

    def program(self, *insns) -> GeneratedProgram:
        return GeneratedProgram(insns=[*insns, asm.mov64_imm(Reg.R0, 0),
                                       asm.exit_insn()],
                                prog_type=ProgType.KPROBE, maps=[],
                                plan=ExecutionPlan())

    def two_features(self) -> GeneratedProgram:
        """A kfunc call (``has_kfuncs``) and a sign-extending load (gated
        by ``has_bpf_loop``): v5.15 lacks both features."""
        return self.program(
            asm.st_mem(Size.DW, Reg.R10, -8, 0),
            asm.call_kfunc(KFUNC_RAND),
            asm.ldx_memsx(Size.B, Reg.R1, Reg.R10, -8),
        )

    def flaw_and_feature(self) -> GeneratedProgram:
        """A kfunc-returned task_struct read inside bug2's slack: v5.15
        has neither kfuncs nor bug2."""
        return self.program(
            asm.call_kfunc(KFUNC_GET_TASK),
            asm.ldx_mem(Size.H, Reg.R1, Reg.R0, 128),
        )

    def divergence(self, gp) -> Divergence:
        [div] = DifferentialOracle(("v5.15", "v6.1")).run(gp)
        assert (div.outcome_a.verdict, div.outcome_b.verdict) == (
            "reject", "accept")
        return div

    def test_two_features_are_a_feature_gap(self):
        div = self.divergence(self.two_features())
        assert div.classification == "feature-gap"
        assert div.explanation == "has_kfuncs,has_bpf_loop"
        assert Oracle(PROFILES["bpf-next"]()).classify_divergence(div) is None

    def test_flaw_and_feature_are_combined(self):
        div = self.divergence(self.flaw_and_feature())
        assert div.classification == "combined"
        assert div.explanation == f"{Flaw.TASK_STRUCT_OOB.value},has_kfuncs"
        finding = Oracle(PROFILES["bpf-next"]()).classify_divergence(div)
        assert finding.bug_id.startswith(
            "differential:combined:v5.15-vs-v6.1:")

    def test_report_counts_pair_asks_as_replays(self, verifications):
        """``repro report``'s verifications line (asked − primary −
        reused, asked = profiles × programs + replays) still counts
        every real verification when pair asks are replays."""
        from repro.analysis.reports import render_dashboard
        from repro.obs.metrics import MetricsRegistry

        programs = [self.two_features(), self.flaw_and_feature()]
        registry = MetricsRegistry()
        token = obs.install(registry)
        try:
            divs = [div for gp in programs
                    for div in DifferentialOracle().run(gp)]
        finally:
            obs.restore(token)
        counters = registry.snapshot()["counters"]
        assert any(div.classification != "unexplained"
                   and "," in div.explanation for div in divs)
        text = render_dashboard({
            "summary": {"generated": len(programs)},
            "metrics": {"counters": counters},
            "differential": {"enabled": True},
        })
        assert (f"  verifications: {len(verifications)} run, 0 answered "
                f"by the primary load, "
                f"{counters['differential.reused']} from earlier reads"
                ) in text.splitlines()


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


# --------------------------------------------------------------------------
# Answering outcomes from recorded reads
# --------------------------------------------------------------------------

#: generated bpf-next programs the reuse check compares, per seed
GENERATED_PER_SEED = 80
GENERATOR_SEEDS = (1, 2, 3, 4)


@pytest.fixture(scope="module")
def generated():
    programs = []
    for seed in GENERATOR_SEEDS:
        rng = FuzzRng(seed)
        for _ in range(GENERATED_PER_SEED):
            kernel = Kernel(PROFILES["bpf-next"]())
            programs.append(StructuredGenerator(kernel, rng).generate())
    return programs


@pytest.fixture
def verifications(monkeypatch):
    """The configs of every real verification, in order."""
    configs = []
    verify_under = DifferentialOracle.verify_under

    def spy(self, config, gp, *args, **kwargs):
        configs.append(config)
        return verify_under(self, config, gp, *args, **kwargs)

    monkeypatch.setattr(DifferentialOracle, "verify_under", spy)
    return configs


def _without_reuse(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(differential, "_agrees", lambda config, reads: False)
        return run()


class TestReuseChangesNothing:
    """Reuse returns the same divergences, field for field, as a run in
    which every outcome is verified."""

    def test_generated_programs(self, generated, monkeypatch,
                                verifications):
        oracle = DifferentialOracle()
        reused = [oracle.run(gp, iteration=i) for i, gp in enumerate(generated)]
        run_with_reuse = len(verifications)
        verified = _without_reuse(monkeypatch, lambda: [
            oracle.run(gp, iteration=i) for i, gp in enumerate(generated)
        ])
        assert len(generated) >= 300
        for i, (a, b) in enumerate(zip(reused, verified)):
            assert a == b, f"generated program {i}"
        assert any(verified), "the programs must diverge somewhere"
        assert run_with_reuse < len(verifications) - run_with_reuse

    def test_selftests(self, corpus, corpus_divergences, monkeypatch):
        oracle = DifferentialOracle()
        for name, gp in corpus:
            verified = _without_reuse(monkeypatch, lambda: oracle.run(gp))
            assert corpus_divergences[name] == verified, name


class TestReadRecorder:
    def gp(self) -> GeneratedProgram:
        return TestKfuncBacktrackWitness().witness()

    def test_records_flaw_answers_and_feature_values(self):
        config, reads = PROFILES["v6.1"](), {}
        view = _ReadRecorder(config, reads)
        assert view.has_flaw(Flaw.TASK_STRUCT_OOB)
        assert not view.has_flaw(Flaw.NULLNESS_PROPAGATION)
        assert view.has_kfuncs and not view.has_nullness_propagation
        assert reads == {
            Flaw.TASK_STRUCT_OOB: True,
            Flaw.NULLNESS_PROPAGATION: False,
            "has_kfuncs": True,
            "has_nullness_propagation": False,
        }

    @pytest.mark.parametrize("read", [
        lambda view: view.flaws,
        lambda view: view.verifier_flaws(),
        lambda view: view.with_flaw(Flaw.KFUNC_BACKTRACK),
        lambda view: view.version,
        lambda view: view == PROFILES["v6.1"](),
        lambda view: hash(view),
    ], ids=["flaws", "verifier_flaws", "with_flaw", "version", "eq", "hash"])
    def test_unattributable_read_poisons(self, read):
        reads = {}
        read(_ReadRecorder(PROFILES["v6.1"](), reads))
        assert differential._POISONED in reads

    @pytest.mark.parametrize("read", [
        lambda config: config.flaws,
        lambda config: config.component_flaws(),
    ], ids=["flaws", "unknown-method"])
    def test_poisoned_record_is_never_reused(self, read, monkeypatch,
                                             verifications):
        verify = Verifier.verify

        def reading_verify(self):
            read(self.config)
            return verify(self)

        monkeypatch.setattr(Verifier, "verify", reading_verify)
        oracle, memo, config = DifferentialOracle(), [], PROFILES["v6.1"]()
        first = oracle._outcome(config, self.gp(), memo)
        second = oracle._outcome(config, self.gp(), memo)
        assert memo == []
        assert verifications == [config, config]
        assert first == second

    def test_clean_record_is_reused(self, verifications):
        oracle, memo, config = DifferentialOracle(), [], PROFILES["v6.1"]()
        first = oracle._outcome(config, self.gp(), memo)
        assert oracle._outcome(config, self.gp(), memo) == first
        assert verifications == [config]
        assert len(memo) == 1

    def test_run_never_answers_from_another_program(self, verifications):
        oracle = DifferentialOracle(("v6.1",))
        accept, reject = self.gp(), TestCveWitness().witness()
        oracle.run(accept)
        oracle.run(reject)
        oracle.run(accept)
        assert len(verifications) == 3
        assert list(vars(oracle)) == ["configs"]

    def test_verify_under_alone_verifies(self, verifications):
        oracle, config = DifferentialOracle(("bpf-next",)), PROFILES["v6.1"]()
        first = oracle.verify_under(config, self.gp())
        assert oracle.verify_under(config, self.gp()) == first
        assert len(verifications) == 2
        assert first.profile == "v6.1" and first.verdict == "accept"
        reads = {}
        assert oracle.verify_under(config, self.gp(), reads=reads) == first
        assert reads[Flaw.KFUNC_BACKTRACK] is False
        assert reads["has_kfuncs"] is True

    def test_reused_outcome_carries_asking_profile(self, verifications):
        oracle = DifferentialOracle()
        oracle.configs = {"fixed-a": pristine("fixed-a"),
                          "fixed-b": pristine("fixed-b")}
        memo = []
        a = oracle._outcome(oracle.configs["fixed-a"], self.gp(), memo,
                            profile="fixed-a")
        b = oracle._outcome(oracle.configs["fixed-b"], self.gp(), memo,
                            profile="fixed-b")
        toggled = oracle._outcome(pristine("fixed-c"), self.gp(), memo)
        assert len(verifications) == 1
        assert (a.profile, b.profile, toggled.profile) == (
            "fixed-a", "fixed-b", "fixed-c")
        assert a.signature == b.signature == toggled.signature

    def test_combined_replay_always_verifies(self, verifications):
        oracle = DifferentialOracle()
        cfg_a, cfg_b = PROFILES["v5.15"](), PROFILES["bpf-next"]()
        # A record that agrees with every config answers every single
        # toggle, none of them with the (unreachable) target.
        memo = [({}, ProfileOutcome("v5.15", "accept"),
                 "differential.reused")]
        target = ProfileOutcome("bpf-next", "accept", fingerprint=("x",))
        assert oracle._classify(self.gp(), cfg_a, cfg_b, target, memo) == (
            "unexplained", "outcome not reproduced by any registry delta")
        assert verifications == [replace(
            cfg_a, flaws=cfg_b.flaws,
            **{name: getattr(cfg_b, name)
               for name in differential._FEATURE_FIELDS},
        )]


def _primary_load(kernel, gp) -> tuple:
    """The campaign's primary load of ``gp`` on the kernel it was built
    on, under a read recorder: (reads, returned program or error)."""
    reads: dict = {}
    prog = BpfProgram(insns=list(gp.insns), prog_type=gp.prog_type,
                      name="primary", offload_dev=gp.offload_dev)
    with recording_reads(kernel, reads):
        try:
            return reads, kernel.prog_load(prog, sanitize=True)
        except BpfError as error:
            return reads, error


class TestPrimaryLoadRecord:
    """The primary load's record answers exactly what ``verify_under``
    of the same program on the same config would."""

    def subjects(self):
        rng = FuzzRng(9)
        generator = StructuredGenerator(None, rng)
        for _ in range(GENERATED_PER_SEED * 3):
            kernel = Kernel(PROFILES["bpf-next"]())
            yield kernel, generator.generate(kernel)
        for selftest in all_selftests_extended():
            kernel = Kernel(PROFILES["bpf-next"]())
            prog = selftest.build(kernel)
            yield kernel, GeneratedProgram(
                insns=list(prog.insns),
                prog_type=prog.prog_type,
                maps=[obj for obj in kernel._fds.values()
                      if isinstance(obj, BpfMap)],
                plan=ExecutionPlan(),
            )

    def test_outcome_and_reads_match_verify_under(self):
        oracle, verdicts = DifferentialOracle(()), set()
        for index, (kernel, gp) in enumerate(self.subjects()):
            reads, result = _primary_load(kernel, gp)
            verify_reads: dict = {}
            expected = oracle.verify_under(kernel.config, gp,
                                           reads=verify_reads)
            recorded, outcome, counter = differential._load_record(
                reads, result)
            assert outcome == replace(expected, profile=""), index
            assert counter == "differential.primary"
            # The sanitizer pass adds one feature read, the same in
            # every profile; everything else was read alike.
            assert reads.keys() - verify_reads.keys() <= {
                "sanitizer_available"}, index
            assert verify_reads.items() <= reads.items(), index
            verdicts.add((outcome.verdict, bool(outcome.fingerprint)))
        assert verdicts == {("accept", True), ("reject", False)}

    def test_poisoned_load_gives_no_record(self):
        kernel = Kernel(PROFILES["bpf-next"]())
        reads, result = _primary_load(kernel,
                                      TestKfuncBacktrackWitness().witness())
        assert differential._load_record(reads, result) is not None
        reads[differential._POISONED] = "flaws"
        assert differential._load_record(reads, result) is None

    def test_campaign_never_verifies_its_own_profile(self, verifications):
        from repro.fuzz.campaign import Campaign, CampaignConfig

        result = Campaign(CampaignConfig(budget=40, seed=3,
                                         differential=True)).run()
        counters = result.metrics["counters"]
        assert counters["differential.primary"] >= result.generated
        assert PROFILES["bpf-next"]() not in verifications
        assert len(verifications) + counters["differential.primary"] + \
            counters["differential.reused"] == (
                len(DEFAULT_PROFILES) * result.generated
                + counters.get("differential.replays", 0))


class TestExitFingerprint:
    """Both the primary-load record and ``verify_under`` compare
    ``_fingerprint`` of the verified program's ``exit_r0``."""

    def two_exits(self) -> GeneratedProgram:
        insns = [
            asm.call_kfunc(KFUNC_RAND),
            asm.jmp_imm(JmpOp.JEQ, Reg.R0, 0, 2),
            asm.mov64_imm(Reg.R0, 1),
            asm.exit_insn(),
            asm.mov64_imm(Reg.R0, 2),
            asm.exit_insn(),
        ]
        return GeneratedProgram(insns=insns, prog_type=ProgType.KPROBE,
                                maps=[], plan=ExecutionPlan())

    def test_one_summary_per_exiting_path(self):
        outcome = DifferentialOracle(()).verify_under(
            PROFILES["bpf-next"](), self.two_exits())
        assert outcome.verdict == "accept"
        assert outcome.fingerprint == ((1, 1, 1, 1, 1, 0),
                                       (2, 2, 2, 2, 2, 0))

    def test_sorted_multiset_of_exit_states(self):
        from types import SimpleNamespace

        def r0(value):
            return SimpleNamespace(
                umin=value, umax=value, smin=value, smax=value,
                var_off=SimpleNamespace(value=value, mask=0))

        exits = [r0(3), r0(1), r0(3)]
        forward = differential._fingerprint(SimpleNamespace(exit_r0=exits))
        backward = differential._fingerprint(
            SimpleNamespace(exit_r0=exits[::-1]))
        assert forward == backward == (
            (1,) * 5 + (0,), (3,) * 5 + (0,), (3,) * 5 + (0,))

    def test_verifier_keeps_one_exit_record(self):
        gp = self.two_exits()
        prog = BpfProgram(insns=list(gp.insns), prog_type=gp.prog_type)
        kernel = Kernel(PROFILES["bpf-next"]())
        with pytest.raises(TypeError):
            Verifier(kernel, prog, collect_exit_states=True)
        verifier = Verifier(kernel, prog)
        assert len(verifier.verify().exit_r0) == 2
        assert not hasattr(verifier, "exit_r0_summaries")
