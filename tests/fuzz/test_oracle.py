"""Oracle classification and differential-triage tests."""

from __future__ import annotations

import errno
import io
import json
from types import SimpleNamespace

import pytest

from repro import obs
from repro.errors import (
    BpfError,
    InvariantViolation,
    KasanReport,
    KernelPanic,
    LockdepReport,
    NullDerefReport,
    RecursionReport,
    SanitizerReport,
    VerifierReject,
    WarnReport,
)
from repro.kernel.config import PROFILES, Flaw
from repro.ebpf import asm
from repro.ebpf.helpers import HelperId
from repro.ebpf.kfuncs import KFUNC_GET_TASK, KFUNC_TASK_PID
from repro.ebpf.maps import MapType
from repro.ebpf.opcodes import AluOp, JmpOp, Reg, Size
from repro.ebpf.program import BpfProgram, ProgType
from repro.fuzz.oracle import Oracle
from repro.fuzz.structure import ExecutionPlan, GeneratedProgram
from repro.kernel.syscall import Kernel, replay_kernel
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import JsonlTraceRecorder
from repro.runtime.executor import Executor


def oracle():
    return Oracle(PROFILES["bpf-next"]())


class TestIndicator2Classification:
    def test_trace_printk_lockdep(self):
        report = LockdepReport("recursive", context={"lock": "trace_printk_lock"})
        finding = oracle().classify_report(report, None)
        assert finding.bug_id == Flaw.TRACE_PRINTK_DEADLOCK.value
        assert finding.indicator == "indicator2"
        assert finding.is_verifier_bug

    def test_contention_recursion(self):
        report = RecursionReport("rec", context={"tracepoint": "contention_begin"})
        finding = oracle().classify_report(report, None)
        assert finding.bug_id == Flaw.CONTENTION_BEGIN_LOCK.value

    def test_signal_panic(self):
        report = KernelPanic("bpf_send_signal from NMI")
        finding = oracle().classify_report(report, None)
        assert finding.bug_id == Flaw.SIGNAL_PANIC.value

    def test_ringbuf_lock_component(self):
        report = LockdepReport("sleep", context={"lock": "ringbuf_waitq_lock"})
        finding = oracle().classify_report(report, None)
        assert finding.bug_id == Flaw.IRQ_WORK_LOCK.value
        assert finding.indicator == "component"

    def test_dispatcher_null_deref(self):
        report = NullDerefReport("bpf dispatcher: null program slot executed")
        finding = oracle().classify_report(report, None)
        assert finding.bug_id == Flaw.DISPATCHER_RACE.value

    def test_offload_warn(self):
        report = WarnReport("executing device-offloaded BPF program on the host")
        finding = oracle().classify_report(report, None)
        assert finding.bug_id == Flaw.XDP_DEV_HOST.value

    def test_htab_iter_kasan(self):
        report = KasanReport("htab-iter: slab-out-of-bounds read")
        finding = oracle().classify_report(report, None)
        assert finding.bug_id == Flaw.MAP_BUCKET_ITER.value

    def test_kmemdup_syscall_error(self):
        error = BpfError(errno.ENOMEM, "kmemdup of 9000 bytes failed")
        finding = oracle().classify_syscall_error(error, None)
        assert finding.bug_id == Flaw.KMEMDUP_LIMIT.value

    def test_ordinary_syscall_error_ignored(self):
        error = BpfError(errno.EINVAL, "bad argument")
        assert oracle().classify_syscall_error(error, None) is None


class TestEmission:
    def test_every_classify_method_counts_and_logs_its_finding(self):
        """All four public methods file through one path: one
        ``oracle.reports``, one ``oracle.<indicator>`` and one
        ``oracle.finding`` event per finding."""
        divergence = SimpleNamespace(
            classification="known-flaw", kind="verdict",
            explanation=Flaw.CVE_2022_23222.value,
            profile_a="bpf-next", profile_b="v5.15")
        registry, stream = MetricsRegistry(), io.StringIO()
        token = obs.install(registry, JsonlTraceRecorder(stream))
        try:
            o = oracle()
            findings = [
                o.classify_report(KernelPanic("bpf_send_signal"), None),
                o.classify_syscall_error(
                    BpfError(errno.ENOMEM, "kmemdup failed"), None),
                o.classify_divergence(divergence),
                o.classify_invariant(
                    InvariantViolation("INV_TNUM", "bad"), None),
            ]
        finally:
            obs.restore(token)
        counters = registry.snapshot()["counters"]
        assert counters["oracle.reports"] == 4
        for indicator in ("indicator2", "component", "differential",
                          "invariant"):
            assert counters[f"oracle.{indicator}"] == 1
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [(e["name"], e["bug_id"], e["indicator"], e["report"])
                for e in events] == [
            ("oracle.finding", f.bug_id, f.indicator, f.report_kind)
            for f in findings]


class TestTriage:
    def _cve_program(self, kernel):
        fd = kernel.map_create(MapType.HASH, 8, 16, 4)
        insns = [
            asm.st_mem(Size.DW, Reg.R10, -8, 0),
            *asm.ld_map_fd(Reg.R1, fd),
            asm.mov64_reg(Reg.R2, Reg.R10),
            asm.alu64_imm(AluOp.ADD, Reg.R2, -8),
            asm.call_helper(HelperId.MAP_LOOKUP_ELEM),
            asm.alu64_imm(AluOp.ADD, Reg.R0, 8),
            asm.jmp_imm(JmpOp.JNE, Reg.R0, 0, 2),
            asm.mov64_imm(Reg.R0, 0),
            asm.exit_insn(),
            asm.st_mem(Size.DW, Reg.R0, 0, 1),
            asm.mov64_imm(Reg.R0, 0),
            asm.exit_insn(),
        ]
        return GeneratedProgram(
            insns=insns,
            prog_type=ProgType.SOCKET_FILTER,
            maps=[kernel.map_by_fd(fd)],
            plan=ExecutionPlan(),
        )

    def test_triage_attributes_cve(self):
        config = PROFILES["v5.15"]()
        kernel = Kernel(config)
        gp = self._cve_program(kernel)
        o = Oracle(config)
        report = SanitizerReport("asan", address=8, size=8, is_write=True)
        finding = o.classify_report(report, gp)
        assert finding.bug_id == Flaw.CVE_2022_23222.value
        assert finding.indicator == "indicator1"

    def test_triage_replays_every_report(self, monkeypatch):
        """The oracle keeps no state: the same report classified twice
        is replayed twice and gets the same id."""
        loads = []
        prog_load = Kernel.prog_load

        def counted(kernel, *args, **kwargs):
            loads.append(kernel.config)
            return prog_load(kernel, *args, **kwargs)

        config = PROFILES["v5.15"]()
        gp = self._cve_program(Kernel(config))
        o = Oracle(config)
        report = SanitizerReport("asan", address=8, size=8, is_write=True)
        monkeypatch.setattr(Kernel, "prog_load", counted)
        first = o.classify_report(report, gp)
        replays = len(loads)
        second = o.classify_report(report, gp)
        assert first.bug_id == second.bug_id == Flaw.CVE_2022_23222.value
        assert replays > 0
        assert len(loads) == 2 * replays
        assert loads[:replays] == loads[replays:]
        assert vars(o) == {"config": config}

    def _pair_program(self) -> GeneratedProgram:
        """A task_struct read at offset 128 that only bug2 and bug3
        together let through: bug3 keeps R0's stale 0 across the
        ``task_pid`` kfunc, so the read looks dead; without bug3 it is
        live, and bug2's slack still passes it."""
        insns = [
            asm.call_kfunc(KFUNC_GET_TASK),
            asm.mov64_reg(Reg.R9, Reg.R0),
            asm.mov64_imm(Reg.R0, 0),
            asm.mov64_reg(Reg.R1, Reg.R9),
            asm.call_kfunc(KFUNC_TASK_PID),
            asm.jmp_imm(JmpOp.JEQ, Reg.R0, 0, 1),
            asm.ldx_mem(Size.H, Reg.R1, Reg.R9, 128),
            asm.mov64_imm(Reg.R0, 0),
            asm.exit_insn(),
        ]
        return GeneratedProgram(insns=insns, prog_type=ProgType.KPROBE,
                                maps=[], plan=ExecutionPlan())

    def test_triage_attributes_a_flaw_pair(self):
        config = PROFILES["bpf-next"]()
        gp = self._pair_program()
        kernel = Kernel(config)
        verified = kernel.prog_load(
            BpfProgram(insns=list(gp.insns), prog_type=gp.prog_type),
            sanitize=True)
        report = Executor(kernel).run(verified).report
        assert isinstance(report, SanitizerReport)

        finding = Oracle(config).classify_report(report, gp)
        assert finding.bug_id == (f"{Flaw.TASK_STRUCT_OOB.value},"
                                  f"{Flaw.KFUNC_BACKTRACK.value}")
        assert finding.indicator == "indicator1"

    def test_each_flaw_of_the_pair_alone_is_no_fix(self):
        config = PROFILES["bpf-next"]()
        gp = self._pair_program()

        def load(cfg):
            return replay_kernel(cfg, gp).prog_load(
                BpfProgram(insns=list(gp.insns), prog_type=gp.prog_type))

        load(config.without_flaw(Flaw.TASK_STRUCT_OOB))
        load(config.without_flaw(Flaw.KFUNC_BACKTRACK))
        with pytest.raises(VerifierReject, match="task_struct"):
            load(config.without_flaw(Flaw.TASK_STRUCT_OOB,
                                     Flaw.KFUNC_BACKTRACK))

    def test_accepted_with_every_flaw_fixed_is_verifier_unsound(self):
        gp = GeneratedProgram(
            insns=[asm.mov64_imm(Reg.R0, 0), asm.exit_insn()],
            prog_type=ProgType.SOCKET_FILTER, maps=[], plan=ExecutionPlan(),
        )
        finding = oracle().classify_report(
            SanitizerReport("asan", address=8, size=8), gp)
        assert finding.bug_id == "verifier-unsound"
        assert finding.indicator == "indicator1"
        assert finding.is_verifier_bug

    def test_without_a_program_nothing_is_replayed(self):
        finding = oracle().classify_report(SanitizerReport("asan"), None)
        assert finding.bug_id == "indicator1-unattributed"

    def test_replay_kernel_reproduces_fds(self):
        kernel = Kernel(PROFILES["bpf-next"]())
        fd1 = kernel.map_create(MapType.HASH, 8, 8, 4)
        fd2 = kernel.map_create(MapType.ARRAY, 4, 16, 2)
        gp = GeneratedProgram(
            insns=[],
            prog_type=ProgType.KPROBE,
            maps=[kernel.map_by_fd(fd1), kernel.map_by_fd(fd2)],
            plan=ExecutionPlan(),
        )
        replay = replay_kernel(PROFILES["patched"](), gp)
        assert replay.map_by_fd(fd1).map_type == MapType.HASH
        assert replay.map_by_fd(fd2).map_type == MapType.ARRAY
        assert replay.map_by_fd(fd2).value_size == 16

    @pytest.mark.parametrize("name", ["spin_lock_balanced", "spin_lock_leaked"])
    def test_replay_kernel_keeps_spin_lock(self, name):
        """Triage and the differential oracle verify a spin-lock program
        on its replay kernel exactly as the campaign did on the original."""
        from repro.analysis.differential import DifferentialOracle
        from repro.testsuite.selftests import all_selftests

        test = next(t for t in all_selftests() if t.name == name)
        config = PROFILES["bpf-next"]()
        kernel = Kernel(config)
        prog = test.build(kernel)
        gp = GeneratedProgram(
            insns=list(prog.insns),
            prog_type=prog.prog_type,
            maps=[kernel.map_by_fd(3)],  # the selftest's one lock map
            plan=ExecutionPlan(),
        )

        def verdict(k):
            try:
                k.prog_load(BpfProgram(insns=list(gp.insns),
                                       prog_type=gp.prog_type))
            except VerifierReject:
                return "reject"
            return "accept"

        assert verdict(kernel) == test.expect
        replay = replay_kernel(config, gp)
        assert replay.map_by_fd(3).has_spin_lock
        assert verdict(replay) == test.expect
        outcome = DifferentialOracle(("bpf-next",)).verify_under(config, gp)
        assert outcome.verdict == test.expect
