"""The verifier reads a flaw only where the flaw decides the outcome.

A recorded load (``repro.analysis.differential.recording_reads``)
answers every config that agrees with it on the facts it read, so each
fact read where it cannot matter costs the differential oracle a
verification.  Three flaws used to be read on every visit of their
site: ``TASK_STRUCT_OOB`` at every BTF object access,
``KFUNC_BACKTRACK`` at every kfunc call and ``NULLNESS_PROPAGATION`` at
every pointer-pointer equality test.  For each site, one hand-built
program where the flaw decides the verdict or the range must record
it, and one where it cannot must not.

Soundness: a fact a load did not read may not change its outcome.
Over the selftests and 500 generated programs, on every ``PROFILES``
entry, flipping every unread verifier flaw at once leaves the verdict,
reason and range fingerprint exactly as they were.
"""

from __future__ import annotations

import pytest

from repro.analysis.differential import DifferentialOracle, recording_reads
from repro.ebpf import asm
from repro.ebpf.helpers import HelperId
from repro.ebpf.kfuncs import KFUNC_RAND
from repro.ebpf.maps import BpfMap, MapType
from repro.ebpf.opcodes import AluOp, JmpOp, Reg, Size
from repro.ebpf.program import BpfProgram, ProgType
from repro.errors import BpfError
from repro.fuzz.generator import StructuredGenerator
from repro.fuzz.rng import FuzzRng
from repro.fuzz.structure import ExecutionPlan, GeneratedProgram
from repro.kernel.config import PROFILES, VERIFIER_FLAWS, Flaw
from repro.kernel.syscall import Kernel
from repro.testsuite import all_selftests_extended
from repro.verifier.core import Verifier


def _recorded(insns, prog_type=ProgType.KPROBE, build=None,
              profile="bpf-next"):
    """Load on ``profile`` under a recorder: (verdict, reads)."""
    kernel = Kernel(PROFILES[profile]())
    if build is not None:
        insns = build(kernel)
    reads: dict = {}
    with recording_reads(kernel, reads):
        try:
            kernel.prog_load(BpfProgram(insns=insns, prog_type=prog_type))
            verdict = "accept"
        except BpfError:
            verdict = "reject"
    return verdict, reads


def _task_load(off: int, size: Size = Size.DW):
    return [
        asm.call_helper(HelperId.GET_CURRENT_TASK_BTF),
        asm.ldx_mem(size, Reg.R1, Reg.R0, off),
        asm.mov64_imm(Reg.R0, 0),
        asm.exit_insn(),
    ]


def _lookup(fd):
    return [
        asm.st_mem(Size.DW, Reg.R10, -8, 0),
        *asm.ld_map_fd(Reg.R1, fd),
        asm.mov64_reg(Reg.R2, Reg.R10),
        asm.alu64_imm(AluOp.ADD, Reg.R2, -8),
        asm.call_helper(HelperId.MAP_LOOKUP_ELEM),
    ]


def _compare_to(other: list):
    """A maybe-null map value tested for equality with ``other``'s R6."""

    def build(kernel):
        fd = kernel.map_create(MapType.HASH, 8, 16, 4)
        return [
            *other(kernel),
            *_lookup(fd),
            asm.jmp_reg(JmpOp.JEQ, Reg.R0, Reg.R6, 1),
            asm.ja(1),
            asm.ldx_mem(Size.DW, Reg.R3, Reg.R0, 0),
            asm.mov64_imm(Reg.R0, 0),
            asm.exit_insn(),
        ]

    return build


class TestTaskStructOob:
    def test_access_inside_the_slack_reads_the_flaw(self):
        # task_struct is 128 bytes: a DW load at 124 ends 4 bytes past.
        verdict, reads = _recorded(_task_load(124))
        assert verdict == "accept"
        assert reads[Flaw.TASK_STRUCT_OOB] is True
        verdict, reads = _recorded(_task_load(124), profile="patched")
        assert verdict == "reject"
        assert reads[Flaw.TASK_STRUCT_OOB] is False

    @pytest.mark.parametrize("off", [32, 120, 132, 200],
                             ids=["inside", "last-slot", "past-slack",
                                  "far-past"])
    def test_access_the_slack_cannot_decide_reads_nothing(self, off):
        verdict, reads = _recorded(_task_load(off))
        assert Flaw.TASK_STRUCT_OOB not in reads
        assert verdict == ("accept" if off + 8 <= 128 else "reject")


class TestKfuncBacktrack:
    def test_scalar_r0_before_the_call_reads_the_flaw(self):
        insns = [asm.mov64_imm(Reg.R0, 4), asm.call_kfunc(KFUNC_RAND),
                 asm.exit_insn()]
        verdict, reads = _recorded(insns)
        assert verdict == "accept"
        assert reads[Flaw.KFUNC_BACKTRACK] is True

    def test_uninitialised_r0_before_the_call_reads_nothing(self):
        insns = [asm.call_kfunc(KFUNC_RAND), asm.exit_insn()]
        verdict, reads = _recorded(insns)
        assert verdict == "accept"
        assert Flaw.KFUNC_BACKTRACK not in reads


class TestNullnessPropagation:
    def test_comparison_with_a_btf_pointer_reads_the_flaw(self):
        build = _compare_to(
            lambda kernel: asm.ld_btf_id(Reg.R6, kernel.btf.absent_ksym_id))
        verdict, reads = _recorded(None, build=build)
        assert verdict == "accept"
        assert reads[Flaw.NULLNESS_PROPAGATION] is True
        verdict, reads = _recorded(None, build=build, profile="patched")
        assert verdict == "reject"
        assert reads[Flaw.NULLNESS_PROPAGATION] is False

    def test_comparison_without_a_btf_pointer_reads_nothing(self):
        build = _compare_to(lambda kernel: [asm.mov64_reg(Reg.R6, Reg.R10)])
        verdict, reads = _recorded(None, build=build)
        assert verdict == "accept"
        assert Flaw.NULLNESS_PROPAGATION not in reads


#: (type, key size, value size, max entries) of one map per type
MAP_SHAPES = (
    (MapType.HASH, 8, 16, 4),
    (MapType.ARRAY, 4, 8, 4),
    (MapType.PROG_ARRAY, 4, 4, 4),
    (MapType.PERCPU_HASH, 8, 8, 4),
    (MapType.PERCPU_ARRAY, 4, 8, 4),
    (MapType.LRU_HASH, 8, 8, 4),
    (MapType.QUEUE, 0, 8, 4),
    (MapType.STACK, 0, 8, 4),
    (MapType.RINGBUF, 0, 0, 4096),
)


class TestRecordingCoversOneLoad:
    """Boot and map creation read no config, so recording the
    ``prog_load`` of an already booted kernel records everything."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_boot_and_map_creation_read_nothing(self, profile):
        reads: dict = {}
        kernel = Kernel(PROFILES[profile]())
        with recording_reads(kernel, reads):
            booted = Kernel(kernel.config)
            for shape in MAP_SHAPES:
                booted.map_create(*shape)
            booted.map_create(MapType.HASH, 8, 16, 4, has_spin_lock=True)
        assert reads == {}

    def test_recorder_is_restored(self):
        kernel = Kernel(PROFILES["bpf-next"]())
        config = kernel.config
        with pytest.raises(BpfError):
            with recording_reads(kernel, {}):
                kernel.prog_load(BpfProgram(insns=[asm.exit_insn()]))
        assert kernel.config is config and kernel.helpers.config is config


# --------------------------------------------------------------------------
# Soundness over the selftests and generated programs

GENERATED = 500


def _wrap(selftest) -> GeneratedProgram:
    kernel = Kernel(PROFILES["bpf-next"]())
    prog = selftest.build(kernel)
    maps = [obj for obj in kernel._fds.values() if isinstance(obj, BpfMap)]
    return GeneratedProgram(insns=list(prog.insns), prog_type=prog.prog_type,
                            maps=maps, plan=ExecutionPlan())


@pytest.fixture(scope="module")
def programs():
    rng = FuzzRng(11)
    generator = StructuredGenerator(None, rng)
    generated = [generator.generate(Kernel(PROFILES["bpf-next"]()))
                 for _ in range(GENERATED)]
    return [_wrap(st) for st in all_selftests_extended()] + generated


def _eager(self, flaw, decides=True):
    """``Verifier.has_flaw`` as it was: every call site reads the flaw."""
    return self.config.has_flaw(flaw)


def _signature(outcome) -> tuple:
    return outcome.verdict, outcome.reason, outcome.fingerprint


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_lazy_reads_change_no_outcome(programs, profile, monkeypatch):
    """Each program's outcome with lazy reads equals the one with every
    flaw read at its site, and flipping every verifier flaw the lazy
    load did not read changes nothing either."""
    oracle, config = DifferentialOracle(()), PROFILES[profile]()
    lazy, unread_flips = [], 0
    for gp in programs:
        reads: dict = {}
        outcome = oracle.verify_under(config, gp, reads=reads)
        unread = VERIFIER_FLAWS - set(reads)
        flipped = config.without_flaw(*(unread & config.flaws)).with_flaw(
            *(unread - config.flaws))
        lazy.append(_signature(outcome))
        assert _signature(oracle.verify_under(flipped, gp)) == lazy[-1]
        unread_flips += bool(unread)
    assert unread_flips > len(programs) // 2
    monkeypatch.setattr(Verifier, "has_flaw", _eager)
    eager = [_signature(oracle.verify_under(config, gp)) for gp in programs]
    for index, (a, b) in enumerate(zip(lazy, eager)):
        assert a == b, index
