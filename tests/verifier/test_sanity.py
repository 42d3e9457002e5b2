"""VStateChecker: invariant triggers, corpus cleanliness, regressions.

Three layers:

1. each invariant code fires on a crafted register state that breaks
   exactly that invariant;
2. the full selftest corpus verifies cleanly under every kernel
   profile with ``check_invariants=True`` — the verifier never commits
   an impossible abstract state;
3. minimal repros for the ALU soundness bugs the checker surfaced
   (u64 RSH by zero, 32-bit ARSH of negative subregs) stay fixed.
"""

from __future__ import annotations

import pytest

from repro.errors import BpfError, InvariantViolation, VerifierReject
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.ebpf.opcodes import AluOp
from repro.testsuite import all_selftests_extended
from repro.verifier.checks import scalar_alu
from repro.verifier.sanity import INVARIANT_CODES, VStateChecker
from repro.verifier.state import RegState, RegType, S64_MAX, S64_MIN, U64_MAX
from repro.verifier.tnum import Tnum, tnum_const

U32_MAX = (1 << 32) - 1


def broken_tnum(value: int, mask: int) -> Tnum:
    """A tnum violating the representation invariant (constructor
    forbids this, so the checker is the only line of defence)."""
    t = object.__new__(Tnum)
    object.__setattr__(t, "value", value)
    object.__setattr__(t, "mask", mask)
    return t


def violation_code(reg: RegState) -> str:
    with pytest.raises(InvariantViolation) as excinfo:
        VStateChecker().check_reg(reg)
    return excinfo.value.code


class TestInvariantTriggers:
    def test_tnum_wellformed_overlap(self):
        reg = RegState.unknown_scalar()
        reg.var_off = broken_tnum(0b11, 0b01)
        assert violation_code(reg) == "INV_TNUM_WELLFORMED"

    def test_tnum_wellformed_out_of_u64(self):
        reg = RegState.unknown_scalar()
        reg.var_off = broken_tnum(1 << 64, 0)
        assert violation_code(reg) == "INV_TNUM_WELLFORMED"

    def test_bounds_domain_unsigned(self):
        reg = RegState.unknown_scalar()
        reg.umax = 1 << 64
        assert violation_code(reg) == "INV_BOUNDS_DOMAIN"

    def test_bounds_domain_signed(self):
        reg = RegState.unknown_scalar()
        reg.smin = S64_MIN - 1
        assert violation_code(reg) == "INV_BOUNDS_DOMAIN"

    def test_bounds_order(self):
        reg = RegState.const_scalar(10)
        reg.umin, reg.umax = 10, 5
        reg.var_off = tnum_const(5)
        assert violation_code(reg) == "INV_BOUNDS_ORDER"

    def test_bounds_empty_disjoint_views(self):
        # Unsigned says [5, 10]; signed says [-20, -15], which lives in
        # the top of u64 space — no concrete value satisfies both.
        reg = RegState.unknown_scalar()
        reg.umin, reg.umax = 5, 10
        reg.smin, reg.smax = -20, -15
        assert violation_code(reg) == "INV_BOUNDS_EMPTY"

    def test_tnum_range_sync(self):
        reg = RegState.const_scalar(5)
        reg.var_off = tnum_const(100)
        assert violation_code(reg) == "INV_TNUM_RANGE_SYNC"

    def test_u32_view_disagrees_with_subreg_tnum(self):
        # 64-bit tnum [0, 2^33] overlaps [5, 5], but its low 32 bits
        # are known zero while the u32 view says exactly 5.
        reg = RegState.const_scalar(5)
        reg.var_off = Tnum(0, 1 << 33)
        assert violation_code(reg) == "INV_U32_BOUNDS"

    def test_pointer_offset_out_of_range(self):
        reg = RegState.pointer(RegType.PTR_TO_STACK)
        reg.off = 1 << 31
        assert violation_code(reg) == "INV_POINTER_OFFSET"

    def test_clean_states_pass(self):
        checker = VStateChecker()
        checker.check_reg(RegState.unknown_scalar())
        checker.check_reg(RegState.const_scalar(0))
        checker.check_reg(RegState.const_scalar(U64_MAX))
        checker.check_reg(RegState.pointer(RegType.PTR_TO_STACK))
        neg = RegState.const_scalar(U64_MAX)  # s64 -1
        neg.sync_bounds()
        checker.check_reg(neg)

    def test_all_codes_have_a_trigger(self):
        # Keep this file honest as codes are added.
        covered = {
            "INV_TNUM_WELLFORMED",
            "INV_BOUNDS_DOMAIN",
            "INV_BOUNDS_ORDER",
            "INV_BOUNDS_EMPTY",
            "INV_TNUM_RANGE_SYNC",
            "INV_U32_BOUNDS",
            "INV_POINTER_OFFSET",
        }
        assert covered == set(INVARIANT_CODES)


class TestCorpusClean:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_selftest_corpus_commits_no_broken_state(self, profile):
        """InvariantViolation is not a verdict: it must never escape a
        corpus verification, on flawed and fixed profiles alike."""
        for selftest in all_selftests_extended():
            kernel = Kernel(PROFILES[profile]())
            prog = selftest.build(kernel)
            try:
                kernel.prog_load(prog, sanitize=False, check_invariants=True)
            except InvariantViolation as violation:  # pragma: no cover
                pytest.fail(f"{selftest.name} on {profile}: {violation}")
            except (VerifierReject, BpfError):
                pass

    def test_checker_actually_ran(self):
        from repro.ebpf import asm
        from repro.ebpf.opcodes import JmpOp, Reg
        from repro.ebpf.program import BpfProgram
        from repro.verifier.core import Verifier

        kernel = Kernel(PROFILES["patched"]())
        # A conditional branch so at least one checkpoint fires.
        prog = BpfProgram(
            insns=[
                asm.mov64_imm(Reg.R0, 1),
                asm.jmp_imm(JmpOp.JEQ, Reg.R0, 0, 1),
                asm.mov64_imm(Reg.R0, 2),
                asm.exit_insn(),
            ]
        )
        verifier = Verifier(kernel, prog, check_invariants=True)
        verifier.verify()
        # With nothing else observing, the checker is the observer.
        assert isinstance(verifier.observer, VStateChecker)
        assert verifier.observer.states_checked > 0

    def test_disabled_by_default(self):
        from repro.ebpf import asm
        from repro.ebpf.opcodes import Reg
        from repro.ebpf.program import BpfProgram
        from repro.verifier.core import Verifier

        kernel = Kernel(PROFILES["patched"]())
        prog = BpfProgram(
            insns=[asm.mov64_imm(Reg.R0, 0), asm.exit_insn()]
        )
        assert Verifier(kernel, prog).observer is None


class TestAluRegressions:
    """Minimal repros for the soundness bugs VStateChecker surfaced."""

    def test_rsh_by_zero_keeps_full_range(self):
        # r >>= 0 must be the identity.  The old code copied umax into
        # smax unconditionally; for an unknown scalar that put smax out
        # of the s64 domain and sync_bounds "repaired" it by unsoundly
        # halving umax, excluding e.g. the concrete value U64_MAX.
        reg = RegState.unknown_scalar()
        scalar_alu(None, reg, RegState.const_scalar(0), AluOp.RSH, True)
        assert reg.umax == U64_MAX
        assert reg.var_off.contains(U64_MAX)
        VStateChecker().check_reg(reg)

    @pytest.mark.parametrize("value,shift", [
        (U64_MAX, 0), (U64_MAX, 1), (U64_MAX, 63),
        (1 << 63, 0), (1 << 63, 7), (0x1234_5678_9ABC_DEF0, 13),
    ])
    def test_rsh_member_soundness(self, value, shift):
        reg = RegState.const_scalar(value)
        scalar_alu(None, reg, RegState.const_scalar(shift), AluOp.RSH, True)
        concrete = value >> shift
        assert reg.umin <= concrete <= reg.umax
        assert reg.var_off.contains(concrete)
        VStateChecker().check_reg(reg)

    def test_arsh32_negative_subreg(self):
        # 0xFFFFFFFF is s32 -1; arithmetic shift must replicate bit 31.
        # The old code shifted the zero-extended u64 view logically-ish
        # via its s64 bounds, producing [0, 131071] — excluding the
        # concrete result 0xFFFFFFFF.
        reg = RegState.const_scalar(0xFFFFFFFF)
        scalar_alu(None, reg, RegState.const_scalar(15), AluOp.ARSH, False)
        assert reg.umin <= 0xFFFFFFFF <= reg.umax
        assert reg.var_off.contains(0xFFFFFFFF)
        VStateChecker().check_reg(reg)

    @pytest.mark.parametrize("value,shift", [
        (0xFFFFFFFF, 15), (0x80000000, 1), (0x80000000, 31),
        (0x7FFFFFFF, 3), (0, 9), (0xDEADBEEF, 16),
    ])
    def test_arsh32_member_soundness(self, value, shift):
        reg = RegState.const_scalar(value)
        scalar_alu(None, reg, RegState.const_scalar(shift), AluOp.ARSH, False)
        signed = value - (1 << 32) if value >= (1 << 31) else value
        concrete = (signed >> shift) & U32_MAX
        assert reg.umin <= concrete <= reg.umax
        assert reg.var_off.contains(concrete)
        VStateChecker().check_reg(reg)

    def test_arsh32_sign_unknown_range(self):
        # A subreg that may be positive or negative: the result can be
        # anything in u32 — both extremes must stay representable.
        reg = RegState.unknown_scalar()
        scalar_alu(None, reg, RegState.const_scalar(4), AluOp.ARSH, False)
        assert reg.umin == 0
        assert reg.umax == U32_MAX
        VStateChecker().check_reg(reg)

    def test_deduce_bounds_unsigned_informs_signed(self):
        # Kernel reg_bounds_sync parity: a non-negative unsigned range
        # pins the signed bounds (and vice versa).
        reg = RegState.unknown_scalar()
        reg.umin, reg.umax = 5, 100
        reg.sync_bounds()
        assert reg.smin == 5
        assert reg.smax == 100
        VStateChecker().check_reg(reg)

    def test_deduce_bounds_negative_range(self):
        reg = RegState.unknown_scalar()
        reg.umin = U64_MAX - 9  # s64 [-10, -1]
        reg.sync_bounds()
        assert reg.smin == -10
        assert reg.smax == -1
        VStateChecker().check_reg(reg)
