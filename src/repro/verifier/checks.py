"""Per-instruction verifier checks: ALU and memory access.

This module ports the kernel's ``adjust_scalar_min_max_vals`` /
``adjust_ptr_min_max_vals`` (pointer-arithmetic rules) and
``check_mem_access`` logic.  Two injected flaws live here:

- **CVE-2022-23222** (Listing 1): the flawed kernel permits ALU on
  ``PTR_TO_MAP_VALUE_OR_NULL``; pointer arithmetic performed before the
  null check then survives into the "non-null" branch and produces an
  attacker-controlled near-null pointer.
- **Bug #2**: the flawed BTF-object bounds check accepts accesses up to
  8 bytes past the end of the kernel structure.
"""

from __future__ import annotations

import errno

from repro.ebpf.insn import Insn
from repro.ebpf.opcodes import AluOp, InsnClass, Reg, Size, Src, SIZE_BYTES
from repro.ebpf.program import PACKET_ACCESS_TYPES
from repro.kernel.config import Flaw
from repro.verifier.state import (
    RegState,
    RegType,
    S64_MAX,
    S64_MIN,
    U64_MAX,
    s64,
    u64,
)


__all__ = ["check_alu", "check_mem_access", "coerce_to_32"]

U32_MAX = (1 << 32) - 1

#: Largest fixed pointer offset the verifier tolerates (kernel:
#: BPF_MAX_VAR_OFF = 1 << 29).
MAX_PTR_OFF = 1 << 29

#: Pointer types on which any arithmetic is prohibited.  The OR_NULL
#: entries are the CVE-2022-23222 site: a flawed kernel omits them.
_NO_ALU_TYPES = frozenset(
    {
        RegType.CONST_PTR_TO_MAP,
        RegType.PTR_TO_PACKET_END,
    }
)

_OR_NULL_TYPES = frozenset(
    {RegType.PTR_TO_MAP_VALUE_OR_NULL, RegType.PTR_TO_MEM_OR_NULL}
)

#: Pointer types that only admit constant offsets.
_CONST_OFF_ONLY = frozenset({RegType.PTR_TO_CTX, RegType.PTR_TO_BTF_ID})


def _signed_add_overflows(a: int, b: int) -> bool:
    return not S64_MIN <= a + b <= S64_MAX


def _signed_sub_overflows(a: int, b: int) -> bool:
    return not S64_MIN <= a - b <= S64_MAX


def coerce_to_32(reg: RegState) -> None:
    """Truncate a scalar register to its zero-extended low 32 bits."""
    reg.var_off = reg.var_off.cast(4)
    if reg.umax > U32_MAX or reg.umin > reg.umax:
        reg.umin = reg.var_off.min_value()
        reg.umax = reg.var_off.max_value()
    reg.smin = reg.umin
    reg.smax = reg.umax
    reg.sync_bounds()


def _reg_32bit_view(reg: RegState) -> RegState:
    """A fresh scalar holding only the low 32 bits of ``reg``."""
    view = RegState.unknown_scalar()
    view.var_off = reg.var_off.subreg()
    if reg.umax <= U32_MAX:
        view.umin, view.umax = reg.umin, reg.umax
    else:
        view.umin = view.var_off.min_value()
        view.umax = view.var_off.max_value()
    view.smin, view.smax = S64_MIN, S64_MAX
    view.sync_bounds()
    return view


# ---------------------------------------------------------------------------
# Scalar ALU
# ---------------------------------------------------------------------------


def _scalar_add(dst: RegState, src: RegState) -> None:
    if _signed_add_overflows(dst.smin, src.smin) or _signed_add_overflows(
        dst.smax, src.smax
    ):
        dst.smin, dst.smax = S64_MIN, S64_MAX
    else:
        dst.smin += src.smin
        dst.smax += src.smax
    if dst.umin + src.umin > U64_MAX or dst.umax + src.umax > U64_MAX:
        dst.umin, dst.umax = 0, U64_MAX
    else:
        dst.umin += src.umin
        dst.umax += src.umax
    dst.var_off = dst.var_off.add(src.var_off)


def _scalar_sub(dst: RegState, src: RegState) -> None:
    if _signed_sub_overflows(dst.smin, src.smax) or _signed_sub_overflows(
        dst.smax, src.smin
    ):
        dst.smin, dst.smax = S64_MIN, S64_MAX
    else:
        dst.smin -= src.smax
        dst.smax -= src.smin
    if dst.umin < src.umax:
        dst.umin, dst.umax = 0, U64_MAX
    else:
        dst.umin -= src.umax
        dst.umax -= src.umin
    dst.var_off = dst.var_off.sub(src.var_off)


def _scalar_mul(dst: RegState, src: RegState) -> None:
    dst.var_off = dst.var_off.mul(src.var_off)
    if dst.umax > U32_MAX or src.umax > U32_MAX:
        dst.umin, dst.umax = 0, U64_MAX
        dst.smin, dst.smax = S64_MIN, S64_MAX
    else:
        dst.umin *= src.umin
        dst.umax *= src.umax
        if dst.umax > S64_MAX:
            dst.smin, dst.smax = S64_MIN, S64_MAX
        else:
            dst.smin, dst.smax = dst.umin, dst.umax


def _scalar_and(dst: RegState, src: RegState) -> None:
    dst.var_off = dst.var_off.and_(src.var_off)
    smin_neg = dst.smin < 0 or src.smin < 0
    dst.umin = dst.var_off.value
    dst.umax = min(dst.umax, src.umax, dst.var_off.max_value())
    if smin_neg:
        dst.smin, dst.smax = S64_MIN, S64_MAX
    else:
        dst.smin, dst.smax = dst.umin, dst.umax


def _scalar_or(dst: RegState, src: RegState) -> None:
    smin_neg = dst.smin < 0 or src.smin < 0
    dst.var_off = dst.var_off.or_(src.var_off)
    dst.umin = max(dst.umin, src.umin, dst.var_off.min_value())
    dst.umax = dst.var_off.max_value()
    if smin_neg:
        dst.smin, dst.smax = S64_MIN, S64_MAX
    else:
        dst.smin, dst.smax = dst.umin, dst.umax


def _scalar_xor(dst: RegState, src: RegState) -> None:
    smin_neg = dst.smin < 0 or src.smin < 0
    dst.var_off = dst.var_off.xor(src.var_off)
    dst.umin = dst.var_off.min_value()
    dst.umax = dst.var_off.max_value()
    if smin_neg:
        dst.smin, dst.smax = S64_MIN, S64_MAX
    else:
        dst.smin, dst.smax = dst.umin, dst.umax


def _scalar_lsh(dst: RegState, shift: int) -> None:
    if dst.umax > (U64_MAX >> shift):
        dst.umin, dst.umax = 0, U64_MAX
    else:
        dst.umin <<= shift
        dst.umax <<= shift
    dst.smin, dst.smax = S64_MIN, S64_MAX
    dst.var_off = dst.var_off.lshift(shift)


def _scalar_rsh(dst: RegState, shift: int) -> None:
    dst.umin >>= shift
    dst.umax >>= shift
    dst.var_off = dst.var_off.rshift(shift)
    if dst.umax <= S64_MAX:
        # The result cannot have the sign bit set, so the unsigned
        # bounds are also valid signed bounds.  A zero shift leaves
        # umax possibly above S64_MAX; copying it into smax would put
        # the signed bound outside its domain and sync_bounds would
        # then "repair" the state by unsoundly halving umax.
        dst.smin = dst.umin
        dst.smax = dst.umax
    else:
        dst.smin, dst.smax = S64_MIN, S64_MAX


def _scalar_arsh(dst: RegState, shift: int, bits: int) -> None:
    dst.var_off = dst.var_off.arshift(shift, bits)
    if bits == 64:
        dst.smin >>= shift
        dst.smax >>= shift
        if dst.smin >= 0:
            dst.umin, dst.umax = dst.smin, dst.smax
        else:
            dst.umin, dst.umax = 0, U64_MAX
        return
    # 32-bit: ``dst`` is the zero-extended low-32 view, so its bounds
    # must be reinterpreted as s32 before an arithmetic shift — bit 31
    # is the sign bit, not bit 63.
    sign = 1 << 31
    if dst.umax < sign:
        # Sign bit clear everywhere: arithmetic == logical shift.
        dst.umin >>= shift
        dst.umax >>= shift
    elif dst.umin >= sign:
        # Sign bit set everywhere; shift in s32 space (order-preserving)
        # and wrap the (still negative) results back to u32.
        dst.umin = ((dst.umin - (1 << 32)) >> shift) & U32_MAX
        dst.umax = ((dst.umax - (1 << 32)) >> shift) & U32_MAX
    else:
        # Sign unknown: the shifted range wraps around zero.
        dst.umin, dst.umax = 0, U32_MAX
    dst.smin, dst.smax = dst.umin, dst.umax


def scalar_alu(v, dst: RegState, src: RegState, op: AluOp, is64: bool) -> None:
    """Apply a scalar ALU operation, updating bounds soundly.

    ``v`` is the verifier (for rejection); ``src`` is a scalar
    :class:`RegState` (constant for immediate operands).
    """
    if not is64:
        dst_view = _reg_32bit_view(dst)
        src = _reg_32bit_view(src)
        dst.type = RegType.SCALAR
        dst.var_off = dst_view.var_off
        dst.umin, dst.umax = dst_view.umin, dst_view.umax
        dst.smin, dst.smax = dst_view.smin, dst_view.smax
        dst.off = 0
        dst.map = None
        dst.btf = None
        dst.id = 0

    bits = 64 if is64 else 32

    if op == AluOp.ADD:
        _scalar_add(dst, src)
    elif op == AluOp.SUB:
        _scalar_sub(dst, src)
    elif op == AluOp.MUL:
        _scalar_mul(dst, src)
    elif op in (AluOp.DIV, AluOp.MOD):
        if src.is_const() and dst.is_const():
            a, b = dst.const_value(), src.const_value()
            if not is64:
                a &= U32_MAX
                b &= U32_MAX
            if op == AluOp.DIV:
                result = a // b if b else 0
            else:
                result = a % b if b else a
            dst.mark_known(result)
        else:
            # eBPF defines division by zero as zero; bounds are simply
            # unknown for non-constant operands (like the kernel).
            dst.mark_unknown()
    elif op == AluOp.AND:
        _scalar_and(dst, src)
    elif op == AluOp.OR:
        _scalar_or(dst, src)
    elif op == AluOp.XOR:
        _scalar_xor(dst, src)
    elif op in (AluOp.LSH, AluOp.RSH, AluOp.ARSH):
        if src.is_const():
            shift = src.const_value()
            if shift >= bits:
                # Checked earlier for immediates; register shifts of
                # out-of-range constants produce unknown values.
                dst.mark_unknown()
            elif op == AluOp.LSH:
                _scalar_lsh(dst, shift)
            elif op == AluOp.RSH:
                _scalar_rsh(dst, shift)
            else:
                _scalar_arsh(dst, shift, bits)
        else:
            dst.mark_unknown()
    elif op == AluOp.NEG:
        zero = RegState.const_scalar(0)
        _scalar_sub(zero, dst)
        dst.var_off = zero.var_off
        dst.umin, dst.umax = zero.umin, zero.umax
        dst.smin, dst.smax = zero.smin, zero.smax
    else:  # pragma: no cover - END handled by caller
        dst.mark_unknown()

    dst.sync_bounds()
    if not is64:
        coerce_to_32(dst)


# ---------------------------------------------------------------------------
# Pointer ALU
# ---------------------------------------------------------------------------


def _ptr_region_size(reg: RegState) -> int | None:
    """Size of the region behind a pointer, for alu_limit computation."""
    if reg.type == RegType.PTR_TO_STACK:
        from repro.ebpf.opcodes import STACK_SIZE

        return STACK_SIZE
    if reg.type in (RegType.PTR_TO_MAP_VALUE, RegType.PTR_TO_MAP_VALUE_OR_NULL):
        return reg.map.value_size if reg.map is not None else None
    if reg.type == RegType.PTR_TO_MEM:
        return reg.mem_size
    return None


def pointer_alu(v, state, insn: Insn, dst: RegState, src: RegState) -> None:
    """Pointer +/- scalar with the kernel's type restrictions."""
    op = insn.alu_op
    if insn.insn_class != InsnClass.ALU64:
        v.reject(errno.EACCES, f"R{insn.dst} 32-bit pointer arithmetic prohibited")
    if op not in (AluOp.ADD, AluOp.SUB):
        v.reject(
            errno.EACCES,
            f"R{insn.dst} pointer arithmetic with {op.name} operator prohibited",
        )
    if dst.type in _NO_ALU_TYPES:
        v.reject(
            errno.EACCES,
            f"R{insn.dst} pointer arithmetic on {dst.type.value} prohibited",
        )
    if dst.type in _OR_NULL_TYPES and not v.has_flaw(Flaw.CVE_2022_23222):
        # CVE-2022-23222: the flawed kernel falls through and happily
        # adjusts the offset of a possibly-NULL pointer.
        v.reject(
            errno.EACCES,
            f"R{insn.dst} pointer arithmetic on {dst.type.value} prohibited",
        )
    if not src.is_scalar():
        v.reject(errno.EACCES, f"R{insn.dst} pointer arithmetic between pointers")

    if src.is_const():
        delta = s64(src.const_value())
        if op == AluOp.SUB:
            delta = -delta
        new_off = dst.off + delta
        if abs(new_off) > MAX_PTR_OFF:
            v.reject(errno.EACCES, f"R{insn.dst} pointer offset {new_off} out of range")
        dst.off = new_off
        return

    # Variable offset.
    if dst.type in _CONST_OFF_ONLY:
        v.reject(
            errno.EACCES,
            f"R{insn.dst} variable offset on {dst.type.value} prohibited",
        )

    # Record the alu_limit rewrite the kernel performs for speculative
    # safety; BVF's sanitizer turns it into a runtime assertion.
    region = _ptr_region_size(dst)
    if region is not None:
        if dst.type == RegType.PTR_TO_STACK:
            limit = (
                region + dst.off if op == AluOp.SUB else -dst.off
            )
        else:
            limit = region - dst.off if op == AluOp.ADD else dst.off
        v.record_alu_limit(insn_limit=max(limit, 0), op=op)

    var = RegState(
        type=RegType.SCALAR,
        var_off=dst.var_off,
        smin=dst.smin,
        smax=dst.smax,
        umin=dst.umin,
        umax=dst.umax,
    )
    if op == AluOp.ADD:
        _scalar_add(var, src)
    else:
        _scalar_sub(var, src)
    var.sync_bounds()
    dst.var_off = var.var_off
    dst.smin, dst.smax = var.smin, var.smax
    dst.umin, dst.umax = var.umin, var.umax


# ---------------------------------------------------------------------------
# ALU dispatch
# ---------------------------------------------------------------------------


def check_alu(v, state, insn: Insn) -> None:
    """Verify one ALU/ALU64 instruction and update the state."""
    is64 = insn.insn_class == InsnClass.ALU64
    regs = state.regs
    op = insn.alu_op

    if insn.dst == Reg.R10:
        v.reject(errno.EACCES, "frame pointer is read only")

    # Writable (COW) destination — nearly every path below mutates it
    # in place.  Taken before the source operand is fetched so that
    # ``dst is src`` aliasing (e.g. ``r1 += r1``) survives the clone.
    dst = state.wreg(insn.dst)

    # Unary operations.
    if op == AluOp.NEG:
        if insn.src_bit == Src.X or insn.src or insn.imm or insn.off:
            v.reject(errno.EINVAL, "BPF_NEG uses reserved fields")
        if dst.type == RegType.NOT_INIT:
            v.reject(errno.EACCES, f"R{insn.dst} !read_ok")
        if dst.is_pointer():
            v.reject(errno.EACCES, f"R{insn.dst} pointer negation prohibited")
        scalar_alu(v, dst, RegState.const_scalar(0), op, is64)
        return
    if op == AluOp.END:
        if insn.imm not in (16, 32, 64):
            v.reject(errno.EINVAL, "BPF_END with invalid width")
        if dst.type == RegType.NOT_INIT:
            v.reject(errno.EACCES, f"R{insn.dst} !read_ok")
        if dst.is_pointer():
            v.reject(errno.EACCES, f"R{insn.dst} pointer byteswap prohibited")
        dst.mark_unknown()
        dst.umax = (1 << insn.imm) - 1 if insn.imm < 64 else U64_MAX
        dst.sync_bounds()
        return

    # Source operand.
    if insn.src_bit == Src.X:
        if insn.imm:
            v.reject(errno.EINVAL, "BPF_ALU uses reserved imm field")
        src = regs[insn.src]
        if src.type == RegType.NOT_INIT:
            v.reject(errno.EACCES, f"R{insn.src} !read_ok")
    else:
        if insn.src:
            v.reject(errno.EINVAL, "BPF_ALU uses reserved src field")
        imm = insn.imm if is64 else insn.imm & U32_MAX
        src = RegState.const_scalar(imm)

    # Immediate shift validation (kernel rejects at load time).
    if op in (AluOp.LSH, AluOp.RSH, AluOp.ARSH) and insn.src_bit == Src.K:
        if insn.imm < 0 or insn.imm >= (64 if is64 else 32):
            v.reject(errno.EINVAL, f"invalid shift {insn.imm}")
    if op in (AluOp.DIV, AluOp.MOD) and insn.src_bit == Src.K and insn.imm == 0:
        v.reject(errno.EINVAL, "division by zero")

    # MOV has its own semantics (full state copy).
    if op == AluOp.MOV:
        if src.is_pointer():
            if not is64:
                v.reject(errno.EACCES, f"R{insn.dst} partial copy of pointer")
            regs[insn.dst] = src.clone()
            return
        if is64 and insn.src_bit == Src.X:
            # Track register equality for find_equal_scalars.  The id
            # is written back into the *source* register, so it needs
            # its own COW view.
            if src.id == 0:
                src = state.wreg(insn.src)
                src.id = v.env.new_id()
            regs[insn.dst] = src.clone()
            return
        new = src.clone()
        new.id = 0
        if not is64:
            coerce_to_32(new)
        regs[insn.dst] = new
        return

    if dst.type == RegType.NOT_INIT:
        v.reject(errno.EACCES, f"R{insn.dst} !read_ok")

    # Pointer arithmetic dispatch.
    if dst.is_pointer() or src.is_pointer():
        if dst.is_pointer() and src.is_pointer():
            v.reject(
                errno.EACCES, f"R{insn.dst} pointer arithmetic between pointers"
            )
        if src.is_pointer():
            if op == AluOp.ADD:
                # scalar += pointer commutes to pointer + scalar.
                new_dst = src.clone()
                pointer_alu(v, state, insn, new_dst, dst)
                regs[insn.dst] = new_dst
                return
            v.reject(
                errno.EACCES,
                f"R{insn.dst} {op.name} of pointer into scalar prohibited",
            )
        pointer_alu(v, state, insn, dst, src)
        dst.sync_bounds()
        return

    dst.id = 0
    scalar_alu(v, dst, src, op, is64)
    # Bound-deduction trail (scalar ALU is the hottest opcode class, so
    # the unobserved cost must stay at this one test).
    if v.observer is not None:
        v.observer.refine(v.cur_insn_idx, insn, dst)


# ---------------------------------------------------------------------------
# Memory access
# ---------------------------------------------------------------------------


def _check_stack_access(v, state, insn, reg, off, size, is_write, src_reg):
    if not reg.var_off.is_const():
        v.reject(
            errno.EACCES,
            f"R{insn.dst if is_write else insn.src} variable stack access "
            f"prohibited",
        )
    total = off + reg.off + s64(reg.var_off.value)
    from repro.verifier.stack import StackState

    if not StackState.in_bounds(total, size):
        v.reject(
            errno.EACCES,
            f"invalid stack access off={total} size={size}",
        )
    if is_write:
        if src_reg is not None and size == 8 and total % 8 == 0:
            state.stack.write_reg(total, src_reg)
        else:
            zero = (
                src_reg is not None
                and src_reg.is_const()
                and src_reg.const_value() == 0
            )
            state.stack.write_misc(total, size, zero=zero)
        return None
    filled, error = state.stack.read(total, size)
    if error:
        v.reject(errno.EACCES, error)
    return filled


def _check_ctx_access(v, state, insn, reg, off, size, is_write):
    if not reg.var_off.is_const() or reg.var_off.value != 0:
        v.reject(errno.EACCES, "variable ctx access prohibited")
    total = off + reg.off
    ok, field, reason = v.prog.context.check_access(total, size, is_write)
    if not ok:
        v.reject(errno.EACCES, reason)
    if is_write:
        return None
    if field is not None and field.special is not None:
        if v.prog.prog_type not in PACKET_ACCESS_TYPES:
            v.reject(
                errno.EACCES,
                f"packet access not allowed for {v.prog.prog_type.value}",
            )
        kind = {
            "pkt_data": RegType.PTR_TO_PACKET,
            "pkt_end": RegType.PTR_TO_PACKET_END,
            "pkt_meta": RegType.PTR_TO_PACKET_META,
        }[field.special]
        result = RegState.pointer(kind)
        result.id = v.env.new_id()
        return result
    return RegState.unknown_scalar()


def _check_map_value_access(v, state, insn, reg, off, size, is_write):
    if reg.map is None:
        v.reject(errno.EACCES, "map pointer without map state")
    lo = off + reg.off + reg.smin
    hi = off + reg.off + reg.smax
    if getattr(reg.map, "has_spin_lock", False):
        # Direct access to the embedded bpf_spin_lock is prohibited.
        lock_lo = reg.map.SPIN_LOCK_OFF
        lock_hi = lock_lo + reg.map.SPIN_LOCK_SIZE
        if lo < lock_hi and hi + size > lock_lo:
            v.reject(
                errno.EACCES,
                "direct access to bpf_spin_lock is not allowed",
            )
    if lo < 0:
        v.reject(
            errno.EACCES,
            f"invalid access to map value, value_size={reg.map.value_size} "
            f"off={lo} size={size}",
        )
    if hi + size > reg.map.value_size:
        v.reject(
            errno.EACCES,
            f"invalid access to map value, value_size={reg.map.value_size} "
            f"off={hi} size={size}",
        )
    return None if is_write else RegState.unknown_scalar()


def _check_packet_access(v, state, insn, reg, off, size, is_write):
    if v.prog.prog_type not in PACKET_ACCESS_TYPES:
        v.reject(
            errno.EACCES,
            f"packet access not allowed for {v.prog.prog_type.value}",
        )
    if is_write and v.prog.prog_type.value == "socket_filter":
        v.reject(errno.EACCES, "cannot write into packet for socket filter")
    lo = off + reg.off + reg.smin
    hi = off + reg.off + u64(reg.umax)
    if lo < 0:
        v.reject(errno.EACCES, f"invalid packet access off={lo}")
    if hi + size > reg.pkt_range:
        v.reject(
            errno.EACCES,
            f"invalid access to packet, off={hi} size={size} R{insn.src if not is_write else insn.dst} "
            f"range={reg.pkt_range}",
        )
    return None if is_write else RegState.unknown_scalar()


def _check_btf_access(v, state, insn, reg, off, size, is_write):
    if is_write:
        v.reject(errno.EACCES, "writes to BTF object pointers are prohibited")
    if not reg.var_off.is_const() or reg.var_off.value != 0:
        v.reject(errno.EACCES, "variable offset BTF object access prohibited")
    if reg.btf is None:
        v.reject(errno.EACCES, "BTF pointer without object state")
    total = off + reg.off
    obj_size = reg.btf.type.size
    # Bug #2: the flawed bounds check tolerates 8 bytes past the end.
    # Only an access ending inside that slack is decided by the flaw.
    slack = 8 if v.has_flaw(
        Flaw.TASK_STRUCT_OOB,
        decides=total >= 0 and obj_size < total + size <= obj_size + 8,
    ) else 0
    if total < 0 or total + size > obj_size + slack:
        v.reject(
            errno.EACCES,
            f"invalid access to {reg.btf.type.name}, size={obj_size} "
            f"off={total} access_size={size}",
        )
    v.mark_probe_mem(v.cur_insn_idx)
    field = reg.btf.type.field_at(total)
    if (
        field is not None
        and field.points_to is not None
        and size == 8
        and total == field.offset
    ):
        target_type = v.kernel.btf.type_by_name(field.points_to)
        if target_type is not None:
            result = RegState.pointer(RegType.PTR_TO_BTF_ID)
            result.btf = _VirtualBtfObject(target_type)
            return result
    return RegState.unknown_scalar()


class _VirtualBtfObject:
    """A BTF object reached by pointer-chasing (no concrete address).

    The verifier only needs the type for bounds checking; the runtime
    resolves the actual pointer value from memory.
    """

    def __init__(self, btf_type) -> None:
        self.btf_id = -1
        self.type = btf_type
        self.allocation = None
        self.maybe_absent = True

    @property
    def address(self) -> int:
        return 0


def _check_mem_region_access(v, state, insn, reg, off, size, is_write):
    lo = off + reg.off + reg.smin
    hi = off + reg.off + reg.smax
    if lo < 0 or hi + size > reg.mem_size:
        v.reject(
            errno.EACCES,
            f"invalid access to memory, mem_size={reg.mem_size} "
            f"off={hi} size={size}",
        )
    return None if is_write else RegState.unknown_scalar()


def check_mem_access(
    v,
    state,
    insn: Insn,
    ptr_regno: int,
    off: int,
    size: int,
    is_write: bool,
    src_reg: RegState | None = None,
) -> RegState | None:
    """Validate one memory access; returns the loaded state for reads."""
    reg = state.regs[ptr_regno]

    if reg.type == RegType.NOT_INIT:
        v.reject(errno.EACCES, f"R{ptr_regno} !read_ok")
    if reg.type == RegType.SCALAR:
        v.reject(errno.EACCES, f"R{ptr_regno} invalid mem access 'scalar'")
    if reg.is_maybe_null():
        v.reject(
            errno.EACCES,
            f"R{ptr_regno} invalid mem access '{reg.type.value}' "
            f"(possibly NULL)",
        )

    if reg.type == RegType.PTR_TO_STACK:
        return _check_stack_access(v, state, insn, reg, off, size, is_write, src_reg)
    if reg.type == RegType.PTR_TO_CTX:
        return _check_ctx_access(v, state, insn, reg, off, size, is_write)
    if reg.type == RegType.PTR_TO_MAP_VALUE:
        return _check_map_value_access(v, state, insn, reg, off, size, is_write)
    if reg.is_pkt_pointer():
        return _check_packet_access(v, state, insn, reg, off, size, is_write)
    if reg.type == RegType.PTR_TO_BTF_ID:
        return _check_btf_access(v, state, insn, reg, off, size, is_write)
    if reg.type == RegType.PTR_TO_MEM:
        return _check_mem_region_access(v, state, insn, reg, off, size, is_write)

    v.reject(
        errno.EACCES,
        f"R{ptr_regno} invalid mem access '{reg.type.value}'",
    )
    return None  # pragma: no cover - reject raises
