"""Call-site checking: helpers, kfuncs, and bpf-to-bpf calls.

The verifier matches the argument registers R1-R5 against the callee's
prototype, then models the call's effect on the state: R1-R5 become
uninitialised (caller-saved), and R0 takes the prototype's return
type.

Two injected verifier flaws live here:

- **Bug #6** — the fixed kernel refuses NMI-unsafe helpers (e.g.
  ``bpf_send_signal``) for program types that run in NMI context; the
  flawed kernel loads such programs, which panic at runtime.
- **Bug #3** — the fixed kernel invalidates R0's scalar knowledge
  across a kfunc call; the flawed kernel keeps the stale bounds, so a
  bounded pre-call value "justifies" a post-call access whose actual
  index is whatever the kfunc returned.
"""

from __future__ import annotations

import errno

from repro.ebpf.helpers import ArgType, RetType
from repro.ebpf.insn import Insn
from repro.ebpf.kfuncs import KFUNCS
from repro.ebpf.opcodes import Reg
from repro.ebpf.program import ProgType
from repro.kernel.config import Flaw
from repro.verifier.state import RegState, RegType

__all__ = ["check_helper_call", "check_kfunc_call"]

_ARG_REGS = (Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5)


def _check_mem_arg(
    v, state, regno: int, reg: RegState, size: int, is_write: bool
) -> None:
    """A helper argument pointing at a readable/writable region."""
    if size < 0:
        v.reject(errno.EACCES, f"R{regno} negative access size {size}")
    if size == 0:
        return
    if reg.type == RegType.PTR_TO_STACK:
        if not reg.var_off.is_const():
            v.reject(errno.EACCES, f"R{regno} variable stack pointer to helper")
        off = reg.off
        from repro.verifier.stack import StackState

        if not StackState.in_bounds(off, size):
            v.reject(
                errno.EACCES,
                f"invalid indirect access to stack off={off} size={size}",
            )
        if is_write:
            state.stack.mark_region_written(off, size)
        else:
            error = state.stack.check_region_initialized(off, size)
            if error:
                v.reject(errno.EACCES, f"R{regno} {error}")
        return
    if reg.type == RegType.PTR_TO_MAP_VALUE:
        if reg.map is None:
            v.reject(errno.EACCES, f"R{regno} map pointer without map state")
        lo = reg.off + reg.smin
        hi = reg.off + reg.smax
        if lo < 0 or hi + size > reg.map.value_size:
            v.reject(
                errno.EACCES,
                f"R{regno} invalid map value region off={hi} size={size}",
            )
        return
    if reg.type == RegType.PTR_TO_MEM:
        lo = reg.off + reg.smin
        if lo < 0 or reg.off + reg.smax + size > reg.mem_size:
            v.reject(errno.EACCES, f"R{regno} invalid mem region size={size}")
        return
    if reg.is_pkt_pointer():
        hi = reg.off + reg.umax
        if reg.smin + reg.off < 0 or hi + size > reg.pkt_range:
            v.reject(
                errno.EACCES, f"R{regno} invalid packet region size={size}"
            )
        return
    v.reject(
        errno.EACCES,
        f"R{regno} type={reg.type.value} expected pointer to memory",
    )


def _const_size(v, regno: int, reg: RegState, allow_zero: bool) -> int:
    """Validate and extract a CONST_SIZE[_OR_ZERO] argument."""
    if not reg.is_scalar():
        v.reject(errno.EACCES, f"R{regno} size argument must be a scalar")
    if reg.smin < 0:
        v.reject(errno.EACCES, f"R{regno} size argument may be negative")
    if not allow_zero and reg.umin == 0 and not reg.is_const():
        # The kernel demands provably-positive sizes for CONST_SIZE.
        v.reject(errno.EACCES, f"R{regno} size argument may be zero")
    if not allow_zero and reg.is_const() and reg.const_value() == 0:
        v.reject(errno.EACCES, f"R{regno} zero-size memory access")
    if reg.umax > 1 << 29:
        v.reject(errno.EACCES, f"R{regno} size argument too large")
    return reg.umax


def release_reference(v, state, ref_obj_id: int) -> None:
    """Drop a release obligation and kill every alias of the object."""
    from repro.verifier.branches import _cow_update_regs

    state.refs.pop(ref_obj_id, None)

    def match(reg: RegState) -> bool:
        return reg.ref_obj_id == ref_obj_id

    def invalidate(reg: RegState) -> None:
        reg.mark_unknown()

    _cow_update_regs(state, match, invalidate)


def check_helper_call(v, state, insn: Insn) -> None:
    """Verify a helper call and apply its effect on the state."""
    proto = v.kernel.helpers.get(insn.imm)
    if proto is None:
        v.reject(errno.EINVAL, f"invalid func unknown#{insn.imm}")

    prog_type = v.prog.prog_type.value
    if proto.prog_types is not None and prog_type not in proto.prog_types:
        v.reject(
            errno.EINVAL,
            f"unknown func {proto.name}#{insn.imm} for program type {prog_type}",
        )

    # Bug #6: NMI-unsafe helpers must be refused for NMI program types.
    if proto.nmi_unsafe and v.prog.prog_type == ProgType.PERF_EVENT:
        if not v.has_flaw(Flaw.SIGNAL_PANIC):
            v.reject(
                errno.EINVAL,
                f"helper {proto.name} is not allowed in NMI context programs",
            )

    # Spin-lock discipline: while the lock is held only the unlock
    # helper may be called (the kernel's function-call restriction).
    from repro.ebpf.helpers import HelperId

    if state.active_lock is not None and proto.helper_id != HelperId.SPIN_UNLOCK:
        v.reject(
            errno.EINVAL,
            f"function calls are not allowed while holding a lock "
            f"({proto.name})",
        )

    regs = state.regs
    meta_map = None
    meta_alloc_size = 0
    released_ref = 0
    pending_mem: tuple[int, RegState, bool] | None = None

    for arg_idx, arg_type in enumerate(proto.args):
        regno = _ARG_REGS[arg_idx]
        reg = regs[regno]
        if reg.type == RegType.NOT_INIT:
            v.reject(errno.EACCES, f"R{regno} !read_ok")
        if reg.is_maybe_null():
            v.reject(
                errno.EACCES,
                f"R{regno} type={reg.type.value} expected non-null argument",
            )

        if arg_type == ArgType.ANYTHING:
            continue
        if arg_type == ArgType.CONST_ALLOC_SIZE:
            if not reg.is_scalar():
                v.reject(errno.EACCES, f"R{regno} alloc size must be scalar")
            if reg.smin <= 0:
                v.reject(errno.EACCES, f"R{regno} alloc size must be positive")
            if reg.umax > 1 << 20:
                v.reject(errno.EACCES, f"R{regno} alloc size too large")
            meta_alloc_size = reg.umax
            continue
        if arg_type == ArgType.PTR_TO_SPIN_LOCK:
            if reg.type != RegType.PTR_TO_MAP_VALUE or reg.map is None:
                v.reject(
                    errno.EACCES,
                    f"R{regno} expected a map value containing a spin lock",
                )
            if not getattr(reg.map, "has_spin_lock", False):
                v.reject(
                    errno.EACCES,
                    f"R{regno} map does not contain a bpf_spin_lock",
                )
            if reg.off != reg.map.SPIN_LOCK_OFF or not reg.var_off.is_const():
                v.reject(
                    errno.EACCES,
                    f"R{regno} must point exactly at the bpf_spin_lock",
                )
            is_lock = proto.helper_id == HelperId.SPIN_LOCK
            lock_key = (id(reg.map), reg.id)
            if is_lock:
                if state.active_lock is not None:
                    v.reject(
                        errno.EINVAL, "bpf_spin_lock is already being held"
                    )
                state.active_lock = lock_key
            else:
                if state.active_lock is None:
                    v.reject(
                        errno.EINVAL,
                        "bpf_spin_unlock without taking a lock",
                    )
                if state.active_lock != lock_key:
                    v.reject(
                        errno.EINVAL,
                        "bpf_spin_unlock of a different lock",
                    )
                state.active_lock = None
            continue
        if arg_type == ArgType.PTR_TO_ALLOC_MEM:
            if reg.type != RegType.PTR_TO_MEM or reg.ref_obj_id == 0:
                v.reject(
                    errno.EACCES,
                    f"R{regno} expected an acquired (refcounted) pointer",
                )
            if reg.ref_obj_id not in state.refs:
                v.reject(
                    errno.EACCES,
                    f"R{regno} reference has already been released",
                )
            if reg.off != 0 or not reg.var_off.is_const():
                v.reject(
                    errno.EACCES,
                    f"R{regno} must point to the start of the allocation",
                )
            released_ref = reg.ref_obj_id
            continue
        if arg_type == ArgType.SCALAR:
            if not reg.is_scalar():
                v.reject(errno.EACCES, f"R{regno} expected scalar")
            continue
        if arg_type == ArgType.CONST_MAP_PTR:
            if reg.type != RegType.CONST_PTR_TO_MAP or reg.map is None:
                v.reject(errno.EACCES, f"R{regno} expected map pointer")
            meta_map = reg.map
            # check_map_func_compatibility: helper <-> map-type pairing.
            if (
                proto.map_types is not None
                and meta_map.map_type not in proto.map_types
            ):
                v.reject(
                    errno.EINVAL,
                    f"cannot pass map_type {int(meta_map.map_type)} into "
                    f"func {proto.name}#{int(proto.helper_id)}",
                )
            continue
        if arg_type == ArgType.PTR_TO_CTX:
            if reg.type != RegType.PTR_TO_CTX:
                v.reject(errno.EACCES, f"R{regno} expected ctx pointer")
            continue
        if arg_type == ArgType.PTR_TO_BTF_ID:
            if reg.type != RegType.PTR_TO_BTF_ID:
                v.reject(errno.EACCES, f"R{regno} expected BTF object pointer")
            continue
        if arg_type == ArgType.PTR_TO_MAP_KEY:
            if meta_map is None:
                v.reject(errno.EACCES, f"R{regno} map key without map argument")
            _check_mem_arg(v, state, regno, reg, meta_map.key_size, is_write=False)
            continue
        if arg_type == ArgType.PTR_TO_MAP_VALUE:
            if meta_map is None:
                v.reject(errno.EACCES, f"R{regno} map value without map argument")
            _check_mem_arg(v, state, regno, reg, meta_map.value_size, is_write=False)
            continue
        if arg_type == ArgType.PTR_TO_UNINIT_MAP_VALUE:
            if meta_map is None:
                v.reject(errno.EACCES, f"R{regno} map value without map argument")
            _check_mem_arg(v, state, regno, reg, meta_map.value_size, is_write=True)
            continue
        if arg_type in (ArgType.PTR_TO_MEM, ArgType.PTR_TO_UNINIT_MEM):
            pending_mem = (regno, reg, arg_type == ArgType.PTR_TO_UNINIT_MEM)
            continue
        if arg_type in (ArgType.CONST_SIZE, ArgType.CONST_SIZE_OR_ZERO):
            if pending_mem is None:
                v.reject(errno.EACCES, f"R{regno} size without memory argument")
            size = _const_size(
                v, regno, reg, allow_zero=arg_type == ArgType.CONST_SIZE_OR_ZERO
            )
            mem_regno, mem_reg, writable = pending_mem
            _check_mem_arg(v, state, mem_regno, mem_reg, size, is_write=writable)
            pending_mem = None
            continue

    if pending_mem is not None:
        v.reject(
            errno.EACCES,
            f"helper {proto.name} memory argument missing its size",
        )

    # Release obligations are settled before the clobber so aliases in
    # callee-saved registers are invalidated too.
    if proto.releases_ref and released_ref:
        release_reference(v, state, released_ref)

    # Effect on the state: caller-saved registers die, R0 is born.
    for regno in _ARG_REGS:
        regs[regno] = RegState.not_init()
    regs[Reg.R0] = _helper_return(v, proto, meta_map, meta_alloc_size)

    if proto.acquires_ref and regs[Reg.R0].ref_obj_id:
        state.refs[regs[Reg.R0].ref_obj_id] = v.cur_insn_idx

    v.note_helper(proto)


def _helper_return(v, proto, meta_map, meta_alloc_size: int = 0) -> RegState:
    if proto.ret == RetType.INTEGER:
        return RegState.unknown_scalar()
    if proto.ret == RetType.VOID:
        return RegState.not_init()
    if proto.ret == RetType.PTR_TO_MAP_VALUE_OR_NULL:
        reg = RegState.pointer(RegType.PTR_TO_MAP_VALUE_OR_NULL)
        reg.map = meta_map
        reg.id = v.env.new_id()
        return reg
    if proto.ret == RetType.PTR_TO_BTF_ID:
        reg = RegState.pointer(RegType.PTR_TO_BTF_ID)
        reg.btf = v.kernel.btf.object(v.kernel.btf.current_task_id)
        return reg
    if proto.ret == RetType.PTR_TO_ALLOC_MEM_OR_NULL:
        reg = RegState.pointer(RegType.PTR_TO_MEM_OR_NULL)
        reg.mem_size = meta_alloc_size
        reg.id = v.env.new_id()
        reg.ref_obj_id = v.env.new_id()
        return reg
    raise AssertionError(f"unhandled return type {proto.ret}")


def check_kfunc_call(v, state, insn: Insn) -> None:
    """Verify a kfunc call (Bug #3's site)."""
    if not v.config.has_kfuncs:
        v.reject(errno.EINVAL, "calling kernel functions is not supported")
    proto = KFUNCS.get(insn.imm)
    if proto is None:
        v.reject(errno.EINVAL, f"kernel function btf_id {insn.imm} is not allowed")

    regs = state.regs
    for arg_idx, arg_type in enumerate(proto.args):
        regno = _ARG_REGS[arg_idx]
        reg = regs[regno]
        if reg.type == RegType.NOT_INIT:
            v.reject(errno.EACCES, f"R{regno} !read_ok")
        if arg_type == ArgType.PTR_TO_BTF_ID:
            if reg.type != RegType.PTR_TO_BTF_ID:
                v.reject(
                    errno.EACCES,
                    f"R{regno} expected BTF object pointer for {proto.name}",
                )

    stale_r0 = regs[Reg.R0]
    for regno in _ARG_REGS:
        regs[regno] = RegState.not_init()

    if proto.ret.startswith("btf:"):
        reg = RegState.pointer(RegType.PTR_TO_BTF_ID)
        type_name = proto.ret.split(":", 1)[1]
        obj_type = v.kernel.btf.type_by_name(type_name)
        from repro.verifier.checks import _VirtualBtfObject

        reg.btf = _VirtualBtfObject(obj_type)
        regs[Reg.R0] = reg
    else:
        # Bug #3: the flawed verifier forgets to invalidate R0, keeping
        # whatever scalar bounds it had before the call.  Only a scalar
        # R0 has bounds to keep.
        scalar = stale_r0.is_scalar()
        if v.has_flaw(Flaw.KFUNC_BACKTRACK, decides=scalar) and scalar:
            regs[Reg.R0] = stale_r0
        else:
            regs[Reg.R0] = RegState.unknown_scalar()

    v.note_kfunc(proto)
