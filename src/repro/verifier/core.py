"""The verifier's main analysis loop.

``Verifier.verify`` runs the full pipeline the kernel runs inside
``bpf_check``:

1. structural validation of the instruction stream (opcode validity,
   register numbers, jump targets, LD_IMM64 pairing),
2. resolution of pseudo immediates (map fds, BTF ids, subprog refs),
3. the path-sensitive ``do_check`` simulation with state pruning and a
   complexity budget,
4. the fixup/rewrite phase (map address materialisation, PROBE_MEM
   marking, ``alu_limit`` rewrites) — into which BVF's memory-access
   sanitation hooks (Section 4.2 of the paper).

Every rejection raises :class:`~repro.errors.VerifierReject` carrying
the errno user space would see, which the acceptance-rate experiment
(Section 6.3) aggregates.
"""

from __future__ import annotations

import errno

from repro import obs
from repro.errors import VerifierReject
from repro.ebpf.insn import Insn
from repro.ebpf.opcodes import (
    AluOp,
    AtomicOp,
    InsnClass,
    JmpOp,
    Mode,
    PseudoCall,
    PseudoSrc,
    Reg,
    Size,
    Src,
    SIZE_BYTES,
    STACK_SIZE,
)
from repro.ebpf.program import BpfProgram, ProgType, VerifiedProgram
from repro.kernel.config import Flaw
from repro.verifier import branches
from repro.verifier.calls import check_helper_call, check_kfunc_call
from repro.verifier.checks import check_alu, check_mem_access
from repro.verifier.env import (
    FuncFrame,
    MAX_CALL_DEPTH,
    VerifierEnv,
    VerifierState,
)
from repro.verifier.log import VerifierLog
from repro.verifier.state import RegState, RegType

__all__ = ["Verifier", "MAX_USER_INSNS"]

#: Instruction-count cap for submitted programs (kernel: BPF_MAXINSNS
#: for unprivileged, 1M for privileged; we use the classic cap).
MAX_USER_INSNS = 4096

_VALID_ATOMIC_OPS = {
    int(AtomicOp.ADD),
    int(AtomicOp.OR),
    int(AtomicOp.AND),
    int(AtomicOp.XOR),
    int(AtomicOp.ADD) | int(AtomicOp.FETCH),
    int(AtomicOp.OR) | int(AtomicOp.FETCH),
    int(AtomicOp.AND) | int(AtomicOp.FETCH),
    int(AtomicOp.XOR) | int(AtomicOp.FETCH),
    int(AtomicOp.XCHG),
    int(AtomicOp.CMPXCHG),
}

_VALID_CALL_KINDS = frozenset(
    {int(PseudoCall.HELPER), int(PseudoCall.CALL), int(PseudoCall.KFUNC)}
)


def _build_structure_tables() -> tuple[tuple, tuple, tuple]:
    """Per-opcode-byte structural validity, precomputed once.

    Most of ``_check_insn_fields`` depends only on the opcode byte:
    the class, the operation nibble, and the size/mode bits.  Those
    verdicts are folded into two 256-entry tables — a static rejection
    message (or ``None``) and a residual-check tag for the handful of
    cases that must also look at the operand fields or the kernel
    config.  The checks and their order mirror the original
    per-instruction cascade exactly.
    """
    static: list[str | None] = [None] * 256
    resid: list[str | None] = [None] * 256
    is_call: list[bool] = [False] * 256
    for op in range(256):
        cls = InsnClass(op & 0x07)
        hi = op & 0xF0
        if cls in (InsnClass.ALU, InsnClass.ALU64):
            if hi > int(AluOp.END):
                static[op] = "invalid ALU op"
        elif cls in (InsnClass.JMP, InsnClass.JMP32):
            if hi > int(JmpOp.JSLE):
                static[op] = "invalid JMP op"
            elif cls == InsnClass.JMP32 and hi in (
                int(JmpOp.JA),
                int(JmpOp.CALL),
                int(JmpOp.EXIT),
            ):
                static[op] = "invalid JMP32 op"
            elif cls == InsnClass.JMP and hi == int(JmpOp.CALL):
                resid[op] = "call"
                is_call[op] = True
            elif cls == InsnClass.JMP and hi == int(JmpOp.EXIT):
                resid[op] = "exit"
        elif cls == InsnClass.LD:
            mode = Mode(op & 0xE0)
            if mode == Mode.IMM:
                if Size(op & 0x18) != Size.DW:
                    static[op] = "invalid LD IMM size"
                else:
                    resid[op] = "ld_imm64"
            elif mode in (Mode.ABS, Mode.IND):
                static[op] = "legacy packet access not supported"
            else:
                static[op] = "invalid LD mode"
        elif cls == InsnClass.LDX:
            mode = Mode(op & 0xE0)
            if mode == Mode.MEMSX:
                resid[op] = (
                    "memsx_dw" if Size(op & 0x18) == Size.DW else "memsx"
                )
            elif mode != Mode.MEM:
                static[op] = "invalid LDX mode"
        elif cls == InsnClass.ST:
            if Mode(op & 0xE0) != Mode.MEM:
                static[op] = "invalid ST mode"
        elif cls == InsnClass.STX:
            mode = Mode(op & 0xE0)
            if mode == Mode.ATOMIC:
                resid[op] = (
                    "atomic"
                    if Size(op & 0x18) in (Size.W, Size.DW)
                    else "atomic_badsize"
                )
            elif mode != Mode.MEM:
                static[op] = "invalid STX mode"
    return tuple(static), tuple(resid), tuple(is_call)


_STRUCT_STATIC, _STRUCT_RESID, _STRUCT_IS_CALL = _build_structure_tables()


class Verifier:
    """One verification run over one program."""

    def __init__(
        self,
        kernel,
        prog: BpfProgram,
        log_level: int = 1,
        sanitize: bool = False,
        check_invariants: bool = False,
    ) -> None:
        self.kernel = kernel
        self.config = kernel.config
        self.prog = prog
        self.insns = prog.insns
        self.sanitize = sanitize
        #: the event subscriber(s) (:mod:`repro.obs.events`): the
        #: process-current observer, plus an abstract-state checker
        #: for this load when ``check_invariants``.  None = unobserved:
        #: every hook site then pays one ``is not None`` test.
        self.observer = obs.observer()
        if check_invariants:
            from repro.verifier.sanity import VStateChecker

            self.observer = obs.compose(self.observer, VStateChecker())
        #: the abstract R0 of every path that leaves the program
        #: (:attr:`VerifiedProgram.exit_r0`)
        self.exit_r0: list[RegState] = []
        self.log = VerifierLog(log_level)
        self.env = VerifierEnv(self.log, self.config.complexity_limit)
        self.env.observer = self.observer
        #: pseudo LD_IMM64 resolutions: slot index -> (kind, payload)
        self.pseudo_refs: dict[int, tuple[str, object]] = {}
        #: loads to be rewritten as fault-handled PROBE_MEM
        self.probe_mem: set[int] = set()
        #: slot index -> (limit, alu_op) for sanitize_ptr_alu rewrites
        self.alu_limits: dict[int, tuple[int, int]] = {}
        self.helper_ids: set[int] = set()
        self.uses_lock_helpers = False
        self.cur_insn_idx = 0
        self.max_stack_depth = 0
        self._prune_points: set[int] = set()
        #: targets of back edges: pruning there means an infinite loop
        self._loop_headers: set[int] = set()
        #: first slots of LD_IMM64 pairs, collected during the
        #: structure pass so pseudo resolution need not rescan
        self._ld_imm64_idxs: list[int] = []

    # --- services used by the check modules --------------------------------

    def reject(self, err: int, message: str) -> None:
        self.log.write(message)
        m = obs.metrics()
        m.counter("verifier.rejected")
        m.observe("verifier.insns_processed", self.env.insns_processed)
        self._emit_prune_metrics(m)
        if self.observer is not None:
            self.observer.verdict("reject", err, self.cur_insn_idx, message)
        raise VerifierReject(err, message, log=self.log.text())

    def has_flaw(self, flaw: Flaw, decides: bool = True) -> bool:
        """Whether ``flaw`` is active.

        A caller passes ``decides=False`` where its decision is the
        same whichever the answer; the answer is then False and the
        config is not read, so a recorded load (DESIGN §5e) depends on
        fewer facts.  A call site calls this either way: the call
        itself is a coverage block.
        """
        return decides and self.config.has_flaw(flaw)

    def mark_probe_mem(self, idx: int) -> None:
        self.probe_mem.add(idx)
        if self.observer is not None:
            self.observer.patch(idx, "probe_mem", None)

    def record_alu_limit(self, insn_limit: int, op: AluOp) -> None:
        self.alu_limits[self.cur_insn_idx] = (insn_limit, int(op))
        if self.observer is not None:
            self.observer.patch(self.cur_insn_idx, "alu_limit",
                                (insn_limit, op))

    def note_helper(self, proto) -> None:
        self.helper_ids.add(int(proto.helper_id))
        if proto.acquires_lock:
            self.uses_lock_helpers = True
        if self.observer is not None:
            self.observer.call(self.cur_insn_idx, proto)

    def note_kfunc(self, proto) -> None:
        self.helper_ids.add(proto.btf_id)
        if self.observer is not None:
            self.observer.call(self.cur_insn_idx, proto)

    # --- structural validation ------------------------------------------------

    def _check_structure(self) -> None:
        insns = self.insns
        if not insns:
            self.reject(errno.EINVAL, "empty program")
        if len(insns) > MAX_USER_INSNS:
            self.reject(errno.E2BIG, f"program too large ({len(insns)} insns)")

        expect_filler = False
        for idx, insn in enumerate(insns):
            # Keep the failing-instruction attribution exact for
            # structural rejections (reject events / the explainer).
            self.cur_insn_idx = idx
            if expect_filler:
                if not insn.is_filler():
                    self.reject(errno.EINVAL, f"invalid LD_IMM64 pair at {idx - 1}")
                expect_filler = False
                continue
            if insn.is_filler():
                self.reject(errno.EINVAL, f"unexpected zero opcode at {idx}")
            self._check_insn_fields(idx, insn)
            if insn.is_ld_imm64():
                expect_filler = True
                self._ld_imm64_idxs.append(idx)
        if expect_filler:
            self.reject(errno.EINVAL, "LD_IMM64 missing second slot")

        last = insns[-1]
        if not (last.is_exit() or last.is_filler() and len(insns) >= 2):
            if not last.is_exit():
                self.reject(errno.EINVAL, "last insn is not an exit or jmp")

        self._check_jump_targets()

    def _check_insn_fields(self, idx: int, insn: Insn) -> None:
        op = insn.opcode & 0xFF
        if insn.dst > 10 or insn.src > 10:
            if not (_STRUCT_IS_CALL[op] and insn.src <= 10):
                self.reject(errno.EINVAL, f"invalid register number at {idx}")
        message = _STRUCT_STATIC[op]
        if message is not None:
            self.reject(errno.EINVAL, f"{message} at {idx}")
        kind = _STRUCT_RESID[op]
        if kind is None:
            return
        if kind == "call":
            if insn.src not in _VALID_CALL_KINDS:
                self.reject(errno.EINVAL, f"invalid call kind at {idx}")
            if insn.dst or insn.off:
                self.reject(
                    errno.EINVAL, f"BPF_CALL uses reserved fields at {idx}"
                )
        elif kind == "exit":
            if insn.dst or insn.src or insn.imm or insn.off:
                self.reject(
                    errno.EINVAL, f"BPF_EXIT uses reserved fields at {idx}"
                )
        elif kind == "ld_imm64":
            if insn.src > int(PseudoSrc.MAP_IDX_VALUE):
                self.reject(errno.EINVAL, f"invalid LD_IMM64 pseudo at {idx}")
        elif kind in ("memsx", "memsx_dw"):
            if not self.config.has_bpf_loop:
                self.reject(errno.EINVAL, f"MEMSX loads not supported at {idx}")
            if kind == "memsx_dw":
                self.reject(errno.EINVAL, f"invalid MEMSX size at {idx}")
        else:  # atomic / atomic_badsize
            if insn.imm not in _VALID_ATOMIC_OPS:
                self.reject(errno.EINVAL, f"invalid atomic op at {idx}")
            if kind == "atomic_badsize":
                self.reject(errno.EINVAL, f"invalid atomic size at {idx}")

    def _check_jump_targets(self) -> None:
        n = len(self.insns)
        for idx, insn in enumerate(self.insns):
            if insn.is_filler():
                continue
            self.cur_insn_idx = idx
            target = None
            if insn.is_pseudo_call():
                target = idx + insn.imm + 1
            elif insn.is_jmp() and not insn.is_call() and not insn.is_exit():
                target = idx + insn.off + 1
            if target is None:
                continue
            if not 0 <= target < n:
                self.reject(errno.EINVAL, f"jump out of range from {idx} to {target}")
            if self.insns[target].is_filler():
                self.reject(
                    errno.EINVAL, f"jump into the middle of ldimm64 at {idx}"
                )
            if target <= idx and not insn.is_pseudo_call():
                # Back edge: its target must never be pruned — a state
                # repeating there is an infinite loop, not progress.
                self._loop_headers.add(target)
            self._prune_points.add(target)
            if insn.is_cond_jmp():
                self._prune_points.add(idx + 1)

    # --- pseudo resolution --------------------------------------------------------

    def _resolve_pseudo(self) -> None:
        for idx in self._ld_imm64_idxs:
            self.cur_insn_idx = idx
            insn = self.insns[idx]
            kind = PseudoSrc(insn.src)
            if kind == PseudoSrc.RAW:
                continue
            if kind == PseudoSrc.MAP_FD:
                bpf_map = self.kernel.map_by_fd(insn.imm64 & 0xFFFFFFFF)
                if bpf_map is None:
                    self.reject(errno.EBADF, f"fd {insn.imm64} is not a map")
                self.pseudo_refs[idx] = ("map", bpf_map)
            elif kind == PseudoSrc.MAP_VALUE:
                fd = insn.imm64 & 0xFFFFFFFF
                off = insn.imm64 >> 32
                bpf_map = self.kernel.map_by_fd(fd)
                if bpf_map is None:
                    self.reject(errno.EBADF, f"fd {fd} is not a map")
                from repro.ebpf.maps import MapType

                if not hasattr(bpf_map, "_values") or (
                    bpf_map.map_type == MapType.PROG_ARRAY
                ):
                    self.reject(
                        errno.EINVAL, "map type does not support direct value access"
                    )
                if off >= bpf_map.value_size:
                    self.reject(errno.EINVAL, f"direct value offset {off} too large")
                self.pseudo_refs[idx] = ("map_value", (bpf_map, off))
            elif kind == PseudoSrc.BTF_ID:
                if not self.config.has_btf_access:
                    self.reject(errno.EINVAL, "BTF object access not supported")
                obj = self.kernel.btf.object(insn.imm64)
                if obj is None:
                    self.reject(errno.EINVAL, f"invalid btf_id {insn.imm64}")
                self.pseudo_refs[idx] = ("btf", obj)
            elif kind == PseudoSrc.FUNC:
                self.reject(errno.EINVAL, "pseudo func loads not supported")
            else:
                self.reject(errno.EINVAL, f"unsupported pseudo src {kind}")

    # --- main loop ---------------------------------------------------------------------

    def verify(self) -> VerifiedProgram:
        """Run the verifier; returns the rewritten program or raises."""
        m = obs.metrics()
        m.counter("verifier.programs")
        observer = self.observer
        if observer is not None:
            observer.begin(self.prog.name, len(self.insns))
        try:
            for stage, run in _PIPELINE:
                if observer is not None:
                    observer.enter(stage)
                verified = run(self)
                if observer is not None:
                    observer.leave(stage)
        except VerifierReject:
            raise  # reject() already reported the verdict
        except BaseException as exc:
            if observer is not None:
                observer.abort(exc)
            raise
        m.counter("verifier.accepted")
        m.observe("verifier.insns_processed", self.env.insns_processed)
        m.observe("verifier.max_stack_depth", self.max_stack_depth)
        m.gauge_max("verifier.peak_insns_processed", self.env.insns_processed)
        self._emit_prune_metrics(m)
        if observer is not None:
            observer.verdict("accept", None, self.cur_insn_idx)
        return verified

    def _emit_prune_metrics(self, m) -> None:
        env = self.env
        m.counter("verifier.prune.scan_hits", env.prune_scan_hits)
        m.counter("verifier.prune.misses", env.prune_misses)
        m.counter("verifier.prune.evictions", env.prune_evictions)

    def _initial_state(self) -> VerifierState:
        ctx = RegState.pointer(RegType.PTR_TO_CTX)
        return VerifierState(frames=[FuncFrame.entry(ctx)], insn_idx=0)

    def _do_check(self) -> None:
        state: VerifierState | None = self._initial_state()
        env = self.env
        observer = self.observer
        while state is not None:
            env.insns_processed += 1
            if env.insns_processed > env.complexity_limit:
                self.reject(
                    errno.E2BIG,
                    f"BPF program is too large. Processed "
                    f"{env.insns_processed} insn",
                )
            idx = state.insn_idx
            if not 0 <= idx < len(self.insns):
                self.reject(errno.EACCES, f"fell off the end at insn {idx}")
            insn = self.insns[idx]
            if insn.is_filler():
                self.reject(errno.EINVAL, f"reached ldimm64 filler at {idx}")
            self.cur_insn_idx = idx

            if self.log.level >= 2:
                from repro.ebpf.disasm import format_insn

                regs_text = " ".join(
                    f"R{i}={state.regs[i]}"
                    for i in range(11)
                    if state.regs[i].type.value != "not_init"
                )
                self.log.write(f"{idx}: {format_insn(insn)} ; {regs_text}")

            if observer is not None:
                observer.step(idx, insn, state)
                if idx in self._prune_points:
                    observer.checkpoint("prune", idx, state)

            if idx in self._loop_headers:
                # Kernel behaviour: reaching a back-edge target with a
                # state subsumed by one already verified there means
                # the loop made no progress.
                if env.loop_header_seen(state):
                    self.reject(errno.EINVAL, "infinite loop detected")
            elif idx in self._prune_points and env.is_visited(state):
                state = env.pop_state()
                continue
            state = self._step(state, insn)
            if state is None:
                state = env.pop_state()

    def _step(self, state: VerifierState, insn: Insn) -> VerifierState | None:
        """Verify one instruction; returns the continuing state."""
        cls = insn.insn_class
        idx = state.insn_idx

        if cls in (InsnClass.ALU, InsnClass.ALU64):
            check_alu(self, state, insn)
            state.insn_idx = idx + 1
            return state
        if cls == InsnClass.LD:
            self._do_ld_imm64(state, insn, idx)
            state.insn_idx = idx + 2
            return state
        if cls == InsnClass.LDX:
            size = SIZE_BYTES[insn.size]
            result = check_mem_access(
                self, state, insn, insn.src, insn.off, size, is_write=False
            )
            if result is None:
                result = RegState.unknown_scalar()
            if insn.mode == Mode.MEMSX and result.is_scalar():
                result = RegState.unknown_scalar()
            if insn.dst == Reg.R10:
                self.reject(errno.EACCES, "frame pointer is read only")
            state.regs[insn.dst] = result
            state.insn_idx = idx + 1
            return state
        if cls == InsnClass.ST:
            size = SIZE_BYTES[insn.size]
            check_mem_access(
                self,
                state,
                insn,
                insn.dst,
                insn.off,
                size,
                is_write=True,
                src_reg=RegState.const_scalar(insn.imm),
            )
            state.insn_idx = idx + 1
            return state
        if cls == InsnClass.STX:
            if insn.mode == Mode.ATOMIC:
                self._do_atomic(state, insn)
            else:
                src_reg = state.regs[insn.src]
                if src_reg.type == RegType.NOT_INIT:
                    self.reject(errno.EACCES, f"R{insn.src} !read_ok")
                size = SIZE_BYTES[insn.size]
                if src_reg.is_pointer() and size != 8:
                    self.reject(
                        errno.EACCES, f"R{insn.src} partial spill of a pointer"
                    )
                check_mem_access(
                    self,
                    state,
                    insn,
                    insn.dst,
                    insn.off,
                    size,
                    is_write=True,
                    src_reg=src_reg,
                )
            state.insn_idx = idx + 1
            return state
        # JMP / JMP32
        op = insn.jmp_op
        if op == JmpOp.JA:
            state.insn_idx = idx + insn.off + 1
            return state
        if op == JmpOp.EXIT:
            return self._do_exit(state)
        if op == JmpOp.CALL:
            return self._do_call(state, insn)
        return self._do_cond_jmp(state, insn)

    # --- individual instruction kinds ------------------------------------------------

    def _do_ld_imm64(self, state: VerifierState, insn: Insn, idx: int) -> None:
        ref = self.pseudo_refs.get(idx)
        dst = insn.dst
        if ref is None:
            state.regs[dst] = RegState.const_scalar(insn.imm64)
            return
        kind, payload = ref
        if kind == "map":
            reg = RegState.pointer(RegType.CONST_PTR_TO_MAP)
            reg.map = payload
            state.regs[dst] = reg
        elif kind == "map_value":
            bpf_map, off = payload
            reg = RegState.pointer(RegType.PTR_TO_MAP_VALUE)
            reg.map = bpf_map
            reg.off = off
            state.regs[dst] = reg
        elif kind == "btf":
            reg = RegState.pointer(RegType.PTR_TO_BTF_ID)
            reg.btf = payload
            state.regs[dst] = reg
        else:  # pragma: no cover - resolution rejects other kinds
            self.reject(errno.EINVAL, f"unhandled pseudo ref {kind}")

    def _do_atomic(self, state: VerifierState, insn: Insn) -> None:
        size = SIZE_BYTES[insn.size]
        src_reg = state.regs[insn.src]
        if src_reg.type == RegType.NOT_INIT:
            self.reject(errno.EACCES, f"R{insn.src} !read_ok")
        if src_reg.is_pointer():
            self.reject(errno.EACCES, f"R{insn.src} atomic operand must be scalar")
        # The target must be both readable and writable.
        check_mem_access(
            self, state, insn, insn.dst, insn.off, size, is_write=False
        )
        check_mem_access(
            self,
            state,
            insn,
            insn.dst,
            insn.off,
            size,
            is_write=True,
            src_reg=src_reg,
        )
        if insn.imm & int(AtomicOp.FETCH):
            if insn.imm == int(AtomicOp.CMPXCHG):
                state.regs[Reg.R0] = RegState.unknown_scalar()
            else:
                state.regs[insn.src] = RegState.unknown_scalar()

    def _do_exit(self, state: VerifierState) -> VerifierState | None:
        r0 = state.regs[Reg.R0]
        if r0.type == RegType.NOT_INIT:
            self.reject(errno.EACCES, "R0 !read_ok")
        self.max_stack_depth = max(
            self.max_stack_depth, sum(f.stack.depth for f in state.frames)
        )
        if len(state.frames) > 1:
            callsite = state.cur.callsite
            state.frames.pop()
            state.regs[Reg.R0] = r0.clone()
            for regno in (Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5):
                state.regs[regno] = RegState.not_init()
            state.insn_idx = callsite
            return state
        if not r0.is_scalar():
            self.reject(errno.EACCES, "R0 leaks addr as return value")
        if state.refs:
            ref_id, acquired_at = next(iter(state.refs.items()))
            self.reject(
                errno.EINVAL,
                f"Unreleased reference id={ref_id} alloc_insn={acquired_at}",
            )
        if state.active_lock is not None:
            self.reject(
                errno.EINVAL, "bpf_spin_lock is held but program exits"
            )
        self.exit_r0.append(r0)
        return None  # path complete

    def _do_call(self, state: VerifierState, insn: Insn) -> VerifierState | None:
        idx = state.insn_idx
        if insn.is_pseudo_call():
            target = idx + insn.imm + 1
            if state.call_depth >= MAX_CALL_DEPTH:
                self.reject(
                    errno.E2BIG,
                    f"the call stack of {state.call_depth} frames is too deep",
                )
            total_stack = sum(f.stack.depth for f in state.frames)
            if total_stack > STACK_SIZE:
                self.reject(
                    errno.EACCES,
                    f"combined stack size of {state.call_depth} calls is too large",
                )
            caller = state.cur
            callee = FuncFrame.entry(
                RegState.not_init(),
                frameno=caller.frameno + 1,
                callsite=idx + 1,
            )
            for regno in (Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5):
                callee.regs[regno] = caller.regs[regno].clone()
            for regno in (Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5):
                caller.regs[regno] = RegState.not_init()
            caller.regs[Reg.R0] = RegState.not_init()
            state.frames.append(callee)
            state.insn_idx = target
            return state
        if insn.is_kfunc_call():
            check_kfunc_call(self, state, insn)
            if self.observer is not None:
                self.observer.checkpoint("kfunc-return", idx, state)
            state.insn_idx = idx + 1
            return state
        check_helper_call(self, state, insn)
        if self.observer is not None:
            self.observer.checkpoint("helper-return", idx, state)
        state.insn_idx = idx + 1
        return state

    def _do_cond_jmp(self, state: VerifierState, insn: Insn) -> VerifierState | None:
        idx = state.insn_idx
        is64 = insn.insn_class == InsnClass.JMP
        regs = state.regs
        dst = regs[insn.dst]
        if dst.type == RegType.NOT_INIT:
            self.reject(errno.EACCES, f"R{insn.dst} !read_ok")
        if insn.src_bit == Src.X:
            if insn.imm:
                self.reject(errno.EINVAL, "BPF_JMP uses reserved imm field")
            src = regs[insn.src]
            if src.type == RegType.NOT_INIT:
                self.reject(errno.EACCES, f"R{insn.src} !read_ok")
        else:
            if insn.src:
                self.reject(errno.EINVAL, "BPF_JMP uses reserved src field")
            src = RegState.const_scalar(
                insn.imm if is64 else insn.imm & 0xFFFFFFFF
            )

        op = insn.jmp_op
        taken = branches.is_branch_taken(dst, src, op, is64)
        if taken == -1 and insn.src_bit == Src.X:
            swapped = branches.is_branch_taken(src, dst, _SWAP_OP.get(op, op), is64)
            if swapped != -1:
                taken = swapped

        observer = self.observer
        if taken != -1:
            if observer is not None:
                observer.branch(idx, insn, None, None)
            state.insn_idx = idx + insn.off + 1 if taken else idx + 1
            return state

        # Fork: `taken_state` follows the jump, `state` falls through.
        taken_state = state.clone()
        taken_state.insn_idx = idx + insn.off + 1
        taken_state.parent_idx = idx
        state.insn_idx = idx + 1

        # The refinement helpers mutate these records in place, so take
        # writable (COW-cloned) views.  ``wreg`` is idempotent: when
        # dst == src both names resolve to the same record, preserving
        # the aliasing the in-place updates rely on.
        t_dst = taken_state.wreg(insn.dst)
        f_dst = state.wreg(insn.dst)
        if insn.src_bit == Src.X:
            t_src = taken_state.wreg(insn.src)
            f_src = state.wreg(insn.src)
        else:
            t_src = src.clone()
            f_src = src.clone()

        self._apply_branch_knowledge(
            insn, state, taken_state, t_dst, t_src, f_dst, f_src, is64
        )

        # Drop impossible branches (contradictory refined bounds).
        push_taken = not (t_dst.is_bounds_broken() or t_src.is_bounds_broken())
        keep_false = not (f_dst.is_bounds_broken() or f_src.is_bounds_broken())
        if observer is not None:
            observer.branch(idx, insn, t_dst, f_dst)
            # Branch-merge checkpoint: only surviving states must hold
            # the invariants (dropped sides are contradictory by
            # construction).
            if push_taken:
                observer.checkpoint("branch", idx, taken_state)
            if keep_false:
                observer.checkpoint("branch", idx, state)
        if push_taken:
            self.env.push_state(taken_state)
        if keep_false:
            return state
        return None

    def _apply_branch_knowledge(
        self, insn, false_state, taken_state, t_dst, t_src, f_dst, f_src, is64
    ) -> None:
        op = insn.jmp_op

        # Maybe-null pointer compared against zero.
        if op in (JmpOp.JEQ, JmpOp.JNE) and is64:
            for reg_pair, other_pair in (((t_dst, f_dst), (t_src, f_src)),
                                         ((t_src, f_src), (t_dst, f_dst))):
                t_reg, f_reg = reg_pair
                t_other, _ = other_pair
                if (
                    f_reg.is_maybe_null()
                    and t_other.is_scalar()
                    and t_other.is_const()
                    and t_other.const_value() == 0
                ):
                    null_in_taken = op == JmpOp.JEQ
                    branches.mark_ptr_or_null(
                        taken_state, t_reg.id, is_null=null_in_taken
                    )
                    branches.mark_ptr_or_null(
                        false_state, f_reg.id, is_null=not null_in_taken
                    )
                    return

            # Pointer-to-pointer equality: nullness propagation (Bug #1).
            if t_dst.is_pointer() and t_src.is_pointer():
                eq_state = taken_state if op == JmpOp.JEQ else false_state
                eq_dst = t_dst if op == JmpOp.JEQ else f_dst
                eq_src = t_src if op == JmpOp.JEQ else f_src
                # The flaw drops the filter for PTR_TO_BTF_ID operands,
                # so only a comparison with one can be decided by it.
                branches.propagate_nullness(
                    eq_state,
                    eq_dst,
                    eq_src,
                    self.config,
                    flaw_active=self.has_flaw(
                        Flaw.NULLNESS_PROPAGATION,
                        decides=RegType.PTR_TO_BTF_ID
                        in (eq_dst.type, eq_src.type),
                    ),
                )
                return

        # Packet range discovery.
        branches.try_match_pkt_pointers(
            insn, t_dst, t_src, taken_state, false_state, t_dst, t_src, f_dst, f_src
        )

        # Scalar bounds refinement.
        branches.refine_branch(t_dst, t_src, op, taken=True, is64=is64)
        branches.refine_branch(f_dst, f_src, op, taken=False, is64=is64)
        for reg, st in ((t_dst, taken_state), (t_src, taken_state),
                        (f_dst, false_state), (f_src, false_state)):
            branches.propagate_equal_scalars(st, reg)

    # --- fixup ------------------------------------------------------------------------

    def _fixup(self) -> VerifiedProgram:
        from repro.verifier.fixup import run_fixup

        return run_fixup(self)


#: ``verify()``'s stages, in order: (observer stage name, step); the
#: last step's return value is the verified program
_PIPELINE = (
    ("structure", Verifier._check_structure),
    ("resolve", Verifier._resolve_pseudo),
    ("do_check", Verifier._do_check),
    ("fixup", Verifier._fixup),
)


_SWAP_OP = {
    JmpOp.JEQ: JmpOp.JEQ,
    JmpOp.JNE: JmpOp.JNE,
    JmpOp.JGT: JmpOp.JLT,
    JmpOp.JGE: JmpOp.JLE,
    JmpOp.JLT: JmpOp.JGT,
    JmpOp.JLE: JmpOp.JGE,
    JmpOp.JSGT: JmpOp.JSLT,
    JmpOp.JSGE: JmpOp.JSLE,
    JmpOp.JSLT: JmpOp.JSGT,
    JmpOp.JSLE: JmpOp.JSGE,
}

