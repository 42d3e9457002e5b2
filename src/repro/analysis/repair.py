"""Rejection repair: reason-indexed minimal patches, verified to flip.

A rejected program teaches a campaign nothing — the
oracles only see accepted programs — so every reject is budget burned.
This module converts rejects back into signal by synthesizing the
*minimal* patch that flips the verdict: given the taxonomy reason code
(:mod:`repro.obs.taxonomy`), the rejection message, and the failing
instruction index the flight recorder attributed, a small
reason-indexed template registry proposes candidate patches (insert a
bounds/NULL check before the failing access, zero an uninitialised
register at its root-cause site, mask a shift amount, clamp an offset,
retarget a wild jump...), ranks them by static edit distance, and
**re-runs the verifier on each** — only genuine reject→accept flips
are ever reported.  "Characterizing and Bridging the Diagnostic Gap in
eBPF Verifier Rejections" (PAPERS.md) motivates the shape: developers
want the fix, not the log.

Templates never guess offsets blindly: they read the failing
instruction, the dataflow facts (:mod:`repro.analysis.dataflow` — e.g.
liveness picks the scratch register a frame-pointer write is diverted
to, provenance finds the init site an uninitialised register is
missing), and the CFG (:mod:`repro.analysis.cfg` — e.g. the back edge
an infinite loop is broken at).  Insertions go through
:func:`repro.verifier.patch.insert_before`, which rebases every jump
across the insertion point.

Everything here is a pure function of ``(insns, reason, message,
insn_idx)`` plus the verifying kernel — deterministic, so repair
artifacts merge worker-count-invariantly.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import DataflowResult, lazy_analysis
from repro.ebpf.asm import exit_insn, ja, jmp_imm, mov64_imm, st_mem
from repro.ebpf.insn import Insn, encode_program
from repro.ebpf.opcodes import (
    AluOp,
    InsnClass,
    JmpOp,
    Reg,
    Size,
    Src,
)
from repro.verifier.patch import insert_before

__all__ = [
    "MAX_VERIFY_ATTEMPTS",
    "RepairCandidate",
    "Repair",
    "propose_repairs",
    "synthesize_repair",
    "repair_diff",
    "render_program",
    "TEMPLATE_ORDER",
]

#: How many ranked candidates one synthesis re-verifies before giving
#: up.  Verification dominates repair cost, so the cap bounds the
#: per-reject overhead of ``--repair-feedback`` campaigns.
MAX_VERIFY_ATTEMPTS = 8


@dataclass
class RepairContext:
    """Everything a patch template may consult."""

    insns: list[Insn]
    reason: str
    message: str
    insn_idx: int
    #: the program's dataflow analysis, run on its first call
    analysis: Callable[[], DataflowResult]

    @property
    def flow(self) -> DataflowResult:
        return self.analysis()

    @property
    def cfg(self) -> CFG:
        return self.analysis().cfg

    @property
    def failing(self) -> Insn | None:
        if 0 <= self.insn_idx < len(self.insns):
            return self.insns[self.insn_idx]
        return None


class _Proposal(NamedTuple):
    """One candidate as a template proposes it: its rank keys, which are
    template constants, and a ``build`` that returns ``(description,
    insns)``, or ``None`` when the candidate turns out not to apply.
    Only the candidates a synthesis tries are built."""

    template: str
    edit_distance: int
    build: Callable[[], tuple[str, list[Insn]] | None]


@dataclass
class RepairCandidate:
    """One proposed (not yet verified) patch."""

    template: str
    description: str
    insns: list[Insn]
    #: slots inserted + modified + removed, the ranking key
    edit_distance: int
    #: registry position; ties in edit distance resolve here so the
    #: ranking is total and deterministic
    order: int = 0


@dataclass
class Repair:
    """A verified reject→accept flip."""

    template: str
    description: str
    reason: str
    insn_idx: int
    edit_distance: int
    original: list[Insn]
    patched: list[Insn]
    #: candidates verified before this one succeeded (1 = first try)
    attempts: int = 1

    def diff(self) -> list[str]:
        return repair_diff(self.original, self.patched)

    def to_dict(self) -> dict:
        """Artifact form — deterministic, no wall-clock fields."""
        return {
            "template": self.template,
            "description": self.description,
            "reason": self.reason,
            "insn_idx": self.insn_idx,
            "edit_distance": self.edit_distance,
            "attempts": self.attempts,
            "original_len": len(self.original),
            "patched_len": len(self.patched),
            "diff": self.diff(),
        }

    def render(self) -> str:
        lines = [
            f"suggested repair [{self.template}]: {self.description}",
            f"  edit distance {self.edit_distance} slot(s), verified "
            f"accept on attempt {self.attempts}",
            "  diff:",
        ]
        lines.extend("    " + line for line in self.diff())
        return "\n".join(lines)


# --------------------------------------------------------------------------
# helpers


def _fmt(insn: Insn) -> str:
    from repro.ebpf.disasm import format_insn

    try:
        return format_insn(insn)
    except (KeyError, ValueError):
        return f"(undecodable: opcode=0x{insn.opcode:02x})"


def render_program(insns: Sequence[Insn]) -> list[str]:
    """Numbered disassembly lines (fillers elided)."""
    return [
        f"{idx:>3}: {_fmt(insn)}"
        for idx, insn in enumerate(insns)
        if not insn.is_filler()
    ]


def repair_diff(original: Sequence[Insn], patched: Sequence[Insn]) -> list[str]:
    """Unified diff of the two programs' disassembly."""
    a = [_fmt(insn) for insn in original if not insn.is_filler()]
    b = [_fmt(insn) for insn in patched if not insn.is_filler()]
    return [
        line.rstrip("\n")
        for line in difflib.unified_diff(a, b, lineterm="", n=1)
        if not line.startswith(("---", "+++"))
    ]


def _insert(
    ctx: RepairContext, at: int, block: list[Insn]
) -> list[Insn]:
    new_insns, _ = insert_before(list(ctx.insns), {at: block})
    return new_insns


def _replace(ctx: RepairContext, at: int, insn: Insn) -> list[Insn]:
    out = list(ctx.insns)
    out[at] = insn
    return out


def _reg_in_message(message: str) -> int | None:
    match = re.search(r"[rR](\d+)\b", message)
    if match:
        reg = int(match.group(1))
        if 0 <= reg <= 10:
            return reg
    return None


def _null_guard(base: int) -> list[Insn]:
    """Skip the guarded instruction when ``base`` is NULL.

    Inserted *before* the access; the JNE skips the early exit when the
    pointer is non-NULL, landing on the original instruction.
    """
    return [
        jmp_imm(JmpOp.JNE, base, 0, 2),
        mov64_imm(Reg.R0, 0),
        exit_insn(),
    ]


def _nop_slots(ctx: RepairContext, at: int) -> list[Insn]:
    """Replace the instruction at ``at`` (and its filler) with JA +0."""
    out = list(ctx.insns)
    out[at] = ja(0)
    if ctx.insns[at].is_ld_imm64() and at + 1 < len(out):
        out[at + 1] = ja(0)
    return out


# --------------------------------------------------------------------------
# templates — each proposes the candidates of one repair idea; the
# registry below indexes them by taxonomy reason code


def _t_append_exit(ctx: RepairContext) -> Iterable[_Proposal]:
    """Fall-off-the-end shapes: give the program a proper epilogue."""
    yield _Proposal("append-exit", 2, lambda: (
        "append `r0 = 0; exit` so every path leaves the program "
        "through an exit",
        list(ctx.insns) + [mov64_imm(Reg.R0, 0), exit_insn()],
    ))
    yield _Proposal("append-bare-exit", 1, lambda: (
        "append `exit` (R0 already holds a value)",
        list(ctx.insns) + [exit_insn()],
    ))


def _t_init_register(ctx: RepairContext) -> Iterable[_Proposal]:
    """Uninitialised register: zero it at its root-cause site."""
    reg = _reg_in_message(ctx.message)
    if reg is None or reg == Reg.R10:
        return
    init = mov64_imm(reg, 0)
    # The provenance pass names the site the value should have been
    # produced at; for an uninitialised register that is frame entry,
    # so the natural init points are the frame entry and the use.
    yield _Proposal("init-before-use", 1, lambda: (
        f"initialise r{reg} = 0 immediately before the failing read at "
        f"insn {ctx.insn_idx}",
        _insert(ctx, max(ctx.insn_idx, 0), [init]),
    ))

    def at_entry():
        entry = _frame_entry(ctx)
        if entry == ctx.insn_idx:
            return None
        return (f"initialise r{reg} = 0 at the entry of the frame "
                f"containing insn {ctx.insn_idx}",
                _insert(ctx, entry, [init]))

    yield _Proposal("init-at-entry", 1, at_entry)


def _frame_entry(ctx: RepairContext) -> int:
    """Entry slot of the frame containing the failing instruction.

    Walks CFG predecessors back from the failing block; the frame entry
    is the first block reached only through ``call`` edges (or block 0
    for the main frame).
    """
    if ctx.failing is None:
        return 0
    seen: set[int] = set()
    index = ctx.cfg.block_of(ctx.insn_idx).index
    while index not in seen:
        seen.add(index)
        block = ctx.cfg.blocks[index]
        preds = sorted(set(block.pred))
        if not preds:
            return block.start
        # A block entered by a call edge is a frame entry.
        for pred in preds:
            for succ, kind in ctx.cfg.blocks[pred].succ:
                if succ == index and kind == "call":
                    return block.start
        index = preds[0]
    return 0


def _t_init_stack(ctx: RepairContext) -> Iterable[_Proposal]:
    """Uninitialised stack read: store a zero to the slot first."""
    insn = ctx.failing
    if insn is None or not insn.is_memory_load():
        return
    yield _Proposal("init-stack-slot", 1, lambda: (
        f"store 0 to the stack slot at r{insn.src}{insn.off:+d} before "
        "the uninitialised read",
        _insert(ctx, ctx.insn_idx,
                [st_mem(insn.size, insn.src, insn.off, 0)]),
    ))


def _t_clamp_offset(ctx: RepairContext) -> Iterable[_Proposal]:
    """Out-of-bounds fixed offset: clamp the access to offset 0."""
    insn = ctx.failing
    if insn is None or not insn.is_ldst() or insn.off == 0:
        return
    yield _Proposal("clamp-offset", 1, lambda: (
        f"clamp the access offset {insn.off:+d} to +0, inside every "
        "region's bounds",
        _replace(ctx, ctx.insn_idx, insn.with_(off=0)),
    ))


def _t_null_check(ctx: RepairContext) -> Iterable[_Proposal]:
    """Possibly-NULL pointer access: guard the access."""
    insn = ctx.failing
    if insn is None:
        return
    if insn.insn_class == InsnClass.LDX:
        base = insn.src
    elif insn.insn_class in (InsnClass.ST, InsnClass.STX):
        base = insn.dst
    else:
        return
    yield _Proposal("null-check", 3, lambda: (
        f"guard the access with `if r{base} == 0 exit` so the verifier "
        "can mark the pointer non-NULL",
        _insert(ctx, ctx.insn_idx, _null_guard(base)),
    ))


def _t_zero_return(ctx: RepairContext) -> Iterable[_Proposal]:
    """Pointer leak through R0 at exit: return a scalar instead."""
    insn = ctx.failing
    if insn is None or not insn.is_exit():
        return
    yield _Proposal("zero-return", 1, lambda: (
        "set r0 = 0 before the exit so no pointer leaks as the return "
        "value",
        _insert(ctx, ctx.insn_idx, [mov64_imm(Reg.R0, 0)]),
    ))


def _t_mask_shift(ctx: RepairContext) -> Iterable[_Proposal]:
    """Invalid shift amount / division by zero."""
    insn = ctx.failing
    if insn is None or not insn.is_alu():
        return
    op = insn.alu_op
    width_mask = 63 if insn.insn_class == InsnClass.ALU64 else 31
    if op in (AluOp.LSH, AluOp.RSH, AluOp.ARSH):
        if insn.src_bit == Src.K:
            yield _Proposal("mask-shift-imm", 1, lambda: (
                f"mask the shift amount {insn.imm} to "
                f"{insn.imm & width_mask} (& {width_mask})",
                _replace(ctx, ctx.insn_idx,
                         insn.with_(imm=insn.imm & width_mask)),
            ))
        else:
            yield _Proposal("mask-shift-reg", 1, lambda: (
                f"mask the shift register r{insn.src} with "
                f"& {width_mask} before the shift",
                _insert(ctx, ctx.insn_idx, [Insn(
                    opcode=insn.insn_class | AluOp.AND | Src.K,
                    dst=insn.src, imm=width_mask,
                )]),
            ))
    if op in (AluOp.DIV, AluOp.MOD):
        if insn.src_bit == Src.K:
            yield _Proposal("nonzero-divisor-imm", 1, lambda: (
                "replace the zero immediate divisor with 1",
                _replace(ctx, ctx.insn_idx, insn.with_(imm=1)),
            ))
        else:
            yield _Proposal("nonzero-divisor-reg", 2, lambda: (
                f"force the divisor r{insn.src} to 1 when it is zero",
                _insert(ctx, ctx.insn_idx, [
                    jmp_imm(JmpOp.JNE, insn.src, 0, 1),
                    mov64_imm(insn.src, 1),
                ]),
            ))


def _t_divert_fp_write(ctx: RepairContext) -> Iterable[_Proposal]:
    """Write to the read-only frame pointer: divert to a dead reg."""
    insn = ctx.failing
    if insn is None or insn.dst != Reg.R10:
        return

    def divert():
        # Liveness order is deterministic; one divert suffices.
        for reg in ctx.flow.dead_registers(ctx.insn_idx):
            return (f"redirect the write from the read-only frame "
                    f"pointer r10 to dead register r{reg}",
                    _replace(ctx, ctx.insn_idx, insn.with_(dst=reg)))
        return None

    yield _Proposal("divert-fp-write", 1, divert)


def _t_widen_store(ctx: RepairContext) -> Iterable[_Proposal]:
    """Partial pointer spill/copy: widen the access to 8 bytes."""
    insn = ctx.failing
    if insn is None or not insn.is_ldst() or insn.size == Size.DW:
        return
    widened = (insn.opcode & ~0x18) | Size.DW
    yield _Proposal("widen-to-dw", 1, lambda: (
        "widen the partial pointer access to a full 8-byte slot",
        _replace(ctx, ctx.insn_idx, insn.with_(opcode=widened)),
    ))


def _t_retarget_jump(ctx: RepairContext) -> Iterable[_Proposal]:
    """Jump out of range: retarget to the last instruction."""
    insn = ctx.failing
    if insn is None or not insn.is_jmp() or insn.is_exit() \
            or insn.is_call():
        return
    last = len(ctx.insns) - 1
    if ctx.insns[last].is_filler() and last > 0:
        last -= 1
    for target, name in ((last, "the last instruction"),
                         (ctx.insn_idx + 1, "the fall-through")):
        off = target - ctx.insn_idx - 1
        if off == insn.off:
            continue
        yield _Proposal("retarget-jump", 1, lambda name=name, off=off: (
            f"retarget the out-of-range jump to {name}",
            _replace(ctx, ctx.insn_idx, insn.with_(off=off)),
        ))


def _t_break_loop(ctx: RepairContext) -> Iterable[_Proposal]:
    """Infinite loop: break the back edge nearest the failing insn."""

    def break_back_edge():
        back = ctx.cfg.back_edges()
        fail_block = (
            ctx.cfg.block_of(ctx.insn_idx).index
            if ctx.failing is not None
            else -1
        )
        # Prefer the back edge that re-enters the failing block (the
        # loop header the verifier reported), else the first in sorted
        # order.
        back.sort(key=lambda edge: (edge[1] != fail_block, edge))
        for src_block, _dst_block in back:
            block = ctx.cfg.blocks[src_block]
            term = block.terminator
            while term > block.start and ctx.insns[term].is_filler():
                term -= 1
            insn = ctx.insns[term]
            if not insn.is_jmp() or insn.is_exit() or insn.is_call():
                continue
            return (f"neutralise the loop's back edge at insn {term} "
                    "(jump becomes fall-through)",
                    _replace(ctx, term, ja(0)))
        return None

    yield _Proposal("break-back-edge", 1, break_back_edge)


def _t_stub_call(ctx: RepairContext) -> Iterable[_Proposal]:
    """Bad helper/kfunc call: model the call as returning 0."""
    insn = ctx.failing
    if insn is None or not insn.is_call():
        return
    yield _Proposal("stub-call", 1, lambda: (
        "replace the rejected call with `r0 = 0` (the call's only "
        "architectural effect is defining r0)",
        _replace(ctx, ctx.insn_idx, mov64_imm(Reg.R0, 0)),
    ))


def _t_nop_failing(ctx: RepairContext) -> Iterable[_Proposal]:
    """Last resort: the failing instruction becomes a no-op jump."""
    if not 0 <= ctx.insn_idx < len(ctx.insns):
        return
    yield _Proposal("nop-failing-insn", 1, lambda: (
        f"replace the failing instruction at insn {ctx.insn_idx} with a "
        "no-op (ja +0)",
        _nop_slots(ctx, ctx.insn_idx),
    ))


def _t_exit_before(ctx: RepairContext) -> Iterable[_Proposal]:
    """Last resort: truncate the failing path just before the fault."""
    insn = ctx.failing
    if insn is None or ctx.insn_idx == 0:
        return
    yield _Proposal("exit-before-failing", 2, lambda: (
        f"exit cleanly just before the failing instruction at insn "
        f"{ctx.insn_idx}",
        _insert(ctx, ctx.insn_idx, [mov64_imm(Reg.R0, 0), exit_insn()]),
    ))


# --------------------------------------------------------------------------
# registry

_Template = Callable[[RepairContext], Iterable[_Proposal]]

#: Taxonomy reason code -> ordered template tuple.  The DESIGN 5i table
#: mirrors this mapping; keep the two in sync.
_REASON_TEMPLATES: dict[str, tuple[_Template, ...]] = {
    "PATH_FELL_OFF": (_t_append_exit, _t_retarget_jump),
    "STRUCT_BAD_LAST_INSN": (_t_append_exit,),
    "STRUCT_BAD_JUMP": (_t_retarget_jump,),
    "STRUCT_BAD_OPCODE": (),
    "STRUCT_RESERVED_FIELD": (),
    "STRUCT_BAD_REGISTER": (),
    "STRUCT_LDIMM64_PAIRING": (_t_retarget_jump,),
    "UNINIT_REGISTER": (_t_init_register,),
    "FRAME_POINTER_WRITE": (_t_divert_fp_write,),
    "POINTER_PARTIAL_STORE": (_t_widen_store,),
    "LEAK_POINTER_RETURN": (_t_zero_return,),
    "ALU_INVALID": (_t_mask_shift,),
    "INFINITE_LOOP": (_t_break_loop,),
    "STACK_ACCESS": (_t_init_stack, _t_clamp_offset),
    "CTX_ACCESS": (_t_clamp_offset,),
    "MAP_VALUE_ACCESS": (_t_clamp_offset, _t_null_check),
    "PACKET_ACCESS": (_t_clamp_offset,),
    "BTF_ACCESS": (_t_clamp_offset,),
    "MEM_REGION_OOB": (_t_clamp_offset,),
    "NULL_POINTER_ACCESS": (_t_null_check,),
    "MEM_ACCESS_BAD_POINTER": (_t_null_check, _t_clamp_offset),
    "HELPER_ARG_SIZE": (_t_stub_call,),
    "HELPER_ARG_TYPE": (_t_stub_call,),
    "HELPER_UNKNOWN": (_t_stub_call,),
    "HELPER_NOT_ALLOWED": (_t_stub_call,),
    "POINTER_ARITHMETIC": (),
    "ATOMIC_POINTER_OPERAND": (),
}

#: Templates appended for *every* reason, after the specific ones.
_FALLBACK_TEMPLATES: tuple[_Template, ...] = (
    _t_nop_failing,
    _t_exit_before,
    _t_append_exit,
)

#: Template names in registry order (documentation / report ordering).
TEMPLATE_ORDER: tuple[str, ...] = (
    "append-exit", "append-bare-exit", "init-before-use",
    "init-at-entry", "init-stack-slot", "clamp-offset", "null-check",
    "zero-return", "mask-shift-imm", "mask-shift-reg",
    "nonzero-divisor-imm", "nonzero-divisor-reg", "divert-fp-write",
    "widen-to-dw", "retarget-jump", "break-back-edge", "stub-call",
    "nop-failing-insn", "exit-before-failing",
)


def _ranked(
    insns: Sequence[Insn],
    reason: str,
    message: str,
    insn_idx: int,
    analysis: Callable[[], DataflowResult] | None,
) -> Iterator[RepairCandidate]:
    """Candidates in rank order, each built when it is asked for.

    Ranking is (edit distance, registry order), both template
    constants, so proposals sort before any is built.  A candidate
    identical to the original program or to an earlier one is dropped.
    """
    insns = list(insns)
    ctx = RepairContext(
        insns=insns, reason=reason, message=message, insn_idx=insn_idx,
        analysis=analysis or lazy_analysis(insns),
    )
    templates = _REASON_TEMPLATES.get(reason, ()) + _FALLBACK_TEMPLATES
    proposals = [
        (order, proposal)
        for order, template in enumerate(templates)
        for proposal in template(ctx)
    ]
    proposals.sort(key=lambda item: (item[1].edit_distance, item[0]))
    seen = {tuple(insns)}
    for order, proposal in proposals:
        built = proposal.build()
        if built is None:
            continue
        description, patched = built
        key = tuple(patched)
        if key in seen:
            continue
        seen.add(key)
        yield RepairCandidate(
            template=proposal.template, description=description,
            insns=patched, edit_distance=proposal.edit_distance,
            order=order,
        )


def _encodes(insns: list[Insn]) -> bool:
    try:
        encode_program(insns)
    except Exception:
        return False
    return True


def propose_repairs(
    insns: Sequence[Insn],
    reason: str,
    message: str,
    insn_idx: int,
    analysis: Callable[[], DataflowResult] | None = None,
) -> list[RepairCandidate]:
    """Ranked, deduplicated candidate patches for one rejection.

    Ranking is (edit distance, registry order): the cheapest patch that
    a more specific template produced wins.  Candidates identical to
    the original program or to an earlier candidate are dropped.
    ``analysis`` returns the program's
    :func:`~repro.analysis.dataflow.analyze` result; it is called only
    by the templates that read it.
    """
    return list(_ranked(insns, reason, message, insn_idx, analysis))


def synthesize_repair(
    kernel,
    prog,
    *,
    reason: str,
    message: str,
    insn_idx: int,
    analysis: Callable[[], DataflowResult] | None = None,
    max_attempts: int = MAX_VERIFY_ATTEMPTS,
) -> Repair | None:
    """Find and **verify** a minimal patch for one rejected program.

    ``kernel`` must be the instance the original rejection came from —
    its map fds are what the program's LD_IMM64 pseudo loads resolve
    against.  Returns the first candidate (in rank order) the verifier
    accepts, or ``None``; at most ``max_attempts`` candidates are
    loaded, and one the codec cannot encode is skipped without counting
    as an attempt.  No unverified repair is ever returned.  Candidates
    are loaded without the sanitizer pass: it runs after the verdict
    and never rejects, so it could only add work.  A candidate is built
    only when the previous one has failed, and ``analysis`` (as for
    :func:`propose_repairs`) is called only if a built one reads it.
    """
    from repro.ebpf.program import BpfProgram
    from repro.errors import BpfError, InvariantViolation, VerifierReject

    # A candidate the codec cannot even encode would never reach the
    # verifier.
    tried = islice(
        (candidate
         for candidate in _ranked(prog.insns, reason, message, insn_idx,
                                  analysis)
         if _encodes(candidate.insns)),
        max_attempts,
    )
    for attempt, candidate in enumerate(tried, start=1):
        patched = BpfProgram(
            insns=list(candidate.insns),
            prog_type=prog.prog_type,
            name=f"{prog.name}+repair",
            offload_dev=prog.offload_dev,
        )
        try:
            kernel.prog_load(patched)
        except (VerifierReject, BpfError, InvariantViolation):
            continue
        return Repair(
            template=candidate.template,
            description=candidate.description,
            reason=reason,
            insn_idx=insn_idx,
            edit_distance=candidate.edit_distance,
            original=list(prog.insns),
            patched=list(candidate.insns),
            attempts=attempt,
        )
    return None
