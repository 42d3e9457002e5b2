"""Basic-block control-flow graphs over slot-form eBPF programs.

The flight recorder (:mod:`repro.obs.events`) tells us *where* the
verifier rejected a program; turning that into a *why* — and into a
candidate minimal patch — needs the program's control structure: which
instruction can reach which, where a loop's back edge is, which block a
failing access lives in.  This module builds the classic basic-block
CFG from decoded :class:`~repro.ebpf.insn.Insn` lists, mirroring the
interpreter's successor semantics exactly (``repro.runtime.interpreter``
and ``Verifier._step`` agree on these):

- straight-line instructions fall through to ``idx + 1``;
- ``LD_IMM64`` occupies two slots and falls through to ``idx + 2`` (the
  zero-opcode filler belongs to the same block and is never a leader);
- ``JA`` jumps to ``idx + off + 1``;
- conditional jumps fork to ``idx + off + 1`` (taken) and ``idx + 1``
  (fall-through);
- ``EXIT`` terminates the current frame (no intraprocedural successor);
- helper/kfunc calls fall through to ``idx + 1``;
- bpf-to-bpf calls contribute a ``call`` edge to ``idx + imm + 1``
  (the callee entry) *and* a ``fall`` edge to ``idx + 1`` — the return
  continuation — which is the standard call-summary shape for
  intraprocedural dataflow (the callee is summarised at the call site
  by :mod:`repro.analysis.dataflow`'s clobber model).

Construction is total: malformed programs — exactly the ones the
verifier rejects structurally — still yield a CFG.  Out-of-range or
into-a-filler jump targets are dropped from the edge set and recorded
in :attr:`CFG.invalid_edges` so the repair layer can see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.ebpf.insn import Insn

__all__ = [
    "EDGE_FALL",
    "EDGE_JUMP",
    "EDGE_TAKEN",
    "EDGE_CALL",
    "BasicBlock",
    "CFG",
    "build_cfg",
    "insn_successors",
]

#: Edge kinds, in the order they are emitted per instruction.
EDGE_FALL = "fall"    # straight-line / branch-not-taken / call return point
EDGE_JUMP = "jump"    # unconditional JA
EDGE_TAKEN = "taken"  # conditional branch taken
EDGE_CALL = "call"    # bpf-to-bpf call to the callee entry


def insn_successors(
    insns: Sequence[Insn], idx: int
) -> list[tuple[int, str]]:
    """Successor slot indices of one instruction, interpreter-style.

    Returns ``(target, edge_kind)`` pairs *including* targets that fall
    outside the program or land on an LD_IMM64 filler — callers decide
    whether those are CFG edges (:func:`build_cfg` records them as
    invalid instead).  A filler slot itself has no successors: control
    never rests on one (the verifier rejects, the interpreter skips it
    as part of the LD_IMM64).
    """
    insn = insns[idx]
    if insn.is_filler():
        return []
    if insn.is_ld_imm64():
        return [(idx + 2, EDGE_FALL)]
    if insn.is_exit():
        return []
    if insn.is_uncond_jmp():
        return [(idx + insn.off + 1, EDGE_JUMP)]
    if insn.is_pseudo_call():
        return [(idx + insn.imm + 1, EDGE_CALL), (idx + 1, EDGE_FALL)]
    if insn.is_cond_jmp():
        return [(idx + insn.off + 1, EDGE_TAKEN), (idx + 1, EDGE_FALL)]
    # ALU, loads/stores, atomics, helper/kfunc calls.
    return [(idx + 1, EDGE_FALL)]


@dataclass
class BasicBlock:
    """A maximal straight-line run of instruction slots.

    ``start``/``end`` delimit the half-open slot range ``[start, end)``;
    LD_IMM64 fillers are included with their first slot.  ``succ`` holds
    ``(block_index, edge_kind)`` pairs in deterministic emission order.
    """

    index: int
    start: int
    end: int
    succ: list[tuple[int, str]] = field(default_factory=list)
    pred: list[int] = field(default_factory=list)

    @property
    def terminator(self) -> int:
        """Slot index of the block's last non-filler instruction."""
        return self.end - 1

    def slots(self) -> range:
        return range(self.start, self.end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        succ = ", ".join(f"{kind}->B{i}" for i, kind in self.succ)
        return f"BasicBlock(B{self.index} [{self.start}:{self.end}) {succ})"


@dataclass
class CFG:
    """The control-flow graph of one slot-form program."""

    insns: list[Insn]
    blocks: list[BasicBlock]
    #: slot index -> index of the block containing it
    block_index: list[int]
    #: ``(from_idx, target_idx, kind)`` edges whose target is outside
    #: the program or lands on an LD_IMM64 filler — kept out of the
    #: block graph but preserved for diagnostics/repair
    invalid_edges: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def block_of(self, idx: int) -> BasicBlock:
        """The basic block containing slot ``idx``."""
        return self.blocks[self.block_index[idx]]

    def successors(self, idx: int) -> list[tuple[int, str]]:
        """Valid successor *slot* indices of one instruction."""
        return [
            (target, kind)
            for target, kind in insn_successors(self.insns, idx)
            if self._valid_target(target)
        ]

    def _valid_target(self, target: int) -> bool:
        return (
            0 <= target < len(self.insns)
            and not self.insns[target].is_filler()
        )

    def reachable_blocks(self) -> set[int]:
        """Block indices reachable from the entry (call edges included)."""
        if not self.blocks:
            return set()
        seen = {0}
        stack = [0]
        while stack:
            block = self.blocks[stack.pop()]
            for succ, _kind in block.succ:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def back_edges(self) -> list[tuple[int, int]]:
        """``(from_block, to_block)`` pairs forming loops.

        A DFS from the entry classifies an edge as a back edge when its
        target is on the current DFS stack — the textbook definition,
        which for reducible graphs coincides with "target dominates
        source" and for irreducible ones still marks every cycle.
        """
        back: list[tuple[int, int]] = []
        state: dict[int, int] = {}  # 0 = on stack, 1 = done

        def visit(index: int) -> None:
            state[index] = 0
            for succ, _kind in self.blocks[index].succ:
                if succ not in state:
                    visit(succ)
                elif state[succ] == 0:
                    back.append((index, succ))
            state[index] = 1

        if self.blocks:
            visit(0)
        return sorted(back)

    def edges(self) -> Iterator[tuple[int, int, str]]:
        """All block edges as ``(from_block, to_block, kind)``."""
        for block in self.blocks:
            for succ, kind in block.succ:
                yield block.index, succ, kind

    def render(self) -> str:
        """Compact text form (debugging / `repro repair --cfg`)."""
        from repro.ebpf.disasm import format_insn

        lines = []
        reachable = self.reachable_blocks()
        for block in self.blocks:
            mark = "" if block.index in reachable else "  (unreachable)"
            succ = ", ".join(f"{kind}->B{i}" for i, kind in block.succ)
            lines.append(
                f"B{block.index} [{block.start}:{block.end})"
                f" -> {succ or '(exit)'}{mark}"
            )
            for slot in block.slots():
                insn = self.insns[slot]
                if insn.is_filler():
                    continue
                try:
                    text = format_insn(insn)
                except (KeyError, ValueError):
                    text = f"(undecodable: opcode=0x{insn.opcode:02x})"
                lines.append(f"  {slot:>3}: {text}")
        return "\n".join(lines)


def build_cfg(insns: Sequence[Insn]) -> CFG:
    """Construct the basic-block CFG of a slot-form program.

    Total over arbitrary instruction lists: invalid jump targets become
    :attr:`CFG.invalid_edges` rather than errors, so the repair layer
    can analyse exactly the programs the verifier refuses.
    """
    insns = list(insns)
    n = len(insns)
    if n == 0:
        return CFG(insns=[], blocks=[], block_index=[])

    # --- leaders -----------------------------------------------------------
    # Slot 0; every valid jump/call target; every slot following an
    # instruction with a non-fall successor set (jump, branch, exit,
    # bpf-to-bpf call).  A leader is never a filler: jumps into the
    # middle of an LD_IMM64 are invalid edges, and the slot after a
    # terminator is advanced past fillers.
    leaders = {0}
    invalid_edges: list[tuple[int, int, str]] = []
    for idx, insn in enumerate(insns):
        if insn.is_filler():
            continue
        succs = insn_successors(insns, idx)
        branches = insn.is_jmp() and not insn.is_helper_call() \
            and not insn.is_kfunc_call()
        for target, kind in succs:
            valid = 0 <= target < n and not insns[target].is_filler()
            if not valid:
                invalid_edges.append((idx, target, kind))
                continue
            if kind != EDGE_FALL or branches:
                leaders.add(target)
        if branches or insn.is_exit():
            after = idx + 1
            if after < n and insns[after].is_filler():
                after += 1
            if after < n:
                leaders.add(after)
    if insns[0].is_filler():
        # Degenerate stream starting on a filler: keep slot 0 a leader
        # so the partition stays total; the block is simply dead.
        leaders.add(0)

    # --- blocks ------------------------------------------------------------
    ordered = sorted(leaders)
    blocks: list[BasicBlock] = []
    block_index = [0] * n
    for bi, start in enumerate(ordered):
        end = ordered[bi + 1] if bi + 1 < len(ordered) else n
        block = BasicBlock(index=bi, start=start, end=end)
        blocks.append(block)
        for slot in range(start, end):
            block_index[slot] = bi

    cfg = CFG(
        insns=insns,
        blocks=blocks,
        block_index=block_index,
        invalid_edges=invalid_edges,
    )

    # --- edges -------------------------------------------------------------
    # A block's control transfers live at its last non-filler slot; a
    # block that ends by running into the next leader falls through.
    for block in blocks:
        term = block.end - 1
        while term > block.start and insns[term].is_filler():
            term -= 1
        insn = insns[term]
        if insn.is_filler():
            continue  # all-filler block: dead, no edges
        targets = cfg.successors(term)
        if not targets and not insn.is_exit():
            # Straight-line instruction at the end of the program: the
            # fall-through left the program (recorded as invalid above).
            pass
        for target, kind in targets:
            succ_block = block_index[target]
            block.succ.append((succ_block, kind))
            blocks[succ_block].pred.append(block.index)
    return cfg
