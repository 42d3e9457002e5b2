"""Classic dataflow passes over the eBPF basic-block CFG.

The flight recorder points at a failing *instruction*; the verifier's
complaint is usually about a *register value* whose history begins much
earlier.  These passes recover that history:

- **reaching definitions** — which definition sites of a register can
  reach a given use, computed with the textbook block-level gen/kill
  worklist over :class:`repro.analysis.cfg.CFG`;
- **def-use chains** — the per-use inversion of reaching definitions;
- **liveness** — backward may-analysis; the repair synthesizer uses it
  to find registers that are dead at a patch point;
- **bound provenance** — a bounded backward walk from a failing
  ``(insn, register)`` through the def-use chains to the ALU/LD
  instructions that produced the register's min/max facts, following
  register-to-register MOV chains to the true producer.

The register model mirrors the verifier's (``checks.py``):

- frame entry defines R1 (the context pointer) and R10 (the frame
  pointer), modelled as pseudo-definitions at slot ``-1``;
- helper/kfunc/bpf-to-bpf calls clobber the caller-saved window: they
  *define* R0-R5 (R1-R5 become unreadable scratch, R0 the return
  value) and conservatively *use* R1-R5 — the call-summary shape that
  keeps the analysis intraprocedural;
- atomics with FETCH semantics define their ``src`` register;
  CMPXCHG additionally uses and defines R0;
- ``EXIT`` uses R0.

All passes are pure functions of the instruction list: deterministic
by construction, which the campaign's worker-count-invariance contract
relies on when provenance lands in merged artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.cfg import CFG, build_cfg
from repro.ebpf.insn import Insn
from repro.ebpf.opcodes import AluOp, AtomicOp, Reg, Src

__all__ = [
    "ENTRY_DEF",
    "insn_defs",
    "insn_uses",
    "DataflowResult",
    "analyze",
    "lazy_analysis",
    "Provenance",
    "bound_provenance",
]

#: Pseudo slot index of the frame-entry definitions of R1/R10.
ENTRY_DEF = -1

#: Registers defined at frame entry (ctx pointer, frame pointer).
_ENTRY_REGS = (int(Reg.R1), int(Reg.R10))

#: Caller-saved window clobbered by every call.
_CALL_CLOBBER = tuple(range(int(Reg.R0), int(Reg.R5) + 1))

#: Registers conservatively consumed by a call (argument window).
_CALL_USES = tuple(range(int(Reg.R1), int(Reg.R5) + 1))

_FETCH_FLAG = int(AtomicOp.FETCH)


def insn_defs(insn: Insn) -> tuple[int, ...]:
    """Registers this instruction defines (writes)."""
    if insn.is_filler():
        return ()
    if insn.is_call():
        return _CALL_CLOBBER
    if insn.is_alu() or insn.is_ld_imm64():
        return (insn.dst,)
    if insn.is_memory_load():
        return (insn.dst,)
    if insn.is_atomic():
        imm = insn.imm
        if imm == int(AtomicOp.CMPXCHG):
            return (int(Reg.R0),)
        if imm & _FETCH_FLAG:
            return (insn.src,)
        return ()
    return ()


def insn_uses(insn: Insn) -> tuple[int, ...]:
    """Registers this instruction uses (reads), deterministic order."""
    if insn.is_filler() or insn.is_ld_imm64():
        return ()
    if insn.is_call():
        return _CALL_USES
    if insn.is_exit():
        return (int(Reg.R0),)
    if insn.is_alu():
        op = insn.alu_op
        if op == AluOp.MOV:
            return (insn.src,) if insn.src_bit == Src.X else ()
        if op in (AluOp.NEG, AluOp.END):
            return (insn.dst,)
        if insn.src_bit == Src.X and insn.src != insn.dst:
            return (insn.dst, insn.src)
        return (insn.dst,)
    if insn.is_cond_jmp():
        if insn.src_bit == Src.X and insn.src != insn.dst:
            return (insn.dst, insn.src)
        return (insn.dst,)
    if insn.is_uncond_jmp():
        return ()
    if insn.is_atomic():
        uses = [insn.dst, insn.src]
        if insn.imm == int(AtomicOp.CMPXCHG):
            uses.append(int(Reg.R0))
        return tuple(dict.fromkeys(uses))
    if insn.is_memory_load():
        return (insn.src,)
    if insn.is_memory_store():
        from repro.ebpf.opcodes import InsnClass

        if insn.insn_class == InsnClass.STX:
            if insn.src != insn.dst:
                return (insn.dst, insn.src)
            return (insn.dst,)
        return (insn.dst,)  # ST: immediate store, only the address base
    return ()


@dataclass
class DataflowResult:
    """Reaching definitions, def-use chains, and liveness for one CFG."""

    cfg: CFG
    #: (use_idx, reg) -> sorted tuple of def slot indices (ENTRY_DEF for
    #: frame-entry pseudo-defs) that may reach that use
    du_chains: dict[tuple[int, int], tuple[int, ...]]
    #: slot idx -> registers live *into* that instruction
    live_in: dict[int, frozenset[int]]
    #: slot idx -> registers live *out of* that instruction
    live_out: dict[int, frozenset[int]]

    def defs_reaching(self, idx: int, reg: int) -> tuple[int, ...]:
        """Definition sites of ``reg`` that may reach slot ``idx``."""
        return self.du_chains.get((idx, reg), ())

    def dead_registers(self, idx: int) -> tuple[int, ...]:
        """General-purpose registers NOT live into slot ``idx``.

        The repair synthesizer scavenges these as scratch.  R10 is never
        offered (read-only frame pointer); R0-R9 are fair game.
        """
        live = self.live_in.get(idx, frozenset())
        return tuple(
            reg for reg in range(int(Reg.R0), int(Reg.R9) + 1)
            if reg not in live
        )


def analyze(insns: Sequence[Insn], cfg: CFG | None = None) -> DataflowResult:
    """Run reaching definitions + liveness over a slot-form program."""
    if cfg is None:
        cfg = build_cfg(insns)
    insns = cfg.insns
    n = len(insns)
    nblocks = len(cfg.blocks)

    # Per-slot def/use tuples, computed once.
    defs = [insn_defs(insn) for insn in insns]
    uses = [insn_uses(insn) for insn in insns]

    # ---- reaching definitions (forward, may) ------------------------------
    # A definition is (slot_idx, reg); frame entry contributes
    # (ENTRY_DEF, R1) and (ENTRY_DEF, R10).  Block-level GEN/KILL over
    # defs-per-register, then a forward worklist to fixpoint, then one
    # in-block sweep materialising per-use chains.
    #
    # State representation: dict reg -> frozenset of def slots.  Small
    # programs (<= a few hundred slots, 11 registers) make the dict
    # copy per block cheap.
    block_gen: list[dict[int, frozenset[int]]] = []
    for block in cfg.blocks:
        gen: dict[int, frozenset[int]] = {}
        for slot in block.slots():
            for reg in defs[slot]:
                gen[reg] = frozenset((slot,))
        block_gen.append(gen)

    entry_state = {reg: frozenset((ENTRY_DEF,)) for reg in _ENTRY_REGS}
    reach_in: list[dict[int, frozenset[int]]] = [
        {} for _ in range(nblocks)
    ]
    if nblocks:
        reach_in[0] = dict(entry_state)

    def transfer(index: int,
                 state: dict[int, frozenset[int]]) -> dict[int, frozenset[int]]:
        out = dict(state)
        out.update(block_gen[index])
        return out

    worklist = list(range(nblocks))
    while worklist:
        index = worklist.pop(0)
        out_state = transfer(index, reach_in[index])
        for succ, _kind in cfg.blocks[index].succ:
            merged = dict(reach_in[succ])
            changed = False
            for reg in sorted(out_state):
                combined = merged.get(reg, frozenset()) | out_state[reg]
                if combined != merged.get(reg):
                    merged[reg] = combined
                    changed = True
            if changed:
                reach_in[succ] = merged
                if succ not in worklist:
                    worklist.append(succ)

    du_chains: dict[tuple[int, int], tuple[int, ...]] = {}
    for block in cfg.blocks:
        state = dict(reach_in[block.index])
        for slot in block.slots():
            for reg in uses[slot]:
                sites = state.get(reg)
                if sites:
                    du_chains[(slot, reg)] = tuple(sorted(sites))
            for reg in defs[slot]:
                state[reg] = frozenset((slot,))

    # ---- liveness (backward, may) -----------------------------------------
    block_use: list[frozenset[int]] = []
    block_def: list[frozenset[int]] = []
    for block in cfg.blocks:
        used: set[int] = set()
        defined: set[int] = set()
        for slot in block.slots():
            used.update(reg for reg in uses[slot] if reg not in defined)
            defined.update(defs[slot])
        block_use.append(frozenset(used))
        block_def.append(frozenset(defined))

    live_block_in = [frozenset()] * nblocks
    live_block_out = [frozenset()] * nblocks
    worklist = list(range(nblocks - 1, -1, -1))
    while worklist:
        index = worklist.pop(0)
        out: frozenset[int] = frozenset()
        for succ, _kind in cfg.blocks[index].succ:
            out = out | live_block_in[succ]
        new_in = block_use[index] | (out - block_def[index])
        if out != live_block_out[index] or new_in != live_block_in[index]:
            live_block_out[index] = out
            live_block_in[index] = new_in
            for pred in cfg.blocks[index].pred:
                if pred not in worklist:
                    worklist.append(pred)

    live_in: dict[int, frozenset[int]] = {}
    live_out: dict[int, frozenset[int]] = {}
    for block in cfg.blocks:
        live = live_block_out[block.index]
        for slot in range(block.end - 1, block.start - 1, -1):
            live_out[slot] = live
            live = frozenset(
                (live - frozenset(defs[slot])) | frozenset(uses[slot])
            )
            live_in[slot] = live

    return DataflowResult(
        cfg=cfg, du_chains=du_chains, live_in=live_in, live_out=live_out
    )


@dataclass
class Provenance:
    """The backward slice explaining a register's value at a site.

    ``chain`` lists visited ``(slot_idx, reg)`` pairs in visit order;
    ``root_idx`` is the definition site judged to be the root cause —
    the producer reached after following register-to-register MOVs,
    preferring the deepest non-MOV definition, or ``ENTRY_DEF`` when the
    value flows straight from frame entry (uninitialised/ctx/fp).
    """

    target_idx: int
    target_reg: int
    chain: list[tuple[int, int]] = field(default_factory=list)
    root_idx: int = ENTRY_DEF
    root_reg: int = 0

    @property
    def from_entry(self) -> bool:
        return self.root_idx == ENTRY_DEF

    def render(self, insns: Sequence[Insn]) -> list[str]:
        """Human-readable chain lines, root first."""
        from repro.ebpf.disasm import format_insn

        lines: list[str] = []
        for idx, reg in self.chain:
            if idx == ENTRY_DEF:
                lines.append(f"  r{reg} = frame entry (never written)")
                continue
            try:
                text = format_insn(insns[idx])
            except (KeyError, ValueError, IndexError):
                text = f"(undecodable: opcode=0x{insns[idx].opcode:02x})"
            marker = "*" if idx == self.root_idx else " "
            lines.append(f" {marker}{idx:>3}: {text}")
        return lines


#: Cap on the backward walk — provenance is an explanation aid, not a
#: full slicer; deep chains stop here and report the frontier.
_PROVENANCE_LIMIT = 64


def lazy_analysis(insns: Sequence[Insn]) -> Callable[[], DataflowResult]:
    """``analyze(insns)`` as a function that runs it on its first call
    and returns the same result on every later one.  Readers of one
    program share it, so the analysis runs once, and only if some
    reader needs it."""
    memo: list[DataflowResult] = []

    def analysis() -> DataflowResult:
        if not memo:
            memo.append(analyze(insns))
        return memo[0]

    return analysis


def bound_provenance(
    insns: Sequence[Insn],
    idx: int,
    reg: int,
    flow: DataflowResult | None = None,
) -> Provenance:
    """Walk a register's value back to the instructions that made it.

    Starting from the use of ``reg`` at slot ``idx``, follow reaching
    definitions backwards: a MOV-from-register definition forwards the
    walk to its source register; ALU/LDX/LD_IMM64/call definitions are
    producers and terminate their branch.  The root cause is the
    deepest producer found (ties broken toward the smallest slot index
    for determinism); if the value can flow from frame entry without
    any write, the root is :data:`ENTRY_DEF` — the classic
    uninitialised-register shape.
    """
    if flow is None:
        flow = analyze(insns)
    insns = flow.cfg.insns

    prov = Provenance(target_idx=idx, target_reg=reg)
    seen: set[tuple[int, int]] = set()
    # (def_idx, reg, depth); deterministic FIFO order.
    queue: list[tuple[int, int, int]] = [
        (site, reg, 0) for site in flow.defs_reaching(idx, reg)
    ]
    if not queue:
        # No recorded use at idx (e.g. the walk starts at the failing
        # instruction itself, which may not read reg) — fall back to
        # the defs visible at idx via a synthetic lookup: any def of
        # reg strictly before idx in the same block, else block input.
        queue = [
            (site, reg, 0)
            for site in _defs_at(flow, idx, reg)
        ]

    best: tuple[int, int, int] | None = None  # (depth, -site, reg)
    while queue:
        site, creg, depth = queue.pop(0)
        if (site, creg) in seen or len(prov.chain) >= _PROVENANCE_LIMIT:
            continue
        seen.add((site, creg))
        prov.chain.append((site, creg))
        if site == ENTRY_DEF:
            candidate = (depth, 1, site, creg)
        else:
            insn = insns[site]
            is_mov_reg = (
                insn.is_alu()
                and insn.alu_op == AluOp.MOV
                and insn.src_bit == Src.X
            )
            if is_mov_reg:
                for nxt in flow.defs_reaching(site, insn.src):
                    queue.append((nxt, insn.src, depth + 1))
                continue
            candidate = (depth, 0, -site, creg)
        # Prefer deeper producers; at equal depth prefer real
        # instructions over entry, then the smallest slot index.
        if best is None or candidate > best:
            best = candidate

    if best is not None:
        depth, is_entry, neg_site, creg = best
        prov.root_idx = ENTRY_DEF if is_entry else -neg_site
        prov.root_reg = creg
    else:
        prov.root_idx = ENTRY_DEF
        prov.root_reg = reg
        prov.chain.append((ENTRY_DEF, reg))
    return prov


def _defs_at(flow: DataflowResult, idx: int, reg: int) -> tuple[int, ...]:
    """Definition sites of ``reg`` visible *at* slot ``idx``.

    Used when the failing instruction does not itself read ``reg`` in
    our use model (e.g. the verifier complains about a helper argument
    register at the call, or about dst of a store's value operand).
    Recomputes the in-block reaching state up to ``idx``.
    """
    cfg = flow.cfg
    if not (0 <= idx < len(cfg.insns)):
        return ()
    block = cfg.block_of(idx)
    sites: tuple[int, ...] = ()
    # Block input: union of chains recorded at the first use in any
    # successor is not available; recompute cheaply from du_chains of
    # this block's first slot if recorded, else approximate with the
    # last def before idx.
    last_def: int | None = None
    for slot in range(block.start, idx):
        if reg in insn_defs(cfg.insns[slot]):
            last_def = slot
    if last_def is not None:
        return (last_def,)
    # No def inside the block before idx: the block-entry state holds.
    # du_chains has no entry keyed by block, so rebuild from any use of
    # reg at or after idx in this block... fall back to a fresh pass.
    chains = flow.du_chains.get((idx, reg))
    if chains:
        return chains
    # Final fallback: any def of reg earlier in the program that could
    # flow into this block — conservative but deterministic; an empty
    # scan means the register was never written, i.e. frame entry.
    sites = tuple(
        slot
        for slot in range(block.start)
        if reg in insn_defs(cfg.insns[slot])
    )
    return sites if sites else (ENTRY_DEF,)
