"""The instrumentation pass: dispatch loads/stores to ``bpf_asan_*``.

Runs inside the verifier's fixup phase (like BVF's kernel patches hook
``bpf_misc_fixup``), entirely at the eBPF instruction level.  For each
eligible load/store the pass emits the Figure-5 sequence::

    ax = r1            ; back up R1 into the internal AX register
    r1 = <base reg>    ; materialise the target address in R1
    r1 += <off>
    call bpf_asan_<load|store><size>
    r1 = ax            ; restore R1
    <original insn>

Instrumentation-reduction rules from the paper are implemented:

1. accesses based on R10 are skipped — the stack pointer is read-only
   and the constant offset was fully checked at verification time;
2. instructions emitted by other rewrite passes are never instrumented
   (each original access is instrumented exactly once).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.ebpf import asm
from repro.ebpf.insn import Insn
from repro.ebpf.opcodes import Reg, SIZE_BYTES
from repro.sanitizer.asan_funcs import ASAN_LOAD, ASAN_STORE

__all__ = ["SanitizeSite", "build_insertions"]


@dataclass(frozen=True)
class SanitizeSite:
    """Metadata for one instrumented access, consumed by the runtime."""

    orig_idx: int
    size: int
    is_write: bool
    probe_mem: bool


def _dispatch_sequence(base: int, off: int, func_id: int) -> list[Insn]:
    """The five-instruction Figure-5 dispatch block."""
    return [
        asm.mov64_reg(Reg.AX, Reg.R1),
        asm.mov64_reg(Reg.R1, base),
        asm.alu64_imm(asm.AluOp.ADD, Reg.R1, off),
        asm.call_helper(func_id),
        asm.mov64_reg(Reg.R1, Reg.AX),
    ]


def build_insertions(
    insns: list[Insn], probe_mem: set[int], observer=None
) -> tuple[dict[int, list[Insn]], dict[int, SanitizeSite]]:
    """Plan the sanitizer insertions for a verified program.

    Returns ``(insertions, site_by_seq)``: ``insertions`` maps original
    slot index to the dispatch block placed before it; ``site_by_seq``
    records, per instrumented original index, the access metadata (the
    runtime re-keys it by the final index of the ``call`` instruction
    after patching).  ``observer`` is the verifier's event subscriber
    (:mod:`repro.obs.events`), told the pass as a stage and its counts.
    """
    if observer is not None:
        observer.enter("sanitize.instrument")
    insertions: dict[int, list[Insn]] = {}
    sites: dict[int, SanitizeSite] = {}
    skipped_r10 = 0

    for idx, insn in enumerate(insns):
        if insn.is_filler():
            continue
        if insn.is_memory_load():
            base, size = insn.src, SIZE_BYTES[insn.size]
            is_write = False
            table = ASAN_LOAD
        elif insn.is_memory_store():
            base, size = insn.dst, SIZE_BYTES[insn.size]
            is_write = True
            table = ASAN_STORE
        elif insn.is_atomic():
            # Atomics both read and write; check as a write (strictest).
            base, size = insn.dst, SIZE_BYTES[insn.size]
            is_write = True
            table = ASAN_STORE
        else:
            continue

        # Reduction rule 1: R10-based accesses have constant, fully
        # verified target addresses.
        if base == Reg.R10:
            skipped_r10 += 1
            continue

        insertions[idx] = _dispatch_sequence(base, insn.off, table[size])
        sites[idx] = SanitizeSite(
            orig_idx=idx,
            size=size,
            is_write=is_write,
            probe_mem=idx in probe_mem,
        )

    m = obs.metrics()
    m.counter("sanitizer.sites", len(sites))
    m.counter("sanitizer.skipped_r10", skipped_r10)
    if observer is not None:
        observer.sanitize(len(sites), skipped_r10, len(insns))
        observer.leave("sanitize.instrument")
    return insertions, sites
