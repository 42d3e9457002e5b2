"""The verifier's fixup/rewrite phase.

After ``do_check`` succeeds the kernel rewrites the program before
handing it to the JIT: pseudo map-fd immediates become real map
addresses, BTF-object loads become fault-handled PROBE_MEM accesses,
and pointer-ALU instructions get their ``alu_limit`` rewrites.  BVF's
sanitation runs here too (``bpf_misc_fixup``), so no ad-hoc phase is
required — exactly as the paper's first kernel patch describes.

The output is a :class:`~repro.ebpf.program.VerifiedProgram` whose
``xlated`` stream the interpreter executes directly.
"""

from __future__ import annotations

from repro.ebpf.insn import Insn, ld_imm64_pair
from repro.ebpf.program import VerifiedProgram
from repro.sanitizer.alu_limit import alu_limit_insn
from repro.sanitizer.instrument import SanitizeSite, build_insertions
from repro.verifier.patch import insert_before

__all__ = ["run_fixup"]

_MAX_INLINE_LIMIT = 0x7FFF  # alu_limit must fit the off field


def _resolve_immediates(v, insns: list[Insn]) -> dict[int, int]:
    """Materialise pseudo LD_IMM64 values as kernel addresses.

    Returns ``map_addrs``: slot index -> map kernel address for map
    loads (used by attach-time bookkeeping).
    """
    map_addrs: dict[int, int] = {}
    for idx, (kind, payload) in v.pseudo_refs.items():
        insn = insns[idx]
        if kind == "map":
            addr = v.kernel.map_kobj_addr(payload)
            map_addrs[idx] = addr
        elif kind == "map_value":
            bpf_map, off = payload
            addr = bpf_map._values.start + off
        elif kind == "btf":
            # Absent ksyms resolve to NULL at runtime — the runtime-null
            # PTR_TO_BTF_ID at the heart of Bug #1.
            addr = payload.address
        else:  # pragma: no cover - resolution already rejected others
            continue
        first, second = ld_imm64_pair(insn, addr)
        insns[idx] = first
        insns[idx + 1] = second
    return map_addrs


def run_fixup(v) -> VerifiedProgram:
    """Produce the xlated program (+ sanitation when enabled)."""
    xlated = list(v.insns)
    map_addrs = _resolve_immediates(v, xlated)

    probe_mem = set(v.probe_mem)
    sanitizer_meta: dict[int, SanitizeSite] = {}
    sanitizer_insns: set[int] = set()
    sanitized_sites: set[int] = set()
    alu_limit_meta: dict[int, tuple[int, int]] = {}

    sanitize = v.sanitize and v.config.sanitizer_available
    if sanitize:
        insertions, sites = build_insertions(xlated, probe_mem, v.observer)

        # Third patch: runtime alu_limit checks for sanitized ptr ALU.
        for idx, (limit, op) in v.alu_limits.items():
            if limit > _MAX_INLINE_LIMIT:
                continue
            operand = xlated[idx].src
            check = alu_limit_insn(operand, limit)
            insertions.setdefault(idx, []).insert(0, check)

        xlated, index_map = insert_before(xlated, insertions)
        orig_index = {new: old for old, new in index_map.items()}

        # Relocate metadata to post-patch indices.
        probe_mem = {index_map[i] for i in probe_mem}
        for orig_idx, site in sites.items():
            new_site_idx = index_map[orig_idx]
            # The dispatch call sits two slots before the original
            # access (call, then restore of R1, then the access).
            call_idx = new_site_idx - 2
            sanitizer_meta[call_idx] = SanitizeSite(
                orig_idx=new_site_idx,
                size=site.size,
                is_write=site.is_write,
                probe_mem=site.probe_mem,
            )
            sanitized_sites.add(new_site_idx)
            block_len = len(insertions[orig_idx])
            sanitizer_insns.update(
                range(new_site_idx - block_len, new_site_idx)
            )
        for orig_idx, (limit, op) in v.alu_limits.items():
            if limit > _MAX_INLINE_LIMIT:
                continue
            alu_limit_meta[index_map[orig_idx]] = (limit, op)
    else:
        alu_limit_meta = dict(v.alu_limits)
        orig_index = {i: i for i in range(len(xlated))}

    verified = VerifiedProgram(
        prog=v.prog,
        xlated=xlated,
        probe_mem=probe_mem,
        alu_limits=alu_limit_meta,
        sanitizer_insns=sanitizer_insns,
        sanitized_sites=sanitized_sites,
        map_addrs=map_addrs,
        helper_ids=set(v.helper_ids),
        stack_depth=v.max_stack_depth,
        uses_lock_helpers=v.uses_lock_helpers,
        sanitized=sanitize,
        exit_r0=v.exit_r0,
        stats={
            "insns_processed": v.env.insns_processed,
            "states_pushed": v.env.states_pushed,
            "states_pruned": v.env.states_pruned,
            "peak_states": v.env.peak_stack,
            "xlated_len": len(xlated),
            "orig_len": len(v.insns),
        },
    )
    verified.sanitizer_meta.update(sanitizer_meta)
    verified.orig_index.update(orig_index)
    return verified
