"""Verifier environment: call frames, whole-program states, exploration.

The verifier explores program paths depth-first.  Each pending path is
a :class:`VerifierState` (a stack of call frames plus the instruction
index to resume at); branches push one side onto the exploration stack
and continue down the other, exactly like the kernel's
``push_stack``/``pop_stack``.

Pruning: at every jump target the environment keeps the set of states
previously verified there; a new state that is *subsumed* by one of
them (every register/stack slot at least as constrained) is not
explored again (``is_state_visited``/``states_equal``).

Per-index explored lists are bounded by an LRU (``PRUNE_CAP`` /
``LOOP_CAP``) with eviction counters, so loop-heavy programs cannot
grow the explored set without bound.  A prune question is answered by
an ordered ``states_equal`` scan of that list, most-recently-useful
state last.

**Copy-on-write state cloning** (see DESIGN.md "Verifier fast path"):
:meth:`VerifierState.clone` marks registers shared and copies only the
per-frame register *list* (12 pointers) plus a storage-sharing stack
handle; the deep copy of each written record happens lazily at its
first write, via :meth:`FuncFrame.wreg` and the stack's ``_wslot``.
Branch forks and explored-set snapshots clone far more state than any
path ever mutates, so nearly all of the deep-copy work disappears.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ebpf.opcodes import Reg
from repro.verifier.log import VerifierLog
from repro.verifier.stack import SlotType, StackState
from repro.verifier.state import (
    MAYBE_NULL_TYPES,
    RegState,
    RegType,
    regs_equal_scalar_range,
)

__all__ = [
    "FuncFrame",
    "VerifierState",
    "VerifierEnv",
    "MAX_CALL_DEPTH",
    "PRUNE_CAP",
    "LOOP_CAP",
    "states_equal",
]

#: Maximum bpf-to-bpf call nesting (kernel: 8).
MAX_CALL_DEPTH = 8

#: LRU capacity of the explored set at a prune point / a loop header.
#: The former keep-first-N heuristic pinned whichever states arrived
#: first; LRU keeps the states that keep proving useful.
PRUNE_CAP = 16
LOOP_CAP = 64

_N_REGS = 12  # R0-R10 plus the internal AX


@dataclass
class FuncFrame:
    """One call frame: registers plus stack."""

    regs: list[RegState]
    stack: StackState
    frameno: int = 0
    #: instruction to return to (index after the call insn)
    callsite: int = -1

    @classmethod
    def entry(cls, ctx_reg: RegState, frameno: int = 0, callsite: int = -1) -> "FuncFrame":
        regs = [RegState.not_init() for _ in range(_N_REGS)]
        regs[Reg.R1] = ctx_reg
        regs[Reg.R10] = RegState.pointer(RegType.PTR_TO_STACK)
        return cls(regs=regs, stack=StackState(), frameno=frameno, callsite=callsite)

    def clone(self) -> "FuncFrame":
        """A logically independent copy sharing storage until written.

        The register *list* is copied (so direct ``regs[i] = ...``
        assignments stay frame-local) but the register records are
        shared and marked; the first in-place mutation of one — always
        routed through :meth:`wreg` — clones it.  Ditto the stack.
        The source frame's records become shared too: after a clone,
        *neither* side may mutate them in place.
        """
        regs = self.regs
        for reg in regs:
            reg.shared = True
        new = FuncFrame.__new__(FuncFrame)
        new.regs = regs[:]
        new.stack = self.stack.cow_clone()
        new.frameno = self.frameno
        new.callsite = self.callsite
        return new

    def wreg(self, index: int) -> RegState:
        """A writable register: clones a shared record on first write."""
        reg = self.regs[index]
        if reg.shared:
            reg = reg.clone()
            self.regs[index] = reg
        return reg


@dataclass
class VerifierState:
    """A full program state: the frame stack plus resume point."""

    frames: list[FuncFrame]
    insn_idx: int = 0
    #: index of the branch instruction that created this state
    parent_idx: int = -1
    #: outstanding acquired references: ref_obj_id -> acquiring insn idx
    refs: dict[int, int] = field(default_factory=dict)
    #: held bpf_spin_lock: (map identity, value-pointer id), or None
    active_lock: tuple[int, int] | None = None

    @property
    def cur(self) -> FuncFrame:
        return self.frames[-1]

    @property
    def regs(self) -> list[RegState]:
        return self.cur.regs

    @property
    def stack(self) -> StackState:
        return self.cur.stack

    @property
    def call_depth(self) -> int:
        return len(self.frames)

    def clone(self) -> "VerifierState":
        """Copy-on-write clone (see :meth:`FuncFrame.clone`)."""
        new = VerifierState.__new__(VerifierState)
        new.frames = [f.clone() for f in self.frames]
        new.insn_idx = self.insn_idx
        new.parent_idx = self.parent_idx
        new.refs = dict(self.refs)
        new.active_lock = self.active_lock
        return new

    def reg(self, index: int) -> RegState:
        return self.cur.regs[index]

    def wreg(self, index: int) -> RegState:
        """A writable register in the current frame (COW entry point)."""
        return self.frames[-1].wreg(index)


def _reg_subsumed(old: RegState, new: RegState) -> bool:
    """``regsafe``: is exploring ``new`` redundant given ``old`` passed?"""
    if old.type == RegType.NOT_INIT:
        # The old path never relied on this register.
        return True
    if old.is_scalar():
        if not new.is_scalar():
            # Conservatively re-verify when a scalar became a pointer.
            return False
        return regs_equal_scalar_range(old, new)
    if old.type != new.type:
        return False
    if old.off != new.off:
        return False
    if old.map is not new.map or old.btf is not new.btf:
        return False
    if old.mem_size != new.mem_size:
        return False
    if old.is_pkt_pointer() or old.type == RegType.PTR_TO_PACKET_END:
        # The new pointer must have at least as much verified range.
        if new.pkt_range < old.pkt_range:
            return False
    # Variable offset parts must also be subsumed — the same range
    # check regs_equal_scalar_range performs, applied directly to the
    # pointers' scalar components (both are scalar by construction, so
    # the type guards are vacuous).
    if not (
        old.umin <= new.umin
        and new.umax <= old.umax
        and old.smin <= new.smin
        and new.smax <= old.smax
    ):
        return False
    # tnum subset: every bit known in old must be known-and-equal in new.
    if new.var_off.mask & ~old.var_off.mask:
        return False
    return (new.var_off.value & ~old.var_off.mask) == old.var_off.value


def _stack_subsumed(old: StackState, new: StackState) -> bool:
    """``stacksafe``: every constraint the old state had must hold."""
    for slot_idx, old_slot in old.iter_slots():
        new_slot = new.get_slot(slot_idx)
        for byte_idx, old_type in enumerate(old_slot.bytes):
            if old_type == SlotType.INVALID:
                continue
            new_type = (
                new_slot.bytes[byte_idx] if new_slot is not None else SlotType.INVALID
            )
            if new_type == SlotType.INVALID:
                return False
            if old_type == SlotType.MISC:
                continue  # anything initialised satisfies MISC
            if old_type == SlotType.ZERO and new_type != SlotType.ZERO:
                # A spilled constant zero also satisfies ZERO.
                if not (
                    new_slot.spilled is not None
                    and new_slot.spilled.is_const()
                    and new_slot.spilled.const_value() == 0
                ):
                    return False
            if old_type == SlotType.SPILL:
                if old_slot.spilled is None:
                    return False
                if new_slot is None or new_slot.spilled is None:
                    return False
                if not _reg_subsumed(old_slot.spilled, new_slot.spilled):
                    return False
    return True


def states_equal(old: VerifierState, new: VerifierState) -> bool:
    """Is ``new`` subsumed by the previously-verified ``old``?"""
    if len(old.frames) != len(new.frames):
        return False
    # Reference obligations must match (``refsafe``): pruning a state
    # with different outstanding acquisitions could hide a leak.
    if len(old.refs) != len(new.refs):
        return False
    # Likewise the spin-lock discipline: held vs. not-held must agree.
    if (old.active_lock is None) != (new.active_lock is None):
        return False
    for old_frame, new_frame in zip(old.frames, new.frames):
        if old_frame.callsite != new_frame.callsite:
            return False
        for old_reg, new_reg in zip(old_frame.regs, new_frame.regs):
            if not _reg_subsumed(old_reg, new_reg):
                return False
        if not _stack_subsumed(old_frame.stack, new_frame.stack):
            return False
    return True


class VerifierEnv:
    """Mutable bookkeeping for one verification run."""

    def __init__(self, log: VerifierLog, complexity_limit: int) -> None:
        self.log = log
        self.complexity_limit = complexity_limit
        #: pending branch states (DFS)
        self.stack: list[VerifierState] = []
        #: explored states per instruction index (pruning candidates),
        #: least recently useful first
        self.explored: dict[int, list[VerifierState]] = {}
        #: ditto for loop headers (separate capacity, reject-on-match)
        self.loop_explored: dict[int, list[VerifierState]] = {}
        #: id allocator for pointer identity / null resolution
        self._next_id = 1
        #: statistics exported into VerifiedProgram.stats
        self.insns_processed = 0
        self.states_pushed = 0
        self.states_pruned = 0
        self.peak_stack = 0
        #: prune telemetry (per-program deterministic, exported as
        #: verifier.prune.* metrics)
        self.prune_scan_hits = 0
        self.prune_misses = 0
        self.prune_evictions = 0
        #: flight recorder for prune-decision events (None = disabled;
        #: the Verifier sets this only when recording is on, so the
        #: hot path pays one ``is not None`` test per prune decision)
        self.flight = None
        #: hierarchical profiler for prune-outcome counts (same
        #: None-when-disabled contract as ``flight``)
        self.profiler = None

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def push_state(self, state: VerifierState) -> None:
        self.stack.append(state)
        self.states_pushed += 1
        self.peak_stack = max(self.peak_stack, len(self.stack))

    def pop_state(self) -> VerifierState | None:
        return self.stack.pop() if self.stack else None

    def _seen(
        self,
        index: dict[int, list[VerifierState]],
        state: VerifierState,
        cap: int,
        point: str,
    ) -> bool:
        """Shared subsumption machinery for prune points and loop headers.

        An ordered ``states_equal`` scan over the stored states; the
        matched entry is freshened.  A genuinely new state is stored
        (copy-on-write snapshot) and the least-recently-useful entry
        evicted beyond ``cap``.
        """
        seen = index.get(state.insn_idx)
        if seen is None:
            seen = index[state.insn_idx] = []
        flight = self.flight
        profiler = self.profiler
        for pos, old in enumerate(seen):
            if states_equal(old, state):
                seen.append(seen.pop(pos))
                self.prune_scan_hits += 1
                if flight is not None:
                    flight.prune(state.insn_idx, point, "scan-hit")
                if profiler is not None:
                    profiler.ops[f"{point}.scan-hit"] += 1
                return True
        self.prune_misses += 1
        if flight is not None:
            flight.prune(state.insn_idx, point, "miss")
        if profiler is not None:
            profiler.ops[f"{point}.miss"] += 1
        seen.append(state.clone())
        if len(seen) > cap:
            del seen[0]
            self.prune_evictions += 1
        return False

    def is_visited(self, state: VerifierState) -> bool:
        """Prune if subsumed; otherwise remember this state."""
        if self._seen(self.explored, state, PRUNE_CAP, "prune"):
            self.states_pruned += 1
            return True
        return False

    def loop_header_seen(self, state: VerifierState) -> bool:
        """Has an equivalent state reached this back-edge target before?

        ``True`` means the program re-reached a loop header without
        making progress — the caller rejects it as an infinite loop.
        """
        return self._seen(self.loop_explored, state, LOOP_CAP, "loop")
