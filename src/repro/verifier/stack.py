"""Verifier stack-slot tracking.

The eBPF stack is 512 bytes below the frame pointer (R10).  The
verifier tracks every byte as one of

- ``INVALID`` — never written; reads are rejected,
- ``MISC`` — written with some unknown scalar bytes,
- ``ZERO`` — written with constant zero,
- ``SPILL`` — part of an 8-byte register spill whose full
  :class:`~repro.verifier.state.RegState` is preserved (this is how
  pointers survive a round-trip through the stack).

Slots are 8-byte aligned groups; a spill occupies one aligned slot.
Partial overwrites of a spill degrade it to MISC bytes, exactly like
the kernel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ebpf.opcodes import STACK_SIZE
from repro.verifier.state import RegState

__all__ = ["SlotType", "StackState", "STACK_SIZE"]


class SlotType(enum.Enum):
    INVALID = " "
    MISC = "m"
    ZERO = "0"
    SPILL = "r"


@dataclass
class _Slot:
    """One 8-byte stack slot: per-byte types plus an optional spill."""

    bytes: list[SlotType] = field(default_factory=lambda: [SlotType.INVALID] * 8)
    spilled: RegState | None = None
    #: copy-on-write marker — see :class:`RegState.shared`.  A shared
    #: slot (aliased by another stack's slot dict) must be replaced,
    #: never mutated; writers go through ``StackState._wslot``.
    shared: bool = field(default=False, compare=False, repr=False)

    def clone(self) -> "_Slot":
        return _Slot(
            bytes=list(self.bytes),
            spilled=self.spilled.clone() if self.spilled else None,
        )

    def is_full_spill(self) -> bool:
        return self.spilled is not None and all(
            b == SlotType.SPILL for b in self.bytes
        )


class StackState:
    """Abstract state of one call frame's stack.

    Cloning is copy-on-write: :meth:`cow_clone` shares the slot dict
    between the original and the copy and defers all copying to the
    first write on either side.  Branch forks and explored-set
    snapshots clone constantly but write rarely, so almost all of the
    former deep-copy work (a dict plus an 8-element list and spilled
    register per slot) never happens.  Reads never unshare.
    """

    def __init__(self) -> None:
        #: slot index -> _Slot; slot i covers bytes [-(8*i+8), -(8*i))
        self._slots: dict[int, _Slot] = {}
        #: deepest byte written (positive number of bytes below fp)
        self.depth = 0
        #: ``True`` while ``_slots`` is aliased by another StackState
        self._shared_slots = False

    # --- copy-on-write plumbing -------------------------------------------

    def cow_clone(self) -> "StackState":
        """A logically independent copy that shares storage until written."""
        self._shared_slots = True
        new = StackState.__new__(StackState)
        new._slots = self._slots
        new.depth = self.depth
        new._shared_slots = True
        return new

    def _own_slots(self) -> None:
        """Make the slot dict private (its slots stay shared)."""
        if self._shared_slots:
            for slot in self._slots.values():
                slot.shared = True
            self._slots = dict(self._slots)
            self._shared_slots = False

    def _wslot(self, index: int) -> _Slot:
        """A writable slot at ``index``, cloning shared storage as needed."""
        self._own_slots()
        slot = self._slots.get(index)
        if slot is None:
            slot = _Slot()
            self._slots[index] = slot
        elif slot.shared:
            spilled = slot.spilled
            if spilled is not None:
                spilled.shared = True
            slot = _Slot(bytes=list(slot.bytes), spilled=spilled)
            self._slots[index] = slot
        return slot

    def cow_update_spills(self, match, apply) -> None:
        """Apply ``apply`` to every spilled register satisfying ``match``.

        The copy-on-write replacement for iterating slots and mutating
        ``slot.spilled`` in place: matching is read-only, and only
        matched slots (and their spilled registers) are unshared.
        """
        matched = [
            index
            for index, slot in self._slots.items()
            if slot.spilled is not None and match(slot.spilled)
        ]
        for index in matched:
            slot = self._wslot(index)
            reg = slot.spilled
            if reg.shared:
                reg = reg.clone()
                slot.spilled = reg
            apply(reg)

    # --- addressing -------------------------------------------------------

    @staticmethod
    def in_bounds(off: int, size: int) -> bool:
        """Is ``[fp+off, fp+off+size)`` within the 512-byte stack?"""
        return -STACK_SIZE <= off and off + size <= 0

    def _slot_and_byte(self, off: int) -> tuple[int, int]:
        """Map a negative fp offset to (slot index, byte-in-slot)."""
        pos = -off - 1  # 0 for byte at fp-1
        return pos // 8, 7 - (pos % 8)

    # --- writes ---------------------------------------------------------------

    def _note_depth(self, off: int) -> None:
        self.depth = max(self.depth, -off)

    def _degrade_spill(self, slot: _Slot) -> None:
        """Partial overwrite turns remaining spill bytes into MISC."""
        if slot.spilled is not None:
            slot.spilled = None
            slot.bytes = [
                SlotType.MISC if b == SlotType.SPILL else b for b in slot.bytes
            ]

    def write_reg(self, off: int, reg: RegState) -> None:
        """An 8-byte aligned register spill preserving full state."""
        slot_idx, _ = self._slot_and_byte(off)
        slot = self._wslot(slot_idx)
        slot.spilled = reg.clone()
        slot.bytes = [SlotType.SPILL] * 8
        self._note_depth(off)

    def write_misc(self, off: int, size: int, zero: bool = False) -> None:
        """A store of scalar data (or a misaligned/partial store)."""
        kind = SlotType.ZERO if zero else SlotType.MISC
        for i in range(size):
            slot_idx, byte_idx = self._slot_and_byte(off + i)
            slot = self._wslot(slot_idx)
            self._degrade_spill(slot)
            slot.bytes[byte_idx] = kind
        self._note_depth(off)

    # --- reads -------------------------------------------------------------------

    def read(self, off: int, size: int) -> tuple[RegState | None, str]:
        """Validate a read and produce the filled register state.

        Returns ``(reg, error)``; on success error is "".  A full
        aligned read of a spill slot restores the spilled register;
        other initialised reads produce an unknown scalar (zero bytes
        produce a constant where fully zero).
        """
        if size == 8 and off % 8 == 0:
            slot_idx, _ = self._slot_and_byte(off)
            slot = self._slots.get(slot_idx)
            if slot is not None and slot.is_full_spill():
                return slot.spilled.clone(), ""

        all_zero = True
        for i in range(size):
            slot_idx, byte_idx = self._slot_and_byte(off + i)
            slot = self._slots.get(slot_idx)
            kind = slot.bytes[byte_idx] if slot else SlotType.INVALID
            if kind == SlotType.INVALID:
                return None, f"invalid read from uninitialised stack at fp{off:+d}"
            if kind != SlotType.ZERO:
                all_zero = False
        if all_zero:
            return RegState.const_scalar(0), ""
        return RegState.unknown_scalar(), ""

    def check_region_initialized(self, off: int, size: int) -> str:
        """Helpers reading a stack region require every byte written."""
        for i in range(size):
            slot_idx, byte_idx = self._slot_and_byte(off + i)
            slot = self._slots.get(slot_idx)
            kind = slot.bytes[byte_idx] if slot else SlotType.INVALID
            if kind == SlotType.INVALID:
                return f"stack byte fp{off + i:+d} is not initialised"
        return ""

    def mark_region_written(self, off: int, size: int) -> None:
        """Helpers writing into a stack region initialise it."""
        self.write_misc(off, size, zero=False)

    # --- copy / compare --------------------------------------------------------------

    def clone(self) -> "StackState":
        new = StackState()
        new._slots = {i: s.clone() for i, s in self._slots.items()}
        new.depth = self.depth
        return new

    def spilled_reg(self, off: int) -> RegState | None:
        slot_idx, _ = self._slot_and_byte(off)
        slot = self._slots.get(slot_idx)
        return slot.spilled if slot and slot.is_full_spill() else None

    def iter_slots(self):
        """Yield ``(slot_index, slot)`` pairs for pruning comparison."""
        return self._slots.items()

    def get_slot(self, index: int) -> _Slot | None:
        return self._slots.get(index)
