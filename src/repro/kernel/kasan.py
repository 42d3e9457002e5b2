"""Simulated kernel memory with KASAN-style shadow tracking.

This module is the substrate for **indicator #1**.  The paper's key
observation (Section 3.1) is that JIT-compiled eBPF programs run
*without* instrumentation, so an out-of-bounds access produced by a
verifier correctness bug usually corrupts nearby memory silently
instead of crashing — which is why such bugs evade ordinary fuzzing.
Kernel routines, by contrast, are compiled with KASAN and trap on the
first bad byte.

We reproduce that asymmetry with two access paths into one arena:

``raw_read`` / ``raw_write``
    What uninstrumented JIT'd code does.  Any address inside the mapped
    arena succeeds — including redzones, freed objects, and *other
    allocations* — modelling silent corruption.  Only wildly invalid
    addresses fault: the null page raises :class:`NullDerefReport` and
    unmapped kernel addresses raise :class:`KernelPanic` (a GPF oops).

``checked_read`` / ``checked_write``
    What KASAN-instrumented code does.  The access must fall entirely
    inside a single live allocation or a :class:`KasanReport` is
    raised.  BVF's ``bpf_asan_*`` dispatch functions use this path,
    which is exactly how the sanitizer converts silent corruption into
    a captured indicator.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.errors import KasanReport, KernelPanic, NullDerefReport

__all__ = ["Allocation", "KernelMemory", "KERNEL_BASE", "REDZONE"]

#: Base virtual address of the simulated direct-map arena (mirrors the
#: x86-64 kernel direct mapping at 0xffff888000000000).
KERNEL_BASE = 0xFFFF_8880_0000_0000

#: Bytes of poisoned redzone placed after every allocation.
REDZONE = 16

#: Largest single allocation the simulated kmalloc will grant; mirrors
#: KMALLOC_MAX_SIZE and is what Bug #8 (kmemdup on oversized buffers)
#: trips over.
KMALLOC_MAX_SIZE = 4 << 20

_ALIGN = 8

#: Initial arena size.  Kernels use a few KiB (a fuzzing iteration's
#: maps, context and helper records); ``_grow`` doubles on demand, so
#: a boot zeroes only about what it will use.
INITIAL_ARENA = 16 << 10


@dataclass
class Allocation:
    """One live (or quarantined) object in the simulated kernel heap."""

    start: int
    size: int
    tag: str
    freed: bool = False

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, addr: int, size: int = 1) -> bool:
        """True if ``[addr, addr+size)`` lies fully inside the object."""
        return self.start <= addr and addr + size <= self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "freed" if self.freed else "live"
        return f"<Allocation {self.tag} {self.start:#x}+{self.size} {state}>"


class KernelMemory:
    """Bump allocator over a flat arena with shadow metadata.

    Freed objects are quarantined (never reused) so use-after-free is
    detectable by the checked path and silently readable by the raw
    path, matching KASAN's quarantine behaviour closely enough for the
    oracle.
    """

    def __init__(self, arena_size: int = INITIAL_ARENA) -> None:
        self._arena = bytearray(arena_size)
        self._brk = 0
        #: allocation start offsets, sorted, for bisect lookup
        self._starts: list[int] = []
        self._allocs: list[Allocation] = []
        self.kasan_enabled = True
        #: running counters used by the overhead experiment
        self.raw_accesses = 0
        self.checked_accesses = 0

    # --- allocation ------------------------------------------------------

    def kmalloc(self, size: int, tag: str = "kmalloc") -> Allocation:
        """Allocate ``size`` bytes; raises :class:`KernelPanic` on OOM.

        Allocation failure for oversized requests is reported with a
        normal ``MemoryError``-like ValueError by callers that model
        ``kmalloc`` returning NULL; the simulated syscall layer decides
        how to surface it.
        """
        if size <= 0:
            raise ValueError(f"kmalloc of non-positive size {size}")
        if size > KMALLOC_MAX_SIZE:
            raise MemoryError(f"kmalloc({size}) exceeds KMALLOC_MAX_SIZE")
        aligned = -(-size // _ALIGN) * _ALIGN
        needed = aligned + REDZONE
        # ``in_arena`` admits REDZONE bytes past the break, so the
        # backing store must cover them too: a slice store past the end
        # of a bytearray appends at the wrong offset.
        if self._brk + needed + REDZONE > len(self._arena):
            self._grow(self._brk + needed + REDZONE)
        start = self._brk
        self._brk += needed
        alloc = Allocation(start=KERNEL_BASE + start, size=size, tag=tag)
        idx = bisect.bisect_left(self._starts, alloc.start)
        self._starts.insert(idx, alloc.start)
        self._allocs.insert(idx, alloc)
        return alloc

    def kzalloc(self, size: int, tag: str = "kzalloc") -> Allocation:
        """Allocate zeroed memory (the arena is zero-filled already,
        but freed/reused ranges never are, so zero explicitly)."""
        alloc = self.kmalloc(size, tag)
        off = alloc.start - KERNEL_BASE
        self._arena[off : off + size] = b"\x00" * size
        return alloc

    def kfree(self, alloc: Allocation) -> None:
        """Quarantine an allocation; double-free is a KASAN report."""
        if alloc.freed:
            raise KasanReport(
                f"double-free of {alloc.tag}",
                address=alloc.start,
                size=alloc.size,
                is_write=True,
            )
        alloc.freed = True

    def _grow(self, minimum: int) -> None:
        new_size = len(self._arena)
        while new_size < minimum:
            new_size *= 2
        self._arena.extend(b"\x00" * (new_size - len(self._arena)))

    # --- shadow lookup -----------------------------------------------------

    def find_allocation(self, addr: int) -> Allocation | None:
        """The allocation containing ``addr``, live or freed, if any."""
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx < 0:
            return None
        alloc = self._allocs[idx]
        return alloc if alloc.contains(addr) else None

    def in_arena(self, addr: int, size: int = 1) -> bool:
        """True if the range lies inside the mapped arena."""
        return (
            KERNEL_BASE <= addr
            and addr + size <= KERNEL_BASE + self._brk + REDZONE
        )

    # --- checked (KASAN-instrumented) path ---------------------------------

    def shadow_check(self, addr: int, size: int, is_write: bool, who: str) -> None:
        """KASAN validity check; raises :class:`KasanReport` on failure."""
        self.checked_accesses += 1
        if not self.kasan_enabled:
            return
        kind = "write" if is_write else "read"
        alloc = self.find_allocation(addr)
        if alloc is None:
            raise KasanReport(
                f"{who}: {kind} of size {size} at unallocated {addr:#x}",
                address=addr,
                size=size,
                is_write=is_write,
            )
        if alloc.freed:
            raise KasanReport(
                f"{who}: use-after-free {kind} in {alloc.tag} at {addr:#x}",
                address=addr,
                size=size,
                is_write=is_write,
                context={"tag": alloc.tag},
            )
        if not alloc.contains(addr, size):
            raise KasanReport(
                f"{who}: slab-out-of-bounds {kind} of size {size} at "
                f"{addr:#x} ({alloc.tag} is {alloc.size} bytes)",
                address=addr,
                size=size,
                is_write=is_write,
                context={"tag": alloc.tag},
            )

    def checked_read(self, addr: int, size: int, who: str = "kernel") -> int:
        """Instrumented load; returns the little-endian integer value."""
        self.shadow_check(addr, size, is_write=False, who=who)
        return self._raw_value(addr, size)

    def checked_write(
        self, addr: int, size: int, value: int, who: str = "kernel"
    ) -> None:
        """Instrumented store of a little-endian integer value."""
        self.shadow_check(addr, size, is_write=True, who=who)
        self._raw_store(addr, size, value)

    def checked_read_bytes(self, addr: int, size: int, who: str = "kernel") -> bytes:
        self.shadow_check(addr, size, is_write=False, who=who)
        return self.peek_bytes(addr, size)

    def checked_write_bytes(self, addr: int, data: bytes, who: str = "kernel") -> None:
        self.shadow_check(addr, len(data), is_write=True, who=who)
        off = addr - KERNEL_BASE
        self._arena[off : off + len(data)] = data

    # --- raw (uninstrumented JIT) path --------------------------------------

    def _fault_check(self, addr: int, size: int, is_write: bool) -> None:
        if 0 <= addr < 4096:
            raise NullDerefReport(
                f"null pointer dereference at {addr:#x}",
                context={"size": size, "write": is_write},
            )
        if not self.in_arena(addr, size):
            raise KernelPanic(
                f"general protection fault: wild access at {addr:#x}",
                context={"size": size, "write": is_write},
            )

    def raw_read(self, addr: int, size: int) -> int:
        """Uninstrumented load: succeeds anywhere inside the arena.

        Out-of-bounds reads within the arena return whatever bytes are
        there — silent information disclosure, not a crash.
        """
        self.raw_accesses += 1
        self._fault_check(addr, size, is_write=False)
        return self._raw_value(addr, size)

    def raw_write(self, addr: int, size: int, value: int) -> None:
        """Uninstrumented store: silently corrupts neighbours/redzones."""
        self.raw_accesses += 1
        self._fault_check(addr, size, is_write=True)
        self._raw_store(addr, size, value)

    def peek_bytes(self, addr: int, size: int) -> bytes:
        """Unchecked, uncounted byte read of an address the caller has
        already validated (``probe_read``'s fault-tolerant copy)."""
        off = addr - KERNEL_BASE
        return bytes(self._arena[off : off + size])

    # --- internals ------------------------------------------------------------

    def _raw_value(self, addr: int, size: int) -> int:
        off = addr - KERNEL_BASE
        return int.from_bytes(self._arena[off : off + size], "little")

    def _raw_store(self, addr: int, size: int, value: int) -> None:
        off = addr - KERNEL_BASE
        self._arena[off : off + size] = (value & ((1 << (size * 8)) - 1)).to_bytes(
            size, "little"
        )

    # --- statistics -------------------------------------------------------------

    def live_bytes(self) -> int:
        """Total bytes in live allocations (used by leak-style tests)."""
        return sum(a.size for a in self._allocs if not a.freed)

    def allocation_count(self) -> int:
        return sum(1 for a in self._allocs if not a.freed)
