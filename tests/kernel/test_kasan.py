"""Shadow-memory (KASAN) model tests.

The raw/checked asymmetry is the substrate of indicator #1; these tests
pin down both paths plus the allocator's structural invariants.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import KasanReport, KernelPanic, NullDerefReport
from repro.kernel.kasan import KERNEL_BASE, REDZONE, KernelMemory


class TestAllocator:
    def test_kmalloc_basic(self):
        mem = KernelMemory()
        a = mem.kmalloc(64, tag="t")
        assert a.size == 64
        assert a.start >= KERNEL_BASE
        assert not a.freed

    def test_allocations_do_not_overlap(self):
        mem = KernelMemory()
        allocs = [mem.kmalloc(sz) for sz in (1, 7, 8, 9, 64, 4096)]
        spans = sorted((a.start, a.end) for a in allocs)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_redzone_between_allocations(self):
        mem = KernelMemory()
        a = mem.kmalloc(8)
        b = mem.kmalloc(8)
        assert b.start - a.end >= 8  # alignment + redzone

    def test_kzalloc_zeroes(self):
        mem = KernelMemory()
        a = mem.kzalloc(32)
        assert mem.checked_read_bytes(a.start, 32) == b"\x00" * 32

    def test_arena_grows(self):
        mem = KernelMemory(arena_size=256)
        allocs = [mem.kmalloc(128) for _ in range(16)]
        assert len({a.start for a in allocs}) == 16
        mem.checked_write(allocs[0].start, 8, 0xABCD)
        mem.kmalloc(100_000)
        assert mem.checked_read(allocs[0].start, 8) == 0xABCD

    def test_oversized_kmalloc_fails(self):
        mem = KernelMemory()
        with pytest.raises(MemoryError):
            mem.kmalloc((4 << 20) + 1)

    def test_non_positive_size_rejected(self):
        mem = KernelMemory()
        with pytest.raises(ValueError):
            mem.kmalloc(0)

    def test_find_allocation(self):
        mem = KernelMemory()
        a = mem.kmalloc(16)
        assert mem.find_allocation(a.start) is a
        assert mem.find_allocation(a.start + 15) is a
        assert mem.find_allocation(a.start + 16) is None

    def test_live_accounting(self):
        mem = KernelMemory()
        a = mem.kmalloc(10)
        b = mem.kmalloc(20)
        assert mem.live_bytes() == 30
        assert mem.allocation_count() == 2
        mem.kfree(a)
        assert mem.live_bytes() == 20
        assert mem.allocation_count() == 1


class TestCheckedPath:
    def test_rw_roundtrip(self):
        mem = KernelMemory()
        a = mem.kmalloc(16)
        mem.checked_write(a.start + 8, 8, 0xDEADBEEF)
        assert mem.checked_read(a.start + 8, 8) == 0xDEADBEEF

    def test_oob_read_trapped(self):
        mem = KernelMemory()
        a = mem.kmalloc(16)
        with pytest.raises(KasanReport) as exc:
            mem.checked_read(a.start + 9, 8)
        assert "out-of-bounds" in str(exc.value)

    def test_oob_write_trapped(self):
        mem = KernelMemory()
        a = mem.kmalloc(8)
        with pytest.raises(KasanReport):
            mem.checked_write(a.start + 8, 1, 0)

    def test_use_after_free_trapped(self):
        mem = KernelMemory()
        a = mem.kmalloc(8)
        mem.kfree(a)
        with pytest.raises(KasanReport) as exc:
            mem.checked_read(a.start, 8)
        assert "use-after-free" in str(exc.value)

    def test_double_free_trapped(self):
        mem = KernelMemory()
        a = mem.kmalloc(8)
        mem.kfree(a)
        with pytest.raises(KasanReport):
            mem.kfree(a)

    def test_unallocated_trapped(self):
        mem = KernelMemory()
        mem.kmalloc(8)
        with pytest.raises(KasanReport):
            mem.checked_read(KERNEL_BASE + (1 << 30), 8)

    def test_disabled_kasan_passes(self):
        mem = KernelMemory()
        a = mem.kmalloc(8)
        mem.kasan_enabled = False
        mem.shadow_check(a.start + 8, 8, is_write=False, who="t")  # no raise


class TestRawPath:
    def test_raw_rw(self):
        mem = KernelMemory()
        a = mem.kmalloc(16)
        mem.raw_write(a.start, 8, 0x1122334455667788)
        assert mem.raw_read(a.start, 8) == 0x1122334455667788

    def test_small_oob_is_silent(self):
        """The crux of indicator #1: JIT'd code corrupts silently."""
        mem = KernelMemory()
        a = mem.kmalloc(8)
        mem.raw_write(a.start + 8, 8, 0xFF)  # into the redzone: no trap
        assert mem.raw_read(a.start + 8, 8) == 0xFF

    def test_cross_object_corruption_is_silent(self):
        mem = KernelMemory()
        a = mem.kmalloc(8)
        b = mem.kmalloc(8)
        mem.raw_write(a.start, 8, 0)
        span = b.start - a.start
        mem.raw_write(a.start + span, 8, 0x42)  # actually hits b
        assert mem.checked_read(b.start, 8) == 0x42

    def test_null_page_faults(self):
        mem = KernelMemory()
        with pytest.raises(NullDerefReport):
            mem.raw_read(0, 8)
        with pytest.raises(NullDerefReport):
            mem.raw_write(8, 4, 1)

    def test_wild_address_faults(self):
        mem = KernelMemory()
        with pytest.raises(KernelPanic):
            mem.raw_read(0x4141414141414141, 8)

    def test_freed_memory_raw_readable(self):
        mem = KernelMemory()
        a = mem.kmalloc(8)
        mem.checked_write(a.start, 8, 77)
        mem.kfree(a)
        assert mem.raw_read(a.start, 8) == 77


class TestProperties:
    @given(st.integers(min_value=1, max_value=256),
           st.lists(st.integers(min_value=1, max_value=512), min_size=1,
                    max_size=40))
    @example(48, [32])
    def test_highest_mapped_word_round_trips(self, arena_size, sizes):
        """After every kmalloc, the last word ``in_arena`` admits is
        backed by the arena, whatever its initial size.  The example is
        an allocation that fills the arena exactly: ``in_arena`` admits
        REDZONE bytes past the break, and a store there must not append
        at the end of a short bytearray and read back as 0."""
        mem = KernelMemory(arena_size=arena_size)
        for size in sizes:
            a = mem.kmalloc(size)
            top = a.start + -(-size // 8) * 8 + 2 * REDZONE - 8
            assert mem.in_arena(top, 8) and not mem.in_arena(top + 1, 8)
            mem.raw_write(top, 8, size)
            assert mem.raw_read(top, 8) == size

    @given(st.lists(st.integers(min_value=1, max_value=512), min_size=1,
                    max_size=40))
    def test_every_live_byte_checked_readable(self, sizes):
        mem = KernelMemory()
        allocs = [mem.kmalloc(sz) for sz in sizes]
        for a in allocs:
            mem.checked_read(a.start, 1)
            mem.checked_read(a.end - 1, 1)

    @given(
        st.integers(min_value=1, max_value=128),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
    )
    def test_value_roundtrip_any_size(self, size, value):
        mem = KernelMemory()
        a = mem.kmalloc(size)
        chunk = min(size, 8)
        value &= (1 << (chunk * 8)) - 1
        mem.checked_write(a.start, chunk, value)
        assert mem.checked_read(a.start, chunk) == value

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=64))
    def test_oob_always_detected_by_checked_path(self, size, excess):
        mem = KernelMemory()
        a = mem.kmalloc(size)
        with pytest.raises(KasanReport):
            mem.checked_read(a.start + size, excess)
