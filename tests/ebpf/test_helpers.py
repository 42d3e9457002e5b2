"""Helper registry and implementation tests."""

from __future__ import annotations

import errno
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.analysis.differential import _ReadRecorder
from repro.errors import KernelPanic, LockdepReport
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel, replay_kernel
from repro.ebpf import helpers
from repro.ebpf.helpers import (
    ArgType,
    HelperContext,
    HelperId,
    HelperRegistry,
    RetType,
)
from repro.ebpf.maps import MapType
from repro.ebpf.program import ProgType


def ctx_for(kernel, **kwargs) -> HelperContext:
    return HelperContext(kernel=kernel, prog=None, **kwargs)


class TestRegistry:
    def test_all_helpers_registered(self, patched_kernel):
        ids = patched_kernel.helpers.ids()
        assert int(HelperId.MAP_LOOKUP_ELEM) in ids
        assert int(HelperId.TRACE_PRINTK) in ids
        assert int(HelperId.GET_CURRENT_TASK_BTF) in ids

    def test_version_gating(self, v5_15_kernel):
        ids = v5_15_kernel.helpers.ids()
        # bpf_loop and bpf_snprintf post-date v5.15 in our model.
        assert int(HelperId.LOOP) not in ids
        assert int(HelperId.SNPRINTF) not in ids
        assert int(HelperId.MAP_LOOKUP_ELEM) in ids

    def test_prog_type_filtering(self, patched_kernel):
        socket_ids = patched_kernel.helpers.ids_for_prog_type("socket_filter")
        kprobe_ids = patched_kernel.helpers.ids_for_prog_type("kprobe")
        assert int(HelperId.GET_CURRENT_PID_TGID) not in socket_ids
        assert int(HelperId.GET_CURRENT_PID_TGID) in kprobe_ids

    def test_lock_acquiring_ids(self, patched_kernel):
        locky = patched_kernel.helpers.lock_acquiring_ids()
        assert int(HelperId.TRACE_PRINTK) in locky
        assert int(HelperId.RINGBUF_OUTPUT) in locky
        assert int(HelperId.KTIME_GET_NS) not in locky

    def test_unknown_helper(self, patched_kernel):
        assert patched_kernel.helpers.get(9999) is None

    def test_shared_table_does_not_leak_across_configs(self):
        """Every kernel filters one process-wide table when it looks a
        helper up, so a v5.15 kernel (no bpf_loop) leaves later boots'
        helpers alone."""
        common = [1, 2, 3, 4, 5, 6, 7, 8, 12, 14, 15, 16, 35, 87, 88, 89,
                  93, 94, 109, 113, 130, 131, 132, 133, 158]
        expected = {
            "v5.15": common,
            "v6.1": common + [165, 181],
            "bpf-next": common + [165, 181],
            "patched": common + [165, 181],
        }
        assert Kernel(PROFILES["v5.15"]()).helpers.ids() == expected["v5.15"]
        new_ids = Kernel(PROFILES["bpf-next"]()).helpers.ids()
        assert int(HelperId.LOOP) in new_ids
        assert int(HelperId.SNPRINTF) in new_ids
        for names in (list(PROFILES), list(reversed(PROFILES))):
            for name in names:
                assert Kernel(PROFILES[name]()).helpers.ids() == expected[name]


#: every stock profile, plus feature sets no stock profile has
_CONFIGS = {
    **{name: make() for name, make in PROFILES.items()},
    "no-btf": replace(PROFILES["bpf-next"](), has_btf_access=False),
    "no-btf-no-loop": replace(PROFILES["v5.15"](), has_btf_access=False),
}


def _eager_protos(config) -> dict:
    """The boot-time filtering lookup-time filtering replaced."""
    protos = dict(helpers._PROTOS)
    if not config.has_btf_access:
        protos.pop(int(HelperId.GET_CURRENT_TASK_BTF), None)
    if not config.has_bpf_loop:
        protos.pop(int(HelperId.LOOP), None)
        protos.pop(int(HelperId.SNPRINTF), None)
    return protos


@pytest.mark.parametrize("name", list(_CONFIGS))
class TestLookupTimeFiltering:
    """Filtering at lookup answers exactly what filtering at boot did."""

    def test_get_matches_eager_filtering(self, name):
        config = _CONFIGS[name]
        eager, registry = _eager_protos(config), HelperRegistry(config)
        for helper_id in [*range(-1, 256), 9999]:
            assert registry.get(helper_id) is eager.get(helper_id), helper_id

    def test_ids_match_eager_filtering(self, name):
        config = _CONFIGS[name]
        eager, registry = _eager_protos(config), HelperRegistry(config)
        assert registry.ids() == sorted(eager)
        for prog_type in ProgType:
            assert registry.ids_for_prog_type(prog_type.value) == sorted(
                hid for hid, p in eager.items()
                if p.prog_types is None or prog_type.value in p.prog_types
            ), prog_type
        assert registry.lock_acquiring_ids() == frozenset(
            hid for hid, p in eager.items() if p.acquires_lock
        )

    def test_boot_and_map_creation_read_no_config(self, name):
        kernel = Kernel(_CONFIGS[name])
        kernel.map_create(MapType.HASH, 8, 8, 4)
        kernel.map_create(MapType.ARRAY, 4, 16, 2, has_spin_lock=True)
        prog = SimpleNamespace(maps=[kernel.map_by_fd(3), kernel.map_by_fd(4)])
        reads: dict = {}
        replay_kernel(_ReadRecorder(_CONFIGS[name], reads), prog)
        assert reads == {}

    def test_gated_lookup_reads_only_its_feature(self, name):
        config = _CONFIGS[name]
        reads: dict = {}
        registry = HelperRegistry(_ReadRecorder(config, reads))
        registry.get(HelperId.MAP_LOOKUP_ELEM)
        assert reads == {}
        registry.get(HelperId.LOOP)
        assert reads == {"has_bpf_loop": config.has_bpf_loop}


class TestMapHelpers:
    def _setup(self, kernel):
        fd = kernel.map_create(MapType.HASH, 8, 8, 4)
        bpf_map = kernel.map_by_fd(fd)
        map_addr = kernel.map_kobj_addr(bpf_map)
        key_buf = kernel.mem.kmalloc(8, tag="key")
        val_buf = kernel.mem.kmalloc(8, tag="val")
        return bpf_map, map_addr, key_buf, val_buf

    def test_lookup_miss_returns_zero(self, patched_kernel):
        bpf_map, map_addr, key_buf, _ = self._setup(patched_kernel)
        patched_kernel.mem.checked_write(key_buf.start, 8, 1)
        proto = patched_kernel.helpers.get(HelperId.MAP_LOOKUP_ELEM)
        assert proto.impl(ctx_for(patched_kernel), map_addr, key_buf.start) == 0

    def test_update_then_lookup(self, patched_kernel):
        bpf_map, map_addr, key_buf, val_buf = self._setup(patched_kernel)
        mem = patched_kernel.mem
        mem.checked_write(key_buf.start, 8, 5)
        mem.checked_write(val_buf.start, 8, 77)
        update = patched_kernel.helpers.get(HelperId.MAP_UPDATE_ELEM)
        lookup = patched_kernel.helpers.get(HelperId.MAP_LOOKUP_ELEM)
        assert update.impl(
            ctx_for(patched_kernel), map_addr, key_buf.start, val_buf.start, 0
        ) == 0
        addr = lookup.impl(ctx_for(patched_kernel), map_addr, key_buf.start)
        assert addr != 0
        assert mem.checked_read(addr, 8) == 77

    def test_delete_missing_negative_errno(self, patched_kernel):
        bpf_map, map_addr, key_buf, _ = self._setup(patched_kernel)
        patched_kernel.mem.checked_write(key_buf.start, 8, 9)
        delete = patched_kernel.helpers.get(HelperId.MAP_DELETE_ELEM)
        rv = delete.impl(ctx_for(patched_kernel), map_addr, key_buf.start)
        assert rv == -errno.ENOENT


class TestMiscHelpers:
    def test_ktime_monotonic(self, patched_kernel):
        proto = patched_kernel.helpers.get(HelperId.KTIME_GET_NS)
        a = proto.impl(ctx_for(patched_kernel))
        b = proto.impl(ctx_for(patched_kernel))
        assert b > a

    def test_prandom_changes(self, patched_kernel):
        proto = patched_kernel.helpers.get(HelperId.GET_PRANDOM_U32)
        values = {proto.impl(ctx_for(patched_kernel)) for _ in range(8)}
        assert len(values) > 1
        assert all(0 <= v <= 0xFFFFFFFF for v in values)

    def test_get_current_comm(self, patched_kernel):
        buf = patched_kernel.mem.kmalloc(16, tag="comm")
        proto = patched_kernel.helpers.get(HelperId.GET_CURRENT_COMM)
        assert proto.impl(ctx_for(patched_kernel), buf.start, 16) == 0
        data = patched_kernel.mem.checked_read_bytes(buf.start, 16)
        assert data.startswith(b"repro_task")

    def test_get_current_task_address(self, patched_kernel):
        proto = patched_kernel.helpers.get(HelperId.GET_CURRENT_TASK)
        addr = proto.impl(ctx_for(patched_kernel))
        task = patched_kernel.btf.object(patched_kernel.btf.current_task_id)
        assert addr == task.address

    def test_probe_read_bad_address_faults_gracefully(self, patched_kernel):
        buf = patched_kernel.mem.kmalloc(8, tag="dst")
        proto = patched_kernel.helpers.get(HelperId.PROBE_READ_KERNEL)
        rv = proto.impl(ctx_for(patched_kernel), buf.start, 8, 0x41414141)
        assert rv == -errno.EFAULT
        assert patched_kernel.mem.checked_read(buf.start, 8) == 0

    def test_probe_read_copies_any_arena_bytes(self, patched_kernel):
        """probe_read reads past KASAN (a redzone here) and counts as
        no raw access."""
        mem = patched_kernel.mem
        src = mem.kmalloc(8, tag="src")
        dst = mem.kmalloc(16, tag="dst")
        mem.raw_write(src.end, 8, 0x0807060504030201)
        raw_before = mem.raw_accesses
        proto = patched_kernel.helpers.get(HelperId.PROBE_READ_KERNEL)
        assert proto.impl(ctx_for(patched_kernel), dst.start, 16, src.start) == 0
        assert mem.checked_read(dst.start + 8, 8) == 0x0807060504030201
        assert mem.raw_accesses == raw_before


class TestSendSignal:
    def test_invalid_signal_einval(self, bpf_next_kernel):
        proto = bpf_next_kernel.helpers.get(HelperId.SEND_SIGNAL)
        assert proto.impl(ctx_for(bpf_next_kernel), 0) == -errno.EINVAL
        assert proto.impl(ctx_for(bpf_next_kernel), 999) == -errno.EINVAL

    def test_normal_context_ok(self, bpf_next_kernel):
        proto = bpf_next_kernel.helpers.get(HelperId.SEND_SIGNAL)
        assert proto.impl(ctx_for(bpf_next_kernel), 9) == 0

    def test_nmi_context_panics(self, bpf_next_kernel):
        proto = bpf_next_kernel.helpers.get(HelperId.SEND_SIGNAL)
        with pytest.raises(KernelPanic):
            proto.impl(ctx_for(bpf_next_kernel, in_nmi=True), 9)


class TestRingbufOutput:
    def _ringbuf(self, kernel):
        fd = kernel.map_create(MapType.RINGBUF, 0, 0, 4096)
        bpf_map = kernel.map_by_fd(fd)
        data = kernel.mem.kmalloc(16, tag="data")
        return kernel.map_kobj_addr(bpf_map), data

    def test_normal_output(self, patched_kernel):
        map_addr, data = self._ringbuf(patched_kernel)
        proto = patched_kernel.helpers.get(HelperId.RINGBUF_OUTPUT)
        rv = proto.impl(ctx_for(patched_kernel), map_addr, data.start, 16, 0)
        assert rv == 0

    def test_irq_misuse_reported_when_flawed(self, bpf_next_kernel):
        map_addr, data = self._ringbuf(bpf_next_kernel)
        proto = bpf_next_kernel.helpers.get(HelperId.RINGBUF_OUTPUT)
        with pytest.raises(LockdepReport):
            proto.impl(
                ctx_for(bpf_next_kernel, in_irq=True), map_addr, data.start, 16, 0
            )

    def test_irq_ok_when_fixed(self, patched_kernel):
        map_addr, data = self._ringbuf(patched_kernel)
        proto = patched_kernel.helpers.get(HelperId.RINGBUF_OUTPUT)
        rv = proto.impl(
            ctx_for(patched_kernel, in_irq=True), map_addr, data.start, 16, 0
        )
        assert rv == 0
