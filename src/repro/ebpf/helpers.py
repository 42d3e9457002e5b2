"""eBPF helper-function registry: prototypes, implementations, flags.

Helpers are the programs' gateway into the kernel, and therefore the
whole surface of **indicator #2**: "bugs caused during kernel routines'
execution invoked by loaded eBPF programs".  Each helper here has

- a *prototype* the verifier checks call sites against (argument
  register types, return type, allowed program types), and
- an *implementation* the runtime dispatches to, operating on the
  simulated kernel (memory, maps, lockdep, tracepoints).

The implementations are "compiled with KASAN": all their memory
traffic goes through the checked access path.  Several of them embed
the Table-2 component bugs, gated on the kernel's flaw profile.
"""

from __future__ import annotations

import enum
import errno
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

from repro.errors import KernelPanic
from repro.ebpf.maps import MapType
from repro.kernel.config import Flaw, KernelConfig
from repro.kernel.locks import TRACE_PRINTK_LOCK

#: map classes for check_map_func_compatibility
_KEYED_MAPS = frozenset(
    {MapType.HASH, MapType.ARRAY, MapType.LRU_HASH, MapType.PERCPU_HASH,
     MapType.PERCPU_ARRAY}
)
_DELETE_MAPS = frozenset(
    {MapType.HASH, MapType.LRU_HASH, MapType.PERCPU_HASH}
)
_QUEUE_STACK_MAPS = frozenset({MapType.QUEUE, MapType.STACK})
_RINGBUF_MAPS = frozenset({MapType.RINGBUF})
_PROG_ARRAY_MAPS = frozenset({MapType.PROG_ARRAY})

__all__ = [
    "ArgType",
    "RetType",
    "HelperId",
    "HelperProto",
    "HelperContext",
    "HelperRegistry",
]


class ArgType(enum.Enum):
    """Argument-type constraints, mirroring ``enum bpf_arg_type``."""

    ANYTHING = "anything"  # any initialised value
    CONST_MAP_PTR = "const_map_ptr"
    PTR_TO_MAP_KEY = "ptr_to_map_key"  # readable region of key_size
    PTR_TO_MAP_VALUE = "ptr_to_map_value"  # readable region of value_size
    PTR_TO_UNINIT_MAP_VALUE = "ptr_to_uninit_map_value"  # writable
    PTR_TO_MEM = "ptr_to_mem"  # readable region, size follows
    PTR_TO_UNINIT_MEM = "ptr_to_uninit_mem"  # writable region, size follows
    CONST_SIZE = "const_size"  # size of the preceding region, > 0
    CONST_SIZE_OR_ZERO = "const_size_or_zero"
    CONST_ALLOC_SIZE = "const_alloc_size"  # standalone allocation size
    PTR_TO_CTX = "ptr_to_ctx"
    PTR_TO_BTF_ID = "ptr_to_btf_id"  # trusted kernel object pointer
    PTR_TO_ALLOC_MEM = "ptr_to_alloc_mem"  # an acquired (refcounted) region
    PTR_TO_SPIN_LOCK = "ptr_to_spin_lock"  # &value->lock in a lock-y map
    SCALAR = "scalar"  # any scalar value


class RetType(enum.Enum):
    """Return-type classes, mirroring ``enum bpf_return_type``."""

    INTEGER = "integer"
    VOID = "void"
    PTR_TO_MAP_VALUE_OR_NULL = "ptr_to_map_value_or_null"
    PTR_TO_BTF_ID = "ptr_to_btf_id"
    #: an acquired memory region (or NULL): carries a release obligation
    PTR_TO_ALLOC_MEM_OR_NULL = "ptr_to_alloc_mem_or_null"


class HelperId(enum.IntEnum):
    """Helper function ids (matching ``enum bpf_func_id`` where real)."""

    MAP_LOOKUP_ELEM = 1
    MAP_UPDATE_ELEM = 2
    MAP_DELETE_ELEM = 3
    PROBE_READ = 4
    KTIME_GET_NS = 5
    TRACE_PRINTK = 6
    GET_PRANDOM_U32 = 7
    GET_SMP_PROCESSOR_ID = 8
    TAIL_CALL = 12
    GET_CURRENT_PID_TGID = 14
    GET_CURRENT_UID_GID = 15
    GET_CURRENT_COMM = 16
    GET_CURRENT_TASK = 35
    MAP_PUSH_ELEM = 87
    MAP_POP_ELEM = 88
    MAP_PEEK_ELEM = 89
    SPIN_LOCK = 93
    SPIN_UNLOCK = 94
    SEND_SIGNAL = 109
    PROBE_READ_KERNEL = 113
    RINGBUF_OUTPUT = 130
    RINGBUF_RESERVE = 131
    RINGBUF_SUBMIT = 132
    RINGBUF_DISCARD = 133
    GET_CURRENT_TASK_BTF = 158
    SNPRINTF = 165
    LOOP = 181


@dataclass
class HelperContext:
    """Everything a helper implementation may touch.

    Constructed by the runtime for each program trigger.  ``args`` at
    call time are the raw u64 values of R1-R5.
    """

    kernel: object  # repro.kernel.syscall.Kernel
    prog: object  # the running VerifiedProgram
    context_id: int = 0
    in_irq: bool = False
    in_nmi: bool = False
    depth: int = 0

    @property
    def mem(self):
        return self.kernel.mem

    @property
    def config(self) -> KernelConfig:
        return self.kernel.config

    def map_by_addr(self, addr: int):
        return self.kernel.map_by_addr(addr)


@dataclass(frozen=True)
class HelperProto:
    """A helper's verifier-visible prototype plus its implementation."""

    helper_id: HelperId
    name: str
    args: tuple[ArgType, ...]
    ret: RetType
    impl: Callable[..., int]
    #: acquires a kernel lock — relevant for bugs #4/#5 attach checks
    acquires_lock: bool = False
    #: returns an object the program must later release
    acquires_ref: bool = False
    #: releases the reference carried by its pointer argument
    releases_ref: bool = False
    #: unsafe to call from NMI-like contexts (bug #6's subject)
    nmi_unsafe: bool = False
    #: program types allowed to call this helper (None = all)
    prog_types: frozenset[str] | None = None
    #: map types a CONST_MAP_PTR argument accepts (None = any); the
    #: verifier's check_map_func_compatibility
    map_types: frozenset | None = None
    #: the :class:`~repro.kernel.config.KernelConfig` feature field a
    #: kernel needs to offer this helper (None = every kernel has it)
    feature: str | None = None


# --------------------------------------------------------------------------
# Implementations.  Signature convention: (ctx, r1..rN as ints) -> int.
# A negative return is an in-program errno (programs see it in R0).
# Raising a KernelReport models a kernel-side crash/report.
# --------------------------------------------------------------------------


def _read_key(ctx: HelperContext, bpf_map, key_ptr: int) -> bytes:
    return ctx.mem.checked_read_bytes(key_ptr, bpf_map.key_size, who="helper-key")


def _impl_map_lookup(ctx: HelperContext, map_addr: int, key_ptr: int) -> int:
    bpf_map = ctx.map_by_addr(map_addr)
    key = _read_key(ctx, bpf_map, key_ptr)
    addr = bpf_map.lookup(key)
    return addr if addr is not None else 0


def _impl_map_update(
    ctx: HelperContext, map_addr: int, key_ptr: int, value_ptr: int, flags: int
) -> int:
    from repro.errors import MapError

    bpf_map = ctx.map_by_addr(map_addr)
    key = _read_key(ctx, bpf_map, key_ptr)
    value = ctx.mem.checked_read_bytes(
        value_ptr, bpf_map.value_size, who="helper-value"
    )
    try:
        bpf_map.update(key, value, flags)
    except MapError as exc:
        return -exc.errno
    return 0


def _impl_map_delete(ctx: HelperContext, map_addr: int, key_ptr: int) -> int:
    from repro.errors import MapError

    bpf_map = ctx.map_by_addr(map_addr)
    key = _read_key(ctx, bpf_map, key_ptr)
    try:
        bpf_map.delete(key)
    except MapError as exc:
        return -exc.errno
    return 0


def _impl_probe_read(ctx: HelperContext, dst: int, size: int, src: int) -> int:
    """Fault-tolerant kernel memory read into a program buffer."""
    if size == 0:
        return 0
    if not ctx.mem.in_arena(src, size):
        # probe_read handles faults gracefully: zero the buffer, -EFAULT.
        ctx.mem.checked_write_bytes(dst, b"\x00" * size, who="probe_read")
        return -errno.EFAULT
    ctx.mem.checked_write_bytes(dst, ctx.mem.peek_bytes(src, size), who="probe_read")
    return 0


def _impl_ktime(ctx: HelperContext) -> int:
    ctx.kernel.clock_ns += 1000
    return ctx.kernel.clock_ns


def _impl_trace_printk(ctx: HelperContext, fmt_ptr: int, fmt_size: int, *rest) -> int:
    """``bpf_trace_printk``: Bug #4's lock lives here.

    The helper takes ``trace_printk_lock`` and, while holding it, fires
    the ``bpf_trace_printk`` tracepoint.  A program attached to that
    tracepoint (allowed only in the flawed kernel) re-enters and
    re-acquires the held lock — lockdep reports recursive locking.
    """
    if fmt_size <= 0 or fmt_size > 512:
        return -errno.EINVAL
    ctx.mem.checked_read_bytes(fmt_ptr, fmt_size, who="trace_printk")
    lockdep = ctx.kernel.lockdep
    # Acquiring a contended lock fires contention_begin first — the
    # re-entry vector of Bug #5 (Figure 2).
    ctx.kernel.tracepoints.fire("contention_begin")
    lockdep.acquire(TRACE_PRINTK_LOCK, context=ctx.context_id, in_irq=ctx.in_irq)
    try:
        ctx.kernel.tracepoints.fire("bpf_trace_printk")
    finally:
        lockdep.release(TRACE_PRINTK_LOCK, context=ctx.context_id)
    return fmt_size


def _impl_tail_call(
    ctx: HelperContext, ctx_ptr: int, map_addr: int, index: int
) -> int:
    """``bpf_tail_call`` fallback: the interpreter intercepts the call
    and performs the program switch itself; reaching this body means
    the lookup failed and execution falls through."""
    return -errno.ENOENT


def _impl_prandom(ctx: HelperContext) -> int:
    ctx.kernel.prandom_state = (
        ctx.kernel.prandom_state * 6364136223846793005 + 1442695040888963407
    ) & ((1 << 64) - 1)
    return ctx.kernel.prandom_state >> 33 & 0xFFFFFFFF


def _impl_smp_id(ctx: HelperContext) -> int:
    return 0


def _impl_pid_tgid(ctx: HelperContext) -> int:
    return (4242 << 32) | 4242


def _impl_uid_gid(ctx: HelperContext) -> int:
    return 0


def _impl_get_comm(ctx: HelperContext, buf: int, size: int) -> int:
    if size <= 0:
        return -errno.EINVAL
    comm = b"repro_task\x00"
    data = comm[:size].ljust(size, b"\x00")
    ctx.mem.checked_write_bytes(buf, data, who="get_current_comm")
    return 0


def _impl_get_task(ctx: HelperContext) -> int:
    task = ctx.kernel.btf.object(ctx.kernel.btf.current_task_id)
    return task.address


def _impl_get_task_btf(ctx: HelperContext) -> int:
    return _impl_get_task(ctx)


def _impl_map_push(ctx: HelperContext, map_addr: int, value_ptr: int, flags: int) -> int:
    from repro.errors import MapError

    bpf_map = ctx.map_by_addr(map_addr)
    value = ctx.mem.checked_read_bytes(
        value_ptr, bpf_map.value_size, who="map_push"
    )
    try:
        bpf_map.push(value, flags)
    except MapError as exc:
        return -exc.errno
    except AttributeError:
        return -errno.EINVAL
    return 0


def _impl_map_pop(ctx: HelperContext, map_addr: int, value_ptr: int) -> int:
    from repro.errors import MapError

    bpf_map = ctx.map_by_addr(map_addr)
    try:
        value = bpf_map.pop()
    except MapError as exc:
        return -exc.errno
    except AttributeError:
        return -errno.EINVAL
    ctx.mem.checked_write_bytes(value_ptr, value, who="map_pop")
    return 0


def _impl_map_peek(ctx: HelperContext, map_addr: int, value_ptr: int) -> int:
    from repro.errors import MapError

    bpf_map = ctx.map_by_addr(map_addr)
    try:
        value = bpf_map.peek()
    except MapError as exc:
        return -exc.errno
    except AttributeError:
        return -errno.EINVAL
    ctx.mem.checked_write_bytes(value_ptr, value, who="map_peek")
    return 0


def _impl_spin_lock(ctx: HelperContext, lock_ptr: int) -> int:
    """``bpf_spin_lock``: take the lock embedded in a map value.

    Contention fires ``contention_begin`` first (the Figure-2 re-entry
    vector), then the lock is taken through lockdep so misuse the
    verifier failed to prevent surfaces as indicator #2.
    """
    from repro.kernel.locks import BPF_SPIN_LOCK

    ctx.kernel.tracepoints.fire("contention_begin")
    ctx.kernel.lockdep.acquire(
        BPF_SPIN_LOCK, context=ctx.context_id, in_irq=ctx.in_irq
    )
    ctx.mem.checked_write(lock_ptr, 4, 1, who="spin_lock")
    return 0


def _impl_spin_unlock(ctx: HelperContext, lock_ptr: int) -> int:
    from repro.kernel.locks import BPF_SPIN_LOCK

    ctx.mem.checked_write(lock_ptr, 4, 0, who="spin_unlock")
    ctx.kernel.lockdep.release(BPF_SPIN_LOCK, context=ctx.context_id)
    return 0


def _impl_send_signal(ctx: HelperContext, sig: int) -> int:
    """``bpf_send_signal``: Bug #6's panic site.

    Sending a signal requires taking the task's sighand lock, which is
    fatal from NMI-like contexts.  The fixed verifier refuses the call
    for NMI-context program types; in the flawed kernel the program
    loads and the runtime panics.
    """
    if not 0 < sig < 64:
        return -errno.EINVAL
    if ctx.in_nmi:
        raise KernelPanic(
            "kernel panic: bpf_send_signal from NMI context "
            "(sighand lock in NMI)",
            context={"sig": sig},
        )
    return 0


def _impl_ringbuf_output(
    ctx: HelperContext, map_addr: int, data_ptr: int, size: int, flags: int
) -> int:
    """``bpf_ringbuf_output``: Bug #10's lock misuse lives here.

    The wakeup should be deferred through ``irq_work`` when called from
    irq context; the flawed helper skips the deferral and takes the
    sleeping waitqueue lock inline, which lockdep reports.
    """
    from repro.errors import MapError

    bpf_map = ctx.map_by_addr(map_addr)
    if size <= 0 or size > 4096:
        return -errno.EINVAL
    data = ctx.mem.checked_read_bytes(data_ptr, size, who="ringbuf_output")
    flawed = ctx.config.has_flaw(Flaw.IRQ_WORK_LOCK)
    in_irq = ctx.in_irq and flawed
    # The waitqueue lock is contended: contention_begin fires before
    # the acquisition (Bug #5's re-entry vector).
    ctx.kernel.tracepoints.fire("contention_begin")
    try:
        bpf_map.output(data, in_irq=in_irq)
    except MapError as exc:
        return -exc.errno
    except AttributeError:
        return -errno.EINVAL
    return 0


def _impl_ringbuf_reserve(
    ctx: HelperContext, map_addr: int, size: int, flags: int
) -> int:
    """``bpf_ringbuf_reserve``: hand out a record the program owns.

    The record is a fresh kernel allocation registered with the kernel
    so that submit/discard can resolve it; a full ring (or a bogus
    size) returns NULL, which is why the verifier types the result
    ``OR_NULL`` and demands a null check.
    """
    bpf_map = ctx.map_by_addr(map_addr)
    if size <= 0 or size > 4096 or flags != 0:
        return 0
    if not hasattr(bpf_map, "available") or bpf_map.available() < size:
        return 0
    record = ctx.mem.kzalloc(size, tag="ringbuf_record")
    ctx.kernel.ringbuf_records[record.start] = (record, bpf_map, size)
    return record.start


def _impl_ringbuf_submit(ctx: HelperContext, record_ptr: int, flags: int) -> int:
    """``bpf_ringbuf_submit``: publish and release a reserved record."""
    entry = ctx.kernel.ringbuf_records.pop(record_ptr, None)
    if entry is None:
        # Only reachable past a verifier bug: the runtime refuses.
        return -errno.EINVAL
    record, bpf_map, size = entry
    data = ctx.mem.checked_read_bytes(record.start, size, who="ringbuf_submit")
    from repro.errors import MapError

    try:
        bpf_map.output(data, in_irq=False)
    except MapError:
        pass  # raced to full: the record is dropped, still released
    ctx.mem.kfree(record)
    return 0


def _impl_ringbuf_discard(ctx: HelperContext, record_ptr: int, flags: int) -> int:
    """``bpf_ringbuf_discard``: release a reserved record unpublished."""
    entry = ctx.kernel.ringbuf_records.pop(record_ptr, None)
    if entry is None:
        return -errno.EINVAL
    record, _, _ = entry
    ctx.mem.kfree(record)
    return 0


def _impl_snprintf(
    ctx: HelperContext, out: int, out_size: int, fmt: int, fmt_size: int,
    data: int,
) -> int:
    if out_size <= 0:
        return -errno.EINVAL
    if fmt_size:
        ctx.mem.checked_read_bytes(fmt, fmt_size, who="snprintf-fmt")
    text = b"[repro_snprintf]"[:out_size].ljust(out_size, b"\x00")
    ctx.mem.checked_write_bytes(out, text, who="snprintf")
    return min(len(text), out_size)


def _impl_loop(ctx: HelperContext, nr_loops: int, *rest) -> int:
    # A faithful bpf_loop needs callback verification; we model the
    # iteration count contract only (verifier enforces the bound).
    if nr_loops > 1 << 23:
        return -errno.E2BIG
    return nr_loops


_TRACING_TYPES = frozenset({"kprobe", "tracepoint", "perf_event", "raw_tracepoint"})


def _build_protos() -> dict[int, HelperProto]:
    protos = [
        HelperProto(
            HelperId.MAP_LOOKUP_ELEM,
            "bpf_map_lookup_elem",
            (ArgType.CONST_MAP_PTR, ArgType.PTR_TO_MAP_KEY),
            RetType.PTR_TO_MAP_VALUE_OR_NULL,
            _impl_map_lookup,
            map_types=_KEYED_MAPS,
        ),
        HelperProto(
            HelperId.MAP_UPDATE_ELEM,
            "bpf_map_update_elem",
            (
                ArgType.CONST_MAP_PTR,
                ArgType.PTR_TO_MAP_KEY,
                ArgType.PTR_TO_MAP_VALUE,
                ArgType.ANYTHING,
            ),
            RetType.INTEGER,
            _impl_map_update,
            map_types=_KEYED_MAPS,
        ),
        HelperProto(
            HelperId.MAP_DELETE_ELEM,
            "bpf_map_delete_elem",
            (ArgType.CONST_MAP_PTR, ArgType.PTR_TO_MAP_KEY),
            RetType.INTEGER,
            _impl_map_delete,
            map_types=_DELETE_MAPS,
        ),
        HelperProto(
            HelperId.TAIL_CALL,
            "bpf_tail_call",
            (ArgType.PTR_TO_CTX, ArgType.CONST_MAP_PTR, ArgType.ANYTHING),
            RetType.INTEGER,
            _impl_tail_call,
            map_types=_PROG_ARRAY_MAPS,
        ),
        HelperProto(
            HelperId.PROBE_READ,
            "bpf_probe_read",
            (ArgType.PTR_TO_UNINIT_MEM, ArgType.CONST_SIZE_OR_ZERO, ArgType.ANYTHING),
            RetType.INTEGER,
            _impl_probe_read,
            prog_types=_TRACING_TYPES,
        ),
        HelperProto(
            HelperId.KTIME_GET_NS,
            "bpf_ktime_get_ns",
            (),
            RetType.INTEGER,
            _impl_ktime,
        ),
        HelperProto(
            HelperId.TRACE_PRINTK,
            "bpf_trace_printk",
            (ArgType.PTR_TO_MEM, ArgType.CONST_SIZE),
            RetType.INTEGER,
            _impl_trace_printk,
            acquires_lock=True,
            prog_types=_TRACING_TYPES,
        ),
        HelperProto(
            HelperId.GET_PRANDOM_U32,
            "bpf_get_prandom_u32",
            (),
            RetType.INTEGER,
            _impl_prandom,
        ),
        HelperProto(
            HelperId.GET_SMP_PROCESSOR_ID,
            "bpf_get_smp_processor_id",
            (),
            RetType.INTEGER,
            _impl_smp_id,
        ),
        HelperProto(
            HelperId.GET_CURRENT_PID_TGID,
            "bpf_get_current_pid_tgid",
            (),
            RetType.INTEGER,
            _impl_pid_tgid,
            prog_types=_TRACING_TYPES,
        ),
        HelperProto(
            HelperId.GET_CURRENT_UID_GID,
            "bpf_get_current_uid_gid",
            (),
            RetType.INTEGER,
            _impl_uid_gid,
            prog_types=_TRACING_TYPES,
        ),
        HelperProto(
            HelperId.GET_CURRENT_COMM,
            "bpf_get_current_comm",
            (ArgType.PTR_TO_UNINIT_MEM, ArgType.CONST_SIZE),
            RetType.INTEGER,
            _impl_get_comm,
            prog_types=_TRACING_TYPES,
        ),
        HelperProto(
            HelperId.GET_CURRENT_TASK,
            "bpf_get_current_task",
            (),
            RetType.INTEGER,
            _impl_get_task,
            prog_types=_TRACING_TYPES,
        ),
        HelperProto(
            HelperId.MAP_PUSH_ELEM,
            "bpf_map_push_elem",
            (ArgType.CONST_MAP_PTR, ArgType.PTR_TO_MAP_VALUE, ArgType.ANYTHING),
            RetType.INTEGER,
            _impl_map_push,
            map_types=_QUEUE_STACK_MAPS,
        ),
        HelperProto(
            HelperId.MAP_POP_ELEM,
            "bpf_map_pop_elem",
            (ArgType.CONST_MAP_PTR, ArgType.PTR_TO_UNINIT_MAP_VALUE),
            RetType.INTEGER,
            _impl_map_pop,
            map_types=_QUEUE_STACK_MAPS,
        ),
        HelperProto(
            HelperId.MAP_PEEK_ELEM,
            "bpf_map_peek_elem",
            (ArgType.CONST_MAP_PTR, ArgType.PTR_TO_UNINIT_MAP_VALUE),
            RetType.INTEGER,
            _impl_map_peek,
            map_types=_QUEUE_STACK_MAPS,
        ),
        HelperProto(
            HelperId.SPIN_LOCK,
            "bpf_spin_lock",
            (ArgType.PTR_TO_SPIN_LOCK,),
            RetType.VOID,
            _impl_spin_lock,
            acquires_lock=True,
        ),
        HelperProto(
            HelperId.SPIN_UNLOCK,
            "bpf_spin_unlock",
            (ArgType.PTR_TO_SPIN_LOCK,),
            RetType.VOID,
            _impl_spin_unlock,
        ),
        HelperProto(
            HelperId.SEND_SIGNAL,
            "bpf_send_signal",
            (ArgType.ANYTHING,),
            RetType.INTEGER,
            _impl_send_signal,
            nmi_unsafe=True,
            prog_types=_TRACING_TYPES,
        ),
        HelperProto(
            HelperId.PROBE_READ_KERNEL,
            "bpf_probe_read_kernel",
            (ArgType.PTR_TO_UNINIT_MEM, ArgType.CONST_SIZE_OR_ZERO, ArgType.ANYTHING),
            RetType.INTEGER,
            _impl_probe_read,
            prog_types=_TRACING_TYPES,
        ),
        HelperProto(
            HelperId.RINGBUF_OUTPUT,
            "bpf_ringbuf_output",
            (
                ArgType.CONST_MAP_PTR,
                ArgType.PTR_TO_MEM,
                ArgType.CONST_SIZE,
                ArgType.ANYTHING,
            ),
            RetType.INTEGER,
            _impl_ringbuf_output,
            acquires_lock=True,
            map_types=_RINGBUF_MAPS,
        ),
        HelperProto(
            HelperId.RINGBUF_RESERVE,
            "bpf_ringbuf_reserve",
            (ArgType.CONST_MAP_PTR, ArgType.CONST_ALLOC_SIZE, ArgType.ANYTHING),
            RetType.PTR_TO_ALLOC_MEM_OR_NULL,
            _impl_ringbuf_reserve,
            acquires_ref=True,
            map_types=_RINGBUF_MAPS,
        ),
        HelperProto(
            HelperId.RINGBUF_SUBMIT,
            "bpf_ringbuf_submit",
            (ArgType.PTR_TO_ALLOC_MEM, ArgType.ANYTHING),
            RetType.VOID,
            _impl_ringbuf_submit,
            releases_ref=True,
        ),
        HelperProto(
            HelperId.RINGBUF_DISCARD,
            "bpf_ringbuf_discard",
            (ArgType.PTR_TO_ALLOC_MEM, ArgType.ANYTHING),
            RetType.VOID,
            _impl_ringbuf_discard,
            releases_ref=True,
        ),
        HelperProto(
            HelperId.GET_CURRENT_TASK_BTF,
            "bpf_get_current_task_btf",
            (),
            RetType.PTR_TO_BTF_ID,
            _impl_get_task_btf,
            prog_types=_TRACING_TYPES,
            feature="has_btf_access",
        ),
        HelperProto(
            HelperId.SNPRINTF,
            "bpf_snprintf",
            (
                ArgType.PTR_TO_UNINIT_MEM,
                ArgType.CONST_SIZE,
                ArgType.PTR_TO_MEM,
                ArgType.CONST_SIZE_OR_ZERO,
                ArgType.ANYTHING,
            ),
            RetType.INTEGER,
            _impl_snprintf,
            feature="has_bpf_loop",
        ),
        HelperProto(
            HelperId.LOOP,
            "bpf_loop",
            (ArgType.ANYTHING, ArgType.ANYTHING, ArgType.ANYTHING, ArgType.ANYTHING),
            RetType.INTEGER,
            _impl_loop,
            feature="has_bpf_loop",
        ),
    ]
    return {int(p.helper_id): p for p in protos}


#: Every helper, built once per process.  Protos are frozen and their
#: ``impl``s are module functions, so kernels share them; the mapping
#: is read-only so no kernel can change another's helpers.
_PROTOS: Mapping[int, HelperProto] = MappingProxyType(_build_protos())


class HelperRegistry:
    """Per-kernel view of the helper table, filtered by the version's
    feature set when a helper is looked up.

    Filtering at lookup rather than at boot means a kernel reads a
    feature field only when something asks for a helper gated on it,
    so a boot reads no config at all.
    """

    def __init__(self, config: KernelConfig) -> None:
        self.config = config

    def _offers(self, proto: HelperProto) -> bool:
        return proto.feature is None or getattr(self.config, proto.feature)

    def get(self, helper_id: int) -> HelperProto | None:
        proto = _PROTOS.get(helper_id)
        if proto is None or not self._offers(proto):
            return None
        return proto

    def ids(self) -> list[int]:
        return sorted(hid for hid, p in _PROTOS.items() if self._offers(p))

    def ids_for_prog_type(self, prog_type: str) -> list[int]:
        """Helper ids callable from programs of the given type."""
        return sorted(
            hid for hid, p in _PROTOS.items()
            if (p.prog_types is None or prog_type in p.prog_types)
            and self._offers(p)
        )

    def lock_acquiring_ids(self) -> frozenset[int]:
        return frozenset(
            hid for hid, p in _PROTOS.items()
            if p.acquires_lock and self._offers(p)
        )
