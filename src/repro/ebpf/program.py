"""eBPF program objects, program types, and context descriptors.

A :class:`BpfProgram` is what user space submits to the ``bpf()``
syscall: raw slot-form instructions plus a program type.  The program
type determines the *context* layout (what R1 points at on entry),
which helpers are callable, where the program can attach, and in what
kernel context (irq / NMI) it will run — all of which the verifier
checks and several Table-2 bugs abuse.

A :class:`VerifiedProgram` is the verifier's output: the rewritten
("xlated") instruction stream, per-instruction rewrite metadata the
runtime honours (PROBE_MEM fault handling, ``alu_limit`` annotations,
sanitizer dispatch sites), and summary facts the attach layer consults
(lock-acquiring helpers used, referenced maps).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ebpf.insn import Insn

__all__ = [
    "ProgType",
    "AttachType",
    "CtxField",
    "ContextDescriptor",
    "BpfProgram",
    "VerifiedProgram",
    "CONTEXTS",
]


class ProgType(enum.Enum):
    """Program types (subset of ``enum bpf_prog_type``)."""

    SOCKET_FILTER = "socket_filter"
    KPROBE = "kprobe"
    SCHED_CLS = "sched_cls"
    XDP = "xdp"
    TRACEPOINT = "tracepoint"
    PERF_EVENT = "perf_event"
    RAW_TRACEPOINT = "raw_tracepoint"


class AttachType(enum.Enum):
    """Where a loaded program is mounted."""

    SOCKET = "socket"
    KPROBE = "kprobe"
    TRACEPOINT = "tracepoint"
    PERF_EVENT = "perf_event"
    XDP_DEVICE = "xdp_device"
    TC_INGRESS = "tc_ingress"


#: Program types whose handlers run in (soft)irq-like context.
IRQ_CONTEXT_TYPES = frozenset({ProgType.KPROBE, ProgType.XDP, ProgType.SCHED_CLS})

#: Program types whose handlers run in NMI-like context (Bug #6).
NMI_CONTEXT_TYPES = frozenset({ProgType.PERF_EVENT})


@dataclass(frozen=True)
class CtxField:
    """One accessible field of a program-type context."""

    name: str
    offset: int
    size: int
    readable: bool = True
    writable: bool = False
    #: 'pkt_data' / 'pkt_end' / 'pkt_meta' fields yield packet pointers
    special: str | None = None

    @property
    def end(self) -> int:
        return self.offset + self.size


@dataclass(frozen=True)
class ContextDescriptor:
    """Access rules for one program type's context structure."""

    name: str
    size: int
    fields: tuple[CtxField, ...]
    #: tracepoint-style contexts allow aligned reads anywhere
    raw_readable: bool = False

    def field_covering(self, offset: int, size: int) -> CtxField | None:
        """The field fully containing ``[offset, offset+size)``, if any."""
        for f in self.fields:
            if f.offset <= offset and offset + size <= f.end:
                return f
        return None

    def check_access(
        self, offset: int, size: int, is_write: bool
    ) -> tuple[bool, CtxField | None, str]:
        """Verifier-side context access validation.

        Returns ``(ok, field, reason)``.  Special (packet-pointer)
        fields require exact-size reads, mirroring the kernel's
        ``is_valid_access`` callbacks.
        """
        if offset < 0 or offset + size > self.size:
            return False, None, f"ctx access out of range [{offset}, +{size})"
        f = self.field_covering(offset, size)
        if f is None:
            if self.raw_readable and not is_write:
                return True, None, ""
            return False, None, f"ctx offset {offset} is not an accessible field"
        if f.special is not None:
            if is_write:
                return False, f, f"ctx field {f.name} is read-only"
            if offset != f.offset or size != f.size:
                return False, f, f"ctx field {f.name} requires exact-size load"
            return True, f, ""
        if is_write and not f.writable:
            return False, f, f"ctx field {f.name} is read-only"
        if not is_write and not f.readable:
            return False, f, f"ctx field {f.name} is not readable"
        return True, f, ""


_SK_BUFF = ContextDescriptor(
    name="__sk_buff",
    size=192,
    fields=(
        CtxField("len", 0, 4),
        CtxField("pkt_type", 4, 4),
        CtxField("mark", 8, 4, writable=True),
        CtxField("queue_mapping", 12, 4),
        CtxField("protocol", 16, 4),
        CtxField("vlan_present", 20, 4),
        CtxField("priority", 32, 4, writable=True),
        CtxField("ingress_ifindex", 36, 4),
        CtxField("ifindex", 40, 4),
        CtxField("hash", 48, 4),
        CtxField("cb0", 52, 4, writable=True),
        CtxField("cb1", 56, 4, writable=True),
        CtxField("cb2", 60, 4, writable=True),
        CtxField("cb3", 64, 4, writable=True),
        CtxField("cb4", 68, 4, writable=True),
        CtxField("data", 76, 4, special="pkt_data"),
        CtxField("data_end", 80, 4, special="pkt_end"),
    ),
)

_XDP_MD = ContextDescriptor(
    name="xdp_md",
    size=24,
    fields=(
        CtxField("data", 0, 4, special="pkt_data"),
        CtxField("data_end", 4, 4, special="pkt_end"),
        CtxField("data_meta", 8, 4, special="pkt_meta"),
        CtxField("ingress_ifindex", 12, 4),
        CtxField("rx_queue_index", 16, 4),
        CtxField("egress_ifindex", 20, 4),
    ),
)

_PT_REGS = ContextDescriptor(
    name="pt_regs",
    size=168,
    fields=tuple(
        CtxField(f"reg{i}", i * 8, 8) for i in range(21)
    ),
)

_TRACEPOINT_CTX = ContextDescriptor(
    name="tracepoint_ctx",
    size=64,
    fields=(),
    raw_readable=True,
)

_PERF_EVENT_CTX = ContextDescriptor(
    name="bpf_perf_event_data",
    size=32,
    fields=(
        CtxField("sample_period", 0, 8),
        CtxField("addr", 8, 8),
        CtxField("regs_ip", 16, 8),
        CtxField("regs_sp", 24, 8),
    ),
)

#: Context descriptor for each program type.
CONTEXTS: dict[ProgType, ContextDescriptor] = {
    ProgType.SOCKET_FILTER: _SK_BUFF,
    ProgType.SCHED_CLS: _SK_BUFF,
    ProgType.XDP: _XDP_MD,
    ProgType.KPROBE: _PT_REGS,
    ProgType.TRACEPOINT: _TRACEPOINT_CTX,
    ProgType.RAW_TRACEPOINT: _TRACEPOINT_CTX,
    ProgType.PERF_EVENT: _PERF_EVENT_CTX,
}

#: Program types that may use direct packet access.
PACKET_ACCESS_TYPES = frozenset(
    {ProgType.SOCKET_FILTER, ProgType.SCHED_CLS, ProgType.XDP}
)


@dataclass
class BpfProgram:
    """A program as submitted by user space (pre-verification)."""

    insns: list[Insn]
    prog_type: ProgType = ProgType.SOCKET_FILTER
    name: str = "prog"
    license: str = "GPL"
    #: device-offload request; Bug #11 runs such programs on the host
    offload_dev: str | None = None

    @property
    def context(self) -> ContextDescriptor:
        return CONTEXTS[self.prog_type]

    def __len__(self) -> int:
        return len(self.insns)


@dataclass
class VerifiedProgram:
    """The verifier's output: xlated instructions plus rewrite metadata."""

    prog: BpfProgram
    #: rewritten instruction stream actually executed
    xlated: list[Insn]
    #: slot indices of loads rewritten to fault-handled PROBE_MEM
    probe_mem: set[int] = field(default_factory=set)
    #: alu_limit annotations: slot index -> (limit, alu_op, sign)
    alu_limits: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    #: slot indices belonging to sanitizer-inserted dispatch sequences
    sanitizer_insns: set[int] = field(default_factory=set)
    #: slot indices of original insns the sanitizer instrumented
    sanitized_sites: set[int] = field(default_factory=set)
    #: final index of each sanitizer call -> SanitizeSite metadata
    sanitizer_meta: dict = field(default_factory=dict)
    #: xlated slot index -> original slot index (for triage)
    orig_index: dict = field(default_factory=dict)
    #: map addresses referenced via ld_map_fd (after fixup, by slot)
    map_addrs: dict[int, int] = field(default_factory=dict)
    #: helper ids called anywhere in the program
    helper_ids: set[int] = field(default_factory=set)
    #: stack bytes used (negative offsets from R10)
    stack_depth: int = 0
    #: whether any called helper acquires kernel locks (bugs #4/#5)
    uses_lock_helpers: bool = False
    #: verifier statistics (insns processed, states explored...)
    stats: dict[str, int] = field(default_factory=dict)
    #: whether sanitation instrumentation was applied
    sanitized: bool = False
    #: the abstract R0 (a ``RegState``) of every path that left the
    #: program, in exploration order: the differential oracle's range
    #: fingerprint material (:mod:`repro.analysis.differential`)
    exit_r0: list = field(default_factory=list)

    @property
    def prog_type(self) -> ProgType:
        return self.prog.prog_type

    @property
    def name(self) -> str:
        return self.prog.name

    def __len__(self) -> int:
        return len(self.xlated)
