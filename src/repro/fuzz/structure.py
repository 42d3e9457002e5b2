"""Generation-time program model: register tags, resources, plans.

The paper's key generation insight is that eBPF programs decompose
into fundamental sections (Figure 4), and that tracking *approximate*
register knowledge while emitting instructions lets the generator
synthesise operations that are usually valid — which is exactly what
raises the verifier acceptance rate without sacrificing expressiveness.

:class:`GenState` is that approximate tracker.  It is *much* coarser
than the verifier's abstract state (tags, not bounds), which is the
point: the generator needs just enough knowledge to pick plausible
operands, and residual mismatches are healthy — they probe the
verifier's rejection paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ebpf.insn import Insn
from repro.ebpf.maps import BpfMap
from repro.ebpf.program import ProgType

__all__ = ["RegTag", "GenState", "ExecutionPlan", "GeneratedProgram"]


@dataclass
class RegTag:
    """Approximate knowledge about one register during generation."""

    kind: str = "uninit"
    #: the map behind map_ptr / map_value tags
    map: BpfMap | None = None
    #: known constant value, when kind == 'const'
    const: int | None = None
    #: for 'stack' pointers: offset from the frame pointer
    stack_off: int = 0
    #: for 'pkt' pointers: bytes proven readable
    pkt_len: int = 0
    #: for 'btf' pointers: object size
    btf_size: int = 0
    #: for 'scalar' values known to be small/bounded: inclusive max
    bounded_max: int | None = None

    POINTER_KINDS = frozenset(
        {"map_ptr", "map_value", "map_value_or_null", "stack", "ctx", "btf",
         "pkt", "pkt_end"}
    )

    def is_pointer(self) -> bool:
        return self.kind in self.POINTER_KINDS

    def is_scalarish(self) -> bool:
        return self.kind in ("scalar", "const")

    def usable(self) -> bool:
        return self.kind not in ("uninit", "poison")

    def clone(self) -> "RegTag":
        # A __dict__ copy skips the generated __init__ that
        # ``dataclasses.replace`` re-runs: about 4x cheaper.
        new = object.__new__(RegTag)
        new.__dict__.update(self.__dict__)
        return new


@dataclass
class GenState:
    """Mutable state threaded through structured generation."""

    prog_type: ProgType
    tags: list[RegTag] = field(default_factory=lambda: [RegTag() for _ in range(11)])
    #: 8-byte-aligned stack slots (negative offsets) known initialised
    stack_inited: set[int] = field(default_factory=set)
    insns: list[Insn] = field(default_factory=list)
    #: maps created for this program, in creation order
    maps: list[BpfMap] = field(default_factory=list)
    #: loadable BTF object ids
    btf_ids: list[int] = field(default_factory=list)
    #: pending bpf-to-bpf subprogram bodies (emitted at finalisation)
    subprogs: list[list[Insn]] = field(default_factory=list)
    #: call sites awaiting subprog offsets: insn index -> subprog index
    subprog_calls: dict[int, int] = field(default_factory=dict)

    def emit(self, *insns: Insn) -> None:
        self.insns.extend(insns)

    def tag(self, regno: int) -> RegTag:
        return self.tags[regno]

    def set_tag(self, regno: int, tag: RegTag) -> None:
        self.tags[regno] = tag

    def regs_with(self, *kinds: str) -> list[int]:
        """Registers (R0-R9) currently holding one of the given kinds."""
        return [r for r in range(10) if self.tags[r].kind in kinds]

    def scratch_regs(self) -> list[int]:
        """Registers safe to clobber (no precious pointer state)."""
        return [
            r
            for r in range(10)
            if self.tags[r].kind in ("uninit", "scalar", "const", "poison")
        ]

    def snapshot_tags(self) -> list[RegTag]:
        return [t.clone() for t in self.tags]

    def merge_tags(self, other: list[RegTag]) -> None:
        """Join tags after a conditionally-executed body.

        Registers whose knowledge diverged between the two paths are
        poisoned — the generator will not rely on them again, which
        keeps both verifier paths type-consistent.
        """
        for r in range(11):
            a, b = self.tags[r], other[r]
            if a.kind != b.kind or a.map is not b.map or a.const != b.const:
                if a.is_scalarish() and b.is_scalarish():
                    self.tags[r] = RegTag(kind="scalar")
                else:
                    self.tags[r] = RegTag(kind="poison")

    def clobber_caller_saved(self) -> None:
        """Helper calls kill R0-R5."""
        for r in range(6):
            self.tags[r] = RegTag(kind="uninit")


@dataclass
class ExecutionPlan:
    """What the campaign does with the program once it loads.

    Mirrors the breadth of a real fuzzing executor: direct test runs,
    tracepoint attachment + triggering, dispatcher routing for XDP,
    user-space map traffic, and info queries.
    """

    #: tracepoint to attach to (tracing program types only)
    attach_tracepoint: str | None = None
    #: route through the BPF dispatcher (XDP only; Bug #7 surface)
    use_dispatcher: bool = False
    #: direct test-run triggers
    n_runs: int = 1
    #: user-space map operations: ('update'|'lookup'|'delete'|'iterate', key)
    map_ops: list[tuple[str, bytes]] = field(default_factory=list)
    #: query xlated instructions afterwards (Bug #8 surface)
    query_info: bool = False


@dataclass
class GeneratedProgram:
    """A generated program plus the resources and plan around it."""

    insns: list[Insn]
    prog_type: ProgType
    maps: list[BpfMap]
    plan: ExecutionPlan
    #: generator that produced it (for statistics)
    origin: str = "bvf"
    #: request device offload at load time (Bug #11 surface)
    offload_dev: str | None = None
    #: Figure-4 frame kinds emitted, in order ("basic"/"jump"/"call";
    #: "flat" for unstructured emission).  Empty for generators that
    #: do not use the structure — the rejection taxonomy buckets those
    #: by origin instead.
    frame_kinds: tuple[str, ...] = ()
