"""Minimal BTF (BPF Type Format) model.

BTF gives eBPF programs typed access to kernel objects: a program can
load the address of a kernel symbol by BTF id (``BPF_PSEUDO_BTF_ID``),
receive ``PTR_TO_BTF_ID`` pointers from helpers such as
``bpf_get_current_task_btf``, and call *kfuncs* (kernel functions
exported to BPF) by BTF id.

Two properties of BTF pointers are load-bearing for the paper:

1. ``PTR_TO_BTF_ID`` is **never marked maybe_null** by the verifier —
   loads through it are rewritten to fault-handled ``PROBE_MEM``
   accesses, so a null such pointer is "safe".  Bug #1 exploits this:
   nullness propagated *from* a BTF pointer to a genuinely nullable map
   pointer lets a real null dereference through.
2. BTF objects have a definite size the verifier checks field accesses
   against; Bug #2 is an off-by-N in that bounds check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.kasan import Allocation, KernelMemory

__all__ = ["BtfField", "BtfType", "BtfObject", "BtfRegistry", "TASK_STRUCT"]


@dataclass(frozen=True)
class BtfField:
    """One field of a BTF struct type."""

    name: str
    offset: int
    size: int
    #: name of the BTF type this field points to, if it is a pointer
    points_to: str | None = None


@dataclass(frozen=True)
class BtfType:
    """A kernel struct type described by BTF."""

    name: str
    size: int
    fields: tuple[BtfField, ...] = ()

    def field_at(self, offset: int) -> BtfField | None:
        for f in self.fields:
            if f.offset <= offset < f.offset + f.size:
                return f
        return None


# A drastically slimmed-down task_struct: enough fields for interesting
# generated accesses, with a definite size for bounds checking.
TASK_STRUCT = BtfType(
    name="task_struct",
    size=128,
    fields=(
        BtfField("state", 0, 8),
        BtfField("stack", 8, 8, points_to="thread_info"),
        BtfField("flags", 16, 4),
        BtfField("cpu", 20, 4),
        BtfField("prio", 24, 4),
        BtfField("static_prio", 28, 4),
        BtfField("pid", 32, 4),
        BtfField("tgid", 36, 4),
        BtfField("parent", 40, 8, points_to="task_struct"),
        BtfField("group_leader", 48, 8, points_to="task_struct"),
        BtfField("utime", 56, 8),
        BtfField("stime", 64, 8),
        BtfField("comm", 72, 16),
        BtfField("files", 88, 8, points_to="file"),
        BtfField("start_time", 96, 8),
        BtfField("exit_code", 104, 4),
        BtfField("exit_state", 108, 4),
        BtfField("nr_cpus_allowed", 112, 4),
        BtfField("policy", 116, 4),
        BtfField("rt_priority", 120, 4),
        BtfField("seccomp_mode", 124, 4),
    ),
)

THREAD_INFO = BtfType(
    name="thread_info",
    size=32,
    fields=(
        BtfField("flags", 0, 8),
        BtfField("status", 8, 4),
        BtfField("cpu_id", 12, 4),
        BtfField("preempt_count", 16, 4),
    ),
)

FILE = BtfType(
    name="file",
    size=64,
    fields=(
        BtfField("f_mode", 0, 4),
        BtfField("f_flags", 4, 4),
        BtfField("f_pos", 8, 8),
        BtfField("f_count", 16, 8),
        BtfField("f_inode", 24, 8, points_to="inode"),
    ),
)

INODE = BtfType(
    name="inode",
    size=96,
    fields=(
        BtfField("i_mode", 0, 4),
        BtfField("i_uid", 4, 4),
        BtfField("i_gid", 8, 4),
        BtfField("i_ino", 16, 8),
        BtfField("i_size", 24, 8),
        BtfField("i_nlink", 32, 4),
    ),
)

_BUILTIN_TYPES = (TASK_STRUCT, THREAD_INFO, FILE, INODE)


@dataclass
class BtfObject:
    """A kernel object reachable by BTF id.

    ``maybe_absent`` models per-cpu or conditionally-initialised ksyms
    that resolve to NULL at runtime on some paths — the runtime-null
    BTF pointer at the heart of Bug #1 (Listing 2's ``r6``).
    """

    btf_id: int
    type: BtfType
    allocation: Allocation | None
    maybe_absent: bool = False

    @property
    def address(self) -> int:
        return self.allocation.start if self.allocation else 0


class BtfRegistry:
    """BTF ids -> kernel types and instantiated objects."""

    def __init__(self, mem: KernelMemory) -> None:
        self.mem = mem
        self._types: dict[str, BtfType] = {t.name: t for t in _BUILTIN_TYPES}
        self._objects: dict[int, BtfObject] = {}
        self._next_id = 1
        self._bootstrap()

    def _bootstrap(self) -> None:
        # The current task: always present, and the object the
        # get_current_task_btf helper hands out.
        self.current_task_id = self.instantiate("task_struct")
        task = self.object(self.current_task_id)
        self.mem.checked_write(task.address + 32, 4, 4242, who="btf-init")  # pid
        self.mem.checked_write_bytes(
            task.address + 72, b"repro_task\x00\x00\x00\x00\x00\x00", who="btf-init"
        )
        # A conditionally-present percpu-style ksym: the verifier treats
        # its address as PTR_TO_BTF_ID, but it is NULL at runtime.
        self.absent_ksym_id = self.register_absent("thread_info")
        # A normally-present ksym object.
        self.file_ksym_id = self.instantiate("file")

    # --- types -----------------------------------------------------------

    def type_by_name(self, name: str) -> BtfType | None:
        return self._types.get(name)

    # --- objects -----------------------------------------------------------

    def instantiate(self, type_name: str, maybe_absent: bool = False) -> int:
        """Allocate a kernel object of the given type; returns its BTF id."""
        btf_type = self._types[type_name]
        alloc = self.mem.kzalloc(btf_type.size, tag=f"btf:{type_name}")
        btf_id = self._next_id
        self._next_id += 1
        self._objects[btf_id] = BtfObject(
            btf_id=btf_id,
            type=btf_type,
            allocation=alloc,
            maybe_absent=maybe_absent,
        )
        return btf_id

    def register_absent(self, type_name: str) -> int:
        """Register a ksym of the given type that is NULL at runtime."""
        btf_type = self._types[type_name]
        btf_id = self._next_id
        self._next_id += 1
        self._objects[btf_id] = BtfObject(
            btf_id=btf_id, type=btf_type, allocation=None, maybe_absent=True
        )
        return btf_id

    def object(self, btf_id: int) -> BtfObject | None:
        return self._objects.get(btf_id)

    def ids(self) -> list[int]:
        return sorted(self._objects)

    def loadable_ids(self) -> list[int]:
        """BTF ids a program may reference via ``BPF_PSEUDO_BTF_ID``."""
        return sorted(self._objects)
