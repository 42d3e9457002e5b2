"""eBPF map data structures backed by simulated kernel memory.

Maps are the main data plane between eBPF programs, the kernel, and
user space.  Their values live in :class:`~repro.kernel.kasan.KernelMemory`
allocations, so a verifier correctness bug that admits an out-of-bounds
access into a map value is *physically* out of bounds here — silently
corrupting neighbouring arena bytes on the raw (JIT) path and trapping
on the checked (sanitized) path, exactly as in the paper.

Layout realism that matters to the oracle:

- **Array maps** store all values in one contiguous allocation, like
  the kernel: overflowing one element into the next is silent even
  under KASAN, but overflowing the whole array hits the redzone.
- **Hash maps** allocate each element separately, like the kernel:
  any overflow of a value leaves the allocation and is detectable.
- Hash maps carry a real bucket array whose iteration hosts Bug #9.
"""

from __future__ import annotations

import enum
import errno

from repro.errors import MapError
from repro.kernel.config import Flaw, KernelConfig
from repro.kernel.kasan import Allocation, KernelMemory
from repro.kernel.lockdep import Lockdep
from repro.kernel.locks import HTAB_BUCKET_LOCK, RINGBUF_LOCK

__all__ = [
    "MapType",
    "MapFlags",
    "BpfMap",
    "ArrayMap",
    "HashMap",
    "QueueMap",
    "StackMap",
    "RingbufMap",
    "create_map",
]


class MapType(enum.IntEnum):
    """Map type ids (subset of ``enum bpf_map_type``)."""

    HASH = 1
    ARRAY = 2
    PROG_ARRAY = 3
    PERCPU_HASH = 5
    PERCPU_ARRAY = 6
    LRU_HASH = 9
    QUEUE = 22
    STACK = 23
    RINGBUF = 27


class MapFlags(enum.IntEnum):
    """Update flags for ``map_update_elem``."""

    ANY = 0
    NOEXIST = 1
    EXIST = 2


def _round_up_pow2(n: int) -> int:
    result = 1
    while result < n:
        result *= 2
    return result


class BpfMap:
    """Common map behaviour: parameter validation and value access.

    Subclasses implement the four classic operations.  ``lookup``
    returns the *kernel address* of the value (what the real
    ``bpf_map_lookup_elem`` helper returns to programs); the syscall
    layer copies bytes in and out on behalf of user space.
    """

    map_type: MapType

    #: byte offset and size of the embedded bpf_spin_lock, when present
    SPIN_LOCK_OFF = 0
    SPIN_LOCK_SIZE = 4
    #: class default for subclasses that bypass the base initialiser
    has_spin_lock = False

    def __init__(
        self,
        mem: KernelMemory,
        key_size: int,
        value_size: int,
        max_entries: int,
        lockdep: Lockdep | None = None,
        config: KernelConfig | None = None,
        has_spin_lock: bool = False,
    ) -> None:
        self.validate_params(key_size, value_size, max_entries)
        if has_spin_lock and value_size < self.SPIN_LOCK_SIZE:
            raise MapError(
                errno.EINVAL, "value too small for an embedded spin lock"
            )
        self.mem = mem
        self.key_size = key_size
        self.value_size = value_size
        self.max_entries = max_entries
        self.lockdep = lockdep
        self.config = config
        self.has_spin_lock = has_spin_lock
        self.fd = -1  # assigned by the syscall layer

    # --- parameter validation ---------------------------------------------

    @classmethod
    def validate_params(cls, key_size: int, value_size: int, max_entries: int) -> None:
        if key_size <= 0 or key_size > 512:
            raise MapError(errno.EINVAL, f"invalid key_size {key_size}")
        if value_size <= 0 or value_size > 1 << 20:
            raise MapError(errno.EINVAL, f"invalid value_size {value_size}")
        if max_entries <= 0 or max_entries > 1 << 20:
            raise MapError(errno.EINVAL, f"invalid max_entries {max_entries}")

    def _check_key(self, key: bytes) -> None:
        if len(key) != self.key_size:
            raise MapError(
                errno.EINVAL,
                f"key size {len(key)} != map key_size {self.key_size}",
            )

    def _check_value(self, value: bytes) -> None:
        if len(value) != self.value_size:
            raise MapError(
                errno.EINVAL,
                f"value size {len(value)} != map value_size {self.value_size}",
            )

    # --- operations (overridden) ---------------------------------------------

    def lookup(self, key: bytes) -> int | None:
        """Kernel address of the value for ``key``, or None."""
        raise NotImplementedError

    def update(self, key: bytes, value: bytes, flags: int = MapFlags.ANY) -> None:
        raise NotImplementedError

    def delete(self, key: bytes) -> None:
        raise NotImplementedError

    def get_next_key(self, key: bytes | None) -> bytes:
        """Iteration primitive behind ``bpf_map_get_next_key``."""
        raise NotImplementedError

    # --- shared helpers ----------------------------------------------------------

    def read_value(self, key: bytes) -> bytes | None:
        """Copy the value bytes out (syscall-side convenience)."""
        addr = self.lookup(key)
        if addr is None:
            return None
        return self.mem.checked_read_bytes(addr, self.value_size, who="map-read")


class ArrayMap(BpfMap):
    """BPF_MAP_TYPE_ARRAY: u32 keys, one contiguous value region."""

    map_type = MapType.ARRAY

    def __init__(self, mem, key_size, value_size, max_entries, **kwargs) -> None:
        if key_size != 4:
            raise MapError(errno.EINVAL, "array map key_size must be 4")
        super().__init__(mem, key_size, value_size, max_entries, **kwargs)
        self._values = mem.kzalloc(
            value_size * max_entries, tag=f"array_map[{max_entries}x{value_size}]"
        )

    def _index(self, key: bytes) -> int:
        self._check_key(key)
        return int.from_bytes(key, "little")

    def lookup(self, key: bytes) -> int | None:
        index = self._index(key)
        if index >= self.max_entries:
            return None
        return self._values.start + index * self.value_size

    def update(self, key: bytes, value: bytes, flags: int = MapFlags.ANY) -> None:
        self._check_value(value)
        index = self._index(key)
        if index >= self.max_entries:
            raise MapError(errno.E2BIG, f"array index {index} out of range")
        if flags == MapFlags.NOEXIST:
            raise MapError(errno.EEXIST, "array elements always exist")
        addr = self._values.start + index * self.value_size
        self.mem.checked_write_bytes(addr, value, who="array-update")

    def delete(self, key: bytes) -> None:
        raise MapError(errno.EINVAL, "array map elements cannot be deleted")

    def get_next_key(self, key: bytes | None) -> bytes:
        index = -1 if key is None else self._index(key)
        nxt = index + 1
        if nxt >= self.max_entries:
            raise MapError(errno.ENOENT, "iteration finished")
        return nxt.to_bytes(4, "little")


class HashMap(BpfMap):
    """BPF_MAP_TYPE_HASH: per-element allocations and a bucket array.

    The bucket array exists so Bug #9 has something real to overflow:
    in the flawed lock-acquire-failure path of ``get_next_key`` the
    iterator walks one bucket past the end, and since map code is
    "compiled with KASAN" (checked path) that read traps.
    """

    map_type = MapType.HASH

    def __init__(self, mem, key_size, value_size, max_entries, **kwargs) -> None:
        super().__init__(mem, key_size, value_size, max_entries, **kwargs)
        self.n_buckets = _round_up_pow2(max_entries)
        self._buckets = mem.kzalloc(8 * self.n_buckets, tag="htab_buckets")
        self._elems: dict[bytes, Allocation] = {}

    def _bucket_of(self, key: bytes) -> int:
        # Deterministic, cheap hash; distribution quality is irrelevant.
        h = 2166136261
        for b in key:
            h = ((h ^ b) * 16777619) & 0xFFFFFFFF
        return h & (self.n_buckets - 1)

    def lookup(self, key: bytes) -> int | None:
        self._check_key(key)
        alloc = self._elems.get(key)
        return alloc.start if alloc else None

    def update(self, key: bytes, value: bytes, flags: int = MapFlags.ANY) -> None:
        self._check_key(key)
        self._check_value(value)
        exists = key in self._elems
        if flags == MapFlags.NOEXIST and exists:
            raise MapError(errno.EEXIST, "key already exists")
        if flags == MapFlags.EXIST and not exists:
            raise MapError(errno.ENOENT, "key does not exist")
        if not exists:
            if len(self._elems) >= self.max_entries:
                raise MapError(errno.E2BIG, "hash map is full")
            alloc = self.mem.kmalloc(self.value_size, tag="htab_elem")
            self._elems[key] = alloc
        self.mem.checked_write_bytes(
            self._elems[key].start, value, who="htab-update"
        )

    def delete(self, key: bytes) -> None:
        self._check_key(key)
        alloc = self._elems.pop(key, None)
        if alloc is None:
            raise MapError(errno.ENOENT, "key does not exist")
        self.mem.kfree(alloc)

    def get_next_key(self, key: bytes | None) -> bytes:
        if key is not None:
            self._check_key(key)
        keys = sorted(self._elems)
        if not keys:
            raise MapError(errno.ENOENT, "map is empty")
        if key is None or key not in self._elems:
            return keys[0]

        self._maybe_trigger_bucket_bug(key)

        idx = keys.index(key)
        if idx + 1 >= len(keys):
            raise MapError(errno.ENOENT, "iteration finished")
        return keys[idx + 1]

    def _maybe_trigger_bucket_bug(self, key: bytes) -> None:
        """Bug #9: bucket-lock trylock failure path walks off the end.

        The flawed kernel, upon failing to take the last bucket's lock,
        retries from ``bucket + 1`` without the bounds check — reading
        the (nonexistent) bucket ``n_buckets``.  We model trylock
        failure as iterating from the last bucket while it is occupied.
        """
        if self.config is None or not self.config.has_flaw(Flaw.MAP_BUCKET_ITER):
            return
        bucket = self._bucket_of(key)
        if bucket != self.n_buckets - 1:
            return
        if self.lockdep is not None:
            self.lockdep.acquire(HTAB_BUCKET_LOCK)
            self.lockdep.release(HTAB_BUCKET_LOCK)
        # Off-by-one bucket read: one u64 past the bucket array.
        self.mem.checked_read(
            self._buckets.start + 8 * self.n_buckets, 8, who="htab-iter"
        )


class ProgArrayMap(ArrayMap):
    """BPF_MAP_TYPE_PROG_ARRAY: tail-call targets by index.

    Values are program file descriptors (u32).  Programs cannot read or
    write the values directly — the only program-side consumer is the
    ``bpf_tail_call`` helper; user space populates it through the
    ordinary update path.
    """

    map_type = MapType.PROG_ARRAY

    def __init__(self, mem, key_size, value_size, max_entries, **kwargs) -> None:
        if value_size != 4:
            raise MapError(errno.EINVAL, "prog array value_size must be 4")
        super().__init__(mem, key_size, value_size, max_entries, **kwargs)

    def prog_fd_at(self, index: int) -> int | None:
        """The program fd stored at ``index`` (0 means empty slot)."""
        if index >= self.max_entries:
            return None
        addr = self._values.start + index * self.value_size
        fd = self.mem.checked_read(addr, 4, who="prog-array")
        return fd or None


class LruHashMap(HashMap):
    """BPF_MAP_TYPE_LRU_HASH: hash map that evicts instead of filling up."""

    map_type = MapType.LRU_HASH

    def update(self, key: bytes, value: bytes, flags: int = MapFlags.ANY) -> None:
        if key not in self._elems and len(self._elems) >= self.max_entries:
            # Evict the oldest element (insertion order approximates LRU
            # closely enough for program-visible semantics).
            victim = next(iter(self._elems))
            self.delete(victim)
        super().update(key, value, flags)


class QueueMap(BpfMap):
    """BPF_MAP_TYPE_QUEUE: FIFO of values, no keys."""

    map_type = MapType.QUEUE

    def __init__(self, mem, key_size, value_size, max_entries, **kwargs) -> None:
        # The kernel requires key_size == 0 for queue/stack; our base
        # validation demands positive sizes, so bypass via sentinel.
        if key_size != 0:
            raise MapError(errno.EINVAL, "queue map key_size must be 0")
        BpfMap.validate_params(4, value_size, max_entries)
        self.mem = mem
        self.key_size = 0
        self.value_size = value_size
        self.max_entries = max_entries
        self.lockdep = kwargs.get("lockdep")
        self.config = kwargs.get("config")
        self.fd = -1
        self._items: list[Allocation] = []

    def push(self, value: bytes, flags: int = MapFlags.ANY) -> None:
        self._check_value(value)
        if len(self._items) >= self.max_entries:
            raise MapError(errno.E2BIG, "queue is full")
        alloc = self.mem.kmalloc(self.value_size, tag="queue_elem")
        self.mem.checked_write_bytes(alloc.start, value, who="queue-push")
        self._items.append(alloc)

    def pop(self) -> bytes:
        if not self._items:
            raise MapError(errno.ENOENT, "queue is empty")
        alloc = self._take()
        data = self.mem.checked_read_bytes(
            alloc.start, self.value_size, who="queue-pop"
        )
        self.mem.kfree(alloc)
        return data

    def peek(self) -> bytes:
        if not self._items:
            raise MapError(errno.ENOENT, "queue is empty")
        alloc = self._items[0]
        return self.mem.checked_read_bytes(
            alloc.start, self.value_size, who="queue-peek"
        )

    def _take(self) -> Allocation:
        return self._items.pop(0)

    # Queue/stack maps do not support the keyed operations.
    def lookup(self, key: bytes) -> int | None:
        raise MapError(errno.EINVAL, "queue map has no keyed lookup")

    def update(self, key: bytes, value: bytes, flags: int = MapFlags.ANY) -> None:
        raise MapError(errno.EINVAL, "queue map has no keyed update")

    def delete(self, key: bytes) -> None:
        raise MapError(errno.EINVAL, "queue map has no keyed delete")

    def get_next_key(self, key: bytes | None) -> bytes:
        raise MapError(errno.EINVAL, "queue map is not iterable")


class StackMap(QueueMap):
    """BPF_MAP_TYPE_STACK: LIFO variant of the queue map."""

    map_type = MapType.STACK

    def _take(self) -> Allocation:
        return self._items.pop()

    def peek(self) -> bytes:
        if not self._items:
            raise MapError(errno.ENOENT, "stack is empty")
        alloc = self._items[-1]
        return self.mem.checked_read_bytes(
            alloc.start, self.value_size, who="stack-peek"
        )


class RingbufMap(BpfMap):
    """BPF_MAP_TYPE_RINGBUF: byte ring buffer with a reserve/commit API.

    The wakeup path takes :data:`RINGBUF_LOCK` — a sleeping lock.
    Bug #10's helper queues the wakeup via ``irq_work`` incorrectly and
    ends up acquiring it in irq context, which our lockdep flags.
    """

    map_type = MapType.RINGBUF

    def __init__(self, mem, key_size, value_size, max_entries, **kwargs) -> None:
        if key_size != 0 or value_size != 0:
            raise MapError(errno.EINVAL, "ringbuf key/value sizes must be 0")
        if max_entries & (max_entries - 1):
            raise MapError(errno.EINVAL, "ringbuf size must be a power of two")
        self.mem = mem
        self.key_size = 0
        self.value_size = 0
        self.max_entries = max_entries
        self.lockdep = kwargs.get("lockdep")
        self.config = kwargs.get("config")
        self.fd = -1
        self._data = mem.kzalloc(max_entries, tag="ringbuf_data")
        self._head = 0
        self._tail = 0

    def available(self) -> int:
        return self.max_entries - (self._head - self._tail)

    def output(self, data: bytes, in_irq: bool = False) -> None:
        """Copy a record in and wake consumers (takes the sleeping lock)."""
        if len(data) > self.available():
            raise MapError(errno.EAGAIN, "ringbuf is full")
        pos = self._head % self.max_entries
        first = min(len(data), self.max_entries - pos)
        self.mem.checked_write_bytes(
            self._data.start + pos, data[:first], who="ringbuf-output"
        )
        if first < len(data):
            self.mem.checked_write_bytes(
                self._data.start, data[first:], who="ringbuf-output"
            )
        self._head += len(data)
        if self.lockdep is not None:
            self.lockdep.acquire(RINGBUF_LOCK, in_irq=in_irq)
            self.lockdep.release(RINGBUF_LOCK)

    def consume(self, size: int) -> bytes:
        size = min(size, self._head - self._tail)
        pos = self._tail % self.max_entries
        first = min(size, self.max_entries - pos)
        data = self.mem.checked_read_bytes(
            self._data.start + pos, first, who="ringbuf-consume"
        )
        if first < size:
            data += self.mem.checked_read_bytes(
                self._data.start, size - first, who="ringbuf-consume"
            )
        self._tail += size
        return data

    def lookup(self, key: bytes) -> int | None:
        raise MapError(errno.EINVAL, "ringbuf has no keyed lookup")

    def update(self, key: bytes, value: bytes, flags: int = MapFlags.ANY) -> None:
        raise MapError(errno.EINVAL, "ringbuf has no keyed update")

    def delete(self, key: bytes) -> None:
        raise MapError(errno.EINVAL, "ringbuf has no keyed delete")

    def get_next_key(self, key: bytes | None) -> bytes:
        raise MapError(errno.EINVAL, "ringbuf is not iterable")


_MAP_CLASSES: dict[MapType, type[BpfMap]] = {
    MapType.HASH: HashMap,
    MapType.ARRAY: ArrayMap,
    MapType.PROG_ARRAY: ProgArrayMap,
    MapType.PERCPU_HASH: HashMap,
    MapType.PERCPU_ARRAY: ArrayMap,
    MapType.LRU_HASH: LruHashMap,
    MapType.QUEUE: QueueMap,
    MapType.STACK: StackMap,
    MapType.RINGBUF: RingbufMap,
}


#: Map types that may embed a bpf_spin_lock in their values.
_SPIN_LOCK_CAPABLE = frozenset({MapType.HASH, MapType.ARRAY, MapType.LRU_HASH})


def create_map(
    mem: KernelMemory,
    map_type: MapType,
    key_size: int,
    value_size: int,
    max_entries: int,
    lockdep: Lockdep | None = None,
    config: KernelConfig | None = None,
    has_spin_lock: bool = False,
) -> BpfMap:
    """Factory mirroring ``BPF_MAP_CREATE``; raises EINVAL on bad params."""
    try:
        cls = _MAP_CLASSES[MapType(map_type)]
    except (ValueError, KeyError):
        raise MapError(errno.EINVAL, f"unsupported map type {map_type}") from None
    if has_spin_lock and MapType(map_type) not in _SPIN_LOCK_CAPABLE:
        raise MapError(
            errno.EINVAL, f"map type {map_type} cannot hold a spin lock"
        )
    if has_spin_lock:
        return cls(
            mem, key_size, value_size, max_entries,
            lockdep=lockdep, config=config, has_spin_lock=True,
        )
    return cls(
        mem, key_size, value_size, max_entries, lockdep=lockdep, config=config
    )
