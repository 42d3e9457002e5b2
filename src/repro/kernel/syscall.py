"""The simulated kernel and its ``bpf()`` system call surface.

:class:`Kernel` aggregates every substrate — memory + KASAN, lockdep,
tracepoints, BTF, maps, helpers — and exposes the operations user space
(and the fuzzer) performs: map creation and access, program loading
(which runs the verifier), attachment, and test runs.

Errnos mirror the kernel so the acceptance-rate experiment can
aggregate rejection reasons exactly as the paper does.
"""

from __future__ import annotations

import errno

from repro.errors import BpfError, VerifierReject, WarnReport
from repro.ebpf.btf import BtfRegistry
from repro.ebpf.helpers import HelperRegistry
from repro.ebpf.maps import BpfMap, MapType, create_map
from repro.ebpf.program import BpfProgram, ProgType, VerifiedProgram
from repro.kernel.bugs import Dispatcher, dup_xlated_insns
from repro.kernel.config import Flaw, KernelConfig, bpf_next
from repro.kernel.kasan import KernelMemory
from repro.kernel.lockdep import Lockdep
from repro.kernel.tracepoints import TracepointRegistry

__all__ = ["Kernel", "replay_kernel"]


class Kernel:
    """One simulated kernel instance (one "boot")."""

    def __init__(self, config: KernelConfig | None = None) -> None:
        self.config = config or bpf_next()
        self.mem = KernelMemory()
        self.lockdep = Lockdep()
        self.tracepoints = TracepointRegistry(self.config)
        self.btf = BtfRegistry(self.mem)
        self.helpers = HelperRegistry(self.config)
        self.dispatcher = Dispatcher(self.config)
        #: file descriptor table (maps and loaded programs)
        self._fds: dict[int, object] = {}
        self._next_fd = 3
        #: kernel address of each map's ``struct bpf_map`` -> map
        self._maps_by_addr: dict[int, BpfMap] = {}
        #: monotonic clock and PRNG state used by helpers
        self.clock_ns = 1_000_000
        self.prandom_state = 0x9E3779B97F4A7C15
        #: outstanding ringbuf reservations: record addr -> (alloc, map, size)
        self.ringbuf_records: dict[int, tuple] = {}
        #: loaded programs (for bookkeeping / stats)
        self.loaded_programs: list[VerifiedProgram] = []

    # --- fd table ----------------------------------------------------------

    def _install_fd(self, obj: object) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = obj
        return fd

    def map_by_fd(self, fd: int) -> BpfMap | None:
        obj = self._fds.get(fd)
        return obj if isinstance(obj, BpfMap) else None

    def prog_by_fd(self, fd: int) -> VerifiedProgram | None:
        obj = self._fds.get(fd)
        return obj if isinstance(obj, VerifiedProgram) else None

    # --- maps ------------------------------------------------------------------

    def map_create(
        self,
        map_type: MapType,
        key_size: int,
        value_size: int,
        max_entries: int,
        has_spin_lock: bool = False,
    ) -> int:
        """``BPF_MAP_CREATE``; returns the new fd."""
        bpf_map = create_map(
            self.mem,
            map_type,
            key_size,
            value_size,
            max_entries,
            lockdep=self.lockdep,
            config=self.config,
            has_spin_lock=has_spin_lock,
        )
        # The map's kernel object, whose address programs hold after
        # the fixup phase rewrites map-fd loads.
        kobj = self.mem.kmalloc(64, tag=f"bpf_map:{MapType(map_type).name}")
        bpf_map.fd = self._install_fd(bpf_map)
        self._maps_by_addr[kobj.start] = bpf_map
        bpf_map._kobj_addr = kobj.start
        return bpf_map.fd

    def map_kobj_addr(self, bpf_map: BpfMap) -> int:
        return bpf_map._kobj_addr

    def map_by_addr(self, addr: int) -> BpfMap:
        bpf_map = self._maps_by_addr.get(addr)
        if bpf_map is None:
            raise BpfError(errno.EINVAL, f"no map at address {addr:#x}")
        return bpf_map

    def map_update(self, fd: int, key: bytes, value: bytes, flags: int = 0) -> None:
        """User-space ``BPF_MAP_UPDATE_ELEM``."""
        bpf_map = self.map_by_fd(fd)
        if bpf_map is None:
            raise BpfError(errno.EBADF, f"fd {fd} is not a map")
        bpf_map.update(key, value, flags)

    def map_lookup(self, fd: int, key: bytes) -> bytes | None:
        bpf_map = self.map_by_fd(fd)
        if bpf_map is None:
            raise BpfError(errno.EBADF, f"fd {fd} is not a map")
        return bpf_map.read_value(key)

    def map_delete(self, fd: int, key: bytes) -> None:
        bpf_map = self.map_by_fd(fd)
        if bpf_map is None:
            raise BpfError(errno.EBADF, f"fd {fd} is not a map")
        bpf_map.delete(key)

    def map_get_next_key(self, fd: int, key: bytes | None) -> bytes:
        bpf_map = self.map_by_fd(fd)
        if bpf_map is None:
            raise BpfError(errno.EBADF, f"fd {fd} is not a map")
        return bpf_map.get_next_key(key)

    # --- programs ----------------------------------------------------------------

    def prog_load(
        self,
        prog: BpfProgram,
        log_level: int = 1,
        sanitize: bool = False,
        check_invariants: bool = False,
    ) -> VerifiedProgram:
        """``BPF_PROG_LOAD``: run the verifier; raises VerifierReject.

        ``sanitize=True`` enables BVF's instrumentation (the Kconfig
        gate from the paper's patches).  ``check_invariants=True``
        additionally runs the :class:`~repro.verifier.sanity.
        VStateChecker` at verifier checkpoints; a broken abstract state
        raises :class:`~repro.errors.InvariantViolation`.
        """
        from repro.verifier.core import Verifier

        if sanitize and not self.config.sanitizer_available:
            raise BpfError(errno.EINVAL, "sanitizer not available in this kernel")
        verified = Verifier(
            self,
            prog,
            log_level=log_level,
            sanitize=sanitize,
            check_invariants=check_invariants,
        ).verify()
        verified.fd = self._install_fd(verified)
        self.loaded_programs.append(verified)
        if prog.offload_dev is not None:
            verified.offloaded = True
        return verified

    def prog_get_info(self, verified: VerifiedProgram) -> dict:
        """``BPF_OBJ_GET_INFO_BY_FD``: Bug #8's kmemdup lives here."""
        xlated = dup_xlated_insns(self.config, len(verified.xlated))
        return {
            "name": verified.name,
            "prog_type": verified.prog_type.value,
            "xlated_prog_len": len(xlated),
            "xlated_insns": xlated,
        }

    # --- attachment -----------------------------------------------------------------

    def prog_attach_tracepoint(self, verified: VerifiedProgram, name: str) -> None:
        """Attach a tracing program to a tracepoint (bugs #4/#5 gate)."""
        if verified.prog_type not in (
            ProgType.KPROBE,
            ProgType.TRACEPOINT,
            ProgType.RAW_TRACEPOINT,
            ProgType.PERF_EVENT,
        ):
            raise BpfError(
                errno.EINVAL,
                f"program type {verified.prog_type.value} cannot attach to "
                f"tracepoints",
            )
        self.tracepoints.attach(verified, name)

    def prog_attach_xdp(self, verified: VerifiedProgram) -> None:
        """Install an XDP program through the dispatcher (Bug #7)."""
        if verified.prog_type != ProgType.XDP:
            raise BpfError(errno.EINVAL, "only XDP programs attach to devices")
        self.dispatcher.update(verified)

    def check_offload_run(self, verified: VerifiedProgram) -> None:
        """Bug #11: device-offloaded programs must not run on the host."""
        if not getattr(verified, "offloaded", False):
            return
        if self.config.has_flaw(Flaw.XDP_DEV_HOST):
            raise WarnReport(
                "WARNING: executing device-offloaded BPF program on the host",
                context={"prog": verified.name},
            )
        raise BpfError(
            errno.EINVAL, "cannot test_run a device-offloaded program"
        )

    # --- teardown -----------------------------------------------------------------------

    def reset_attachments(self) -> None:
        """Detach everything (between fuzzer executions)."""
        self.tracepoints.detach_all()
        self.dispatcher.remove()


def replay_kernel(config: KernelConfig, prog) -> Kernel:
    """Boot a kernel holding ``prog.maps`` again (same fd layout).

    File descriptors are handed out sequentially from 3 in both the
    original and the replay kernel, so recreating the maps in creation
    order makes the program's embedded fds valid again.  ``prog.maps``
    holds live :class:`BpfMap` objects or shape-only specs; a spin lock
    is recreated where the shape carries one, since the verifier checks
    ``bpf_spin_lock`` calls against it.
    """
    kernel = Kernel(config)
    for bpf_map in prog.maps:
        kernel.map_create(
            bpf_map.map_type,
            bpf_map.key_size,
            bpf_map.value_size,
            bpf_map.max_entries,
            has_spin_lock=getattr(bpf_map, "has_spin_lock", False),
        )
    return kernel
