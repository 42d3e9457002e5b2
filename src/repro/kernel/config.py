"""Kernel configuration profiles and the injected-flaw registry.

The paper evaluates three kernel versions (Linux v5.15, v6.1, and the
``bpf-next`` development branch).  We model a "kernel version" as a
:class:`KernelConfig`: a set of available features (which verifier
passes exist, which helpers and kfuncs are exposed) plus the set of
:class:`Flaw` values present in that version.

Each flaw reproduces the root cause of one of the paper's Table-2 bugs
(or CVE-2022-23222 from Listing 1).  A flaw being *present* means the
corresponding buggy code path is active; fixing a bug is modelled by
removing the flaw from the profile, which the regression tests use to
prove the oracle reports nothing once a bug is fixed (no false
positives).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterable

__all__ = ["Flaw", "KernelConfig", "PROFILES", "smallest_fix"]


class Flaw(enum.Enum):
    """Injected bugs, keyed to Table 2 of the paper."""

    #: Bug #1 — incorrect nullness propagation of pointer comparisons:
    #: on a ``ptr == ptr`` jump the verifier marks a nullable pointer
    #: non-null even when the other side is PTR_TO_BTF_ID (which is
    #: never marked maybe_null yet can be null at runtime).
    NULLNESS_PROPAGATION = "bug1-nullness-propagation"

    #: Bug #2 — incorrect task_struct (BTF object) access validation:
    #: the bounds check accepts reads past the end of the object.
    TASK_STRUCT_OOB = "bug2-task-struct-oob"

    #: Bug #3 — incorrect check on kfunc call operations: the verifier
    #: fails to reset precision/bounds of caller-saved scalar state
    #: after a kfunc call, so stale bounds justify later accesses.
    KFUNC_BACKTRACK = "bug3-kfunc-backtrack"

    #: Bug #4 — missing check on programs attached to the tracepoint
    #: inside ``bpf_trace_printk``: the helper takes the same lock the
    #: tracepoint fires under, so an attached program deadlocks.
    TRACE_PRINTK_DEADLOCK = "bug4-trace-printk-deadlock"

    #: Bug #5 — missing validation on ``contention_begin``: a program
    #: attached there that calls a lock-acquiring helper re-fires the
    #: tracepoint, causing recursion and inconsistent lock state.
    CONTENTION_BEGIN_LOCK = "bug5-contention-begin-lock"

    #: Bug #6 — missing strict checking on signal sending: the verifier
    #: accepts ``bpf_send_signal`` in NMI-like attach contexts where it
    #: panics the kernel.
    SIGNAL_PANIC = "bug6-signal-panic"

    #: Bug #7 — missing synchronisation between dispatcher update and
    #: execution: a null program slot can be executed (null-ptr-deref).
    DISPATCHER_RACE = "bug7-dispatcher-race"

    #: Bug #8 — ``kmemdup()`` used to duplicate rewritten instructions
    #: to user space fails when the buffer exceeds the kmalloc limit.
    KMEMDUP_LIMIT = "bug8-kmemdup-limit"

    #: Bug #9 — incorrect hash-map bucket iteration in the lock-acquire
    #: failure path walks one bucket past the end (out-of-bounds).
    MAP_BUCKET_ITER = "bug9-map-bucket-iter"

    #: Bug #10 — a helper misuses ``irq_work_queue`` and takes a
    #: sleeping lock from irq context (lockdep report).
    IRQ_WORK_LOCK = "bug10-irq-work-lock"

    #: Bug #11 — incorrect execution environment: a device-offloaded
    #: XDP program is run on the host.
    XDP_DEV_HOST = "bug11-xdp-dev-host"

    #: CVE-2022-23222 (Listing 1) — ALU is allowed on nullable pointers
    #: (``PTR_TO_MAP_VALUE_OR_NULL``), so pointer arithmetic performed
    #: before the null check survives into the non-null branch.
    CVE_2022_23222 = "cve-2022-23222"


#: Flaws whose root cause lives in the verifier (the paper's six
#: correctness bugs plus the motivating CVE).
VERIFIER_FLAWS = frozenset(
    {
        Flaw.NULLNESS_PROPAGATION,
        Flaw.TASK_STRUCT_OOB,
        Flaw.KFUNC_BACKTRACK,
        Flaw.TRACE_PRINTK_DEADLOCK,
        Flaw.CONTENTION_BEGIN_LOCK,
        Flaw.SIGNAL_PANIC,
        Flaw.CVE_2022_23222,
    }
)

#: Flaws in related eBPF components (Table 2, bugs #7-#11).
COMPONENT_FLAWS = frozenset(
    {
        Flaw.DISPATCHER_RACE,
        Flaw.KMEMDUP_LIMIT,
        Flaw.MAP_BUCKET_ITER,
        Flaw.IRQ_WORK_LOCK,
        Flaw.XDP_DEV_HOST,
    }
)


@dataclass(frozen=True)
class KernelConfig:
    """A kernel-version profile: features plus injected flaws.

    Attributes mirror the capability differences between the three
    versions the paper tests.  ``sanitizer_available`` corresponds to
    the paper's Kconfig gate: BVF's three kernel patches can only be
    enabled when KASAN is also available.
    """

    version: str
    flaws: frozenset[Flaw] = frozenset()
    #: kfunc (kernel function) calls are supported by the verifier.
    has_kfuncs: bool = True
    #: The nullness-propagation pass (commit bfeae75856ab) exists.
    has_nullness_propagation: bool = True
    #: Direct BTF object access (PTR_TO_BTF_ID loads) is supported.
    has_btf_access: bool = True
    #: The bpf_loop helper and open-coded iterators exist.
    has_bpf_loop: bool = True
    #: BVF's sanitation patches + KASAN are compiled in.
    sanitizer_available: bool = True
    #: Unprivileged eBPF is allowed (stricter verifier rules apply).
    unprivileged_allowed: bool = False
    #: Size of the verifier's explored-state budget (insn processing
    #: limit); the real kernel uses 1M — scaled down in proportion to
    #: the interpreter-vs-silicon speed gap.
    complexity_limit: int = 30_000

    def has_flaw(self, flaw: Flaw) -> bool:
        """True if the buggy code path for ``flaw`` is active."""
        return flaw in self.flaws

    def without_flaw(self, *flaws: Flaw) -> "KernelConfig":
        """Return a profile with the given bugs fixed."""
        return replace(self, flaws=self.flaws - set(flaws))

    def with_flaw(self, *flaws: Flaw) -> "KernelConfig":
        """Return a profile with additional bugs injected."""
        return replace(self, flaws=self.flaws | set(flaws))

    def verifier_flaws(self) -> frozenset[Flaw]:
        return self.flaws & VERIFIER_FLAWS

    def component_flaws(self) -> frozenset[Flaw]:
        return self.flaws & COMPONENT_FLAWS


def smallest_fix(
    facts: Iterable, reproduces: Callable[[tuple], bool]
) -> tuple | None:
    """The first set of at most two ``facts`` for which ``reproduces``
    holds, or ``None``.

    Singletons are asked in the given order, then pairs in
    ``itertools.combinations`` order, and the search stops at the first
    hit.  A fact is whatever the caller toggles (a :class:`Flaw`, a
    feature field name); turning a set into a config is the caller's
    job.  Both root-cause attributions use it: the oracle's indicator-#1
    triage and the differential oracle's divergence classification.
    """
    facts = tuple(facts)
    for size in (1, 2):
        for subset in itertools.combinations(facts, size):
            if reproduces(subset):
                return subset
    return None


def v5_15() -> KernelConfig:
    """Linux v5.15 LTS profile.

    No kfuncs and no nullness-propagation pass (both landed later), so
    bugs #1 and #3 cannot exist here.  CVE-2022-23222 is present (it
    affected v5.8-v5.16), as are the long-standing bugs the paper notes
    were backport-fixed (e.g. Bug #4 existed for four years).
    """
    return KernelConfig(
        version="v5.15",
        has_kfuncs=False,
        has_nullness_propagation=False,
        has_bpf_loop=False,
        flaws=frozenset(
            {
                Flaw.CVE_2022_23222,
                Flaw.TRACE_PRINTK_DEADLOCK,
                Flaw.SIGNAL_PANIC,
                Flaw.KMEMDUP_LIMIT,
                Flaw.MAP_BUCKET_ITER,
                Flaw.IRQ_WORK_LOCK,
            }
        ),
    )


def v6_1() -> KernelConfig:
    """Linux v6.1 LTS profile.

    kfuncs and BTF access are present; the nullness-propagation pass is
    not yet merged.  CVE-2022-23222 is fixed.
    """
    return KernelConfig(
        version="v6.1",
        has_nullness_propagation=False,
        flaws=frozenset(
            {
                Flaw.TASK_STRUCT_OOB,
                Flaw.TRACE_PRINTK_DEADLOCK,
                Flaw.CONTENTION_BEGIN_LOCK,
                Flaw.SIGNAL_PANIC,
                Flaw.DISPATCHER_RACE,
                Flaw.KMEMDUP_LIMIT,
                Flaw.MAP_BUCKET_ITER,
                Flaw.IRQ_WORK_LOCK,
            }
        ),
    )


def bpf_next() -> KernelConfig:
    """The ``bpf-next`` development branch: every feature, every bug.

    This is the profile under which the paper's two-week campaign found
    all eleven Table-2 vulnerabilities; the CVE is long fixed.
    """
    return KernelConfig(
        version="bpf-next",
        flaws=frozenset(Flaw) - {Flaw.CVE_2022_23222},
    )


def pristine(version: str = "patched") -> KernelConfig:
    """A fully-fixed kernel: every feature enabled, no flaws.

    Used by the no-false-positive regression tests: campaigns against a
    pristine kernel must report zero bugs.
    """
    return KernelConfig(version=version, flaws=frozenset())


#: Named profiles used by the benchmarks (Figure 6 / Table 3).
PROFILES = {
    "v5.15": v5_15,
    "v6.1": v6_1,
    "bpf-next": bpf_next,
    "patched": pristine,
}
