"""The benchmark's three workloads and the checks on their outputs.

Each workload runs in *units* of fixed, seed-determined work: a unit's
inputs depend only on ``(seed, unit index)``, so a unit's work counters
repeat exactly between runs with the same seed, while the number of
units a timed run completes depends on the machine.  Quality metrics
(acceptance rate, edges, bugs found) are taken over the first completed
unit, so they too are exact for a given seed.

- ``fuzz-serial`` — one unit is the default ``repro fuzz`` campaign:
  ``Campaign(CampaignConfig(tool="bvf", kernel_version="bpf-next"))``
  (300 programs) on a derived seed.
- ``fuzz-sharded-oracles`` — one unit is a ``ParallelCampaign`` of 160
  programs over 8 shards and 2 workers, with the differential oracle
  and repair feedback on.
- ``selftest-verify`` — one unit is a pass over the 314 hand-written
  self-tests in a seeded order, each loaded raw and sanitized on the
  ``patched`` profile and, if accepted, executed.
"""

from __future__ import annotations

import functools
import hashlib
import multiprocessing
import os
import random
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing import sharedctypes

from repro import obs
from repro.errors import BpfError, VerifierReject
from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.parallel import ParallelCampaign
from repro.fuzz.rng import derive_seed
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.obs.metrics import MetricsRegistry
from repro.runtime.executor import Executor
from repro.testsuite import all_selftests_extended
from repro.verifier.tnum import tnum_memo_stats

#: Counter families excluded from exact-repeat comparisons: the tnum
#: memo is process-global, so its hits depend on what ran before.
VOLATILE_PREFIXES = ("cache.tnum.",)

#: Seed lane of the warm-up work, apart from every unit's lane.
WARM_UP_LANE = 1 << 32

#: Records the program log holds (a run logs at most a few ten thousand).
LOG_CAPACITY = 1 << 18

#: Timed executions per variant in the sanitizer slowdown measurement.
EXEC_REPEATS = 3


@dataclass
class Unit:
    """What one completed unit of work did and how long it took."""

    index: int
    programs: int = 0
    accepted: int = 0
    wall_s: float = 0.0
    #: findings no injected flaw or classified divergence explains
    bad_findings: list[str] = field(default_factory=list)
    #: selftest-verify: programs whose verdict or R0 was not the expected
    mismatches: list[str] = field(default_factory=list)
    #: deterministic work counters (exact-repeat ledger)
    counters: dict = field(default_factory=dict)
    #: deterministic histogram sums, e.g. ``verifier.insns_processed``
    sums: dict = field(default_factory=dict)
    edges: frozenset = frozenset()
    findings: tuple = ()
    divergences: tuple = ()
    repairs: tuple = (0, 0)
    #: the campaign result, for per-layer reads (not compared)
    result: object = None
    #: selftest-verify: per instrumented program
    #: (raw load s, sanitized load s, raw xlated, sanitized xlated)
    sanitizer: list[tuple] = field(default_factory=list)
    tnum: tuple = (0, 0)

    def repeat_key(self) -> dict:
        """The exact-repeat record: everything that must not vary."""
        return {
            "programs": self.programs,
            "accepted": self.accepted,
            "failures": len(self.bad_findings) + len(self.mismatches),
            "counters": {k: v for k, v in sorted(self.counters.items())
                         if not k.startswith(VOLATILE_PREFIXES)},
            "sums": dict(sorted(self.sums.items())),
            "edges": len(self.edges),
            "findings": list(self.findings),
            "divergences": list(self.divergences),
            "repairs": list(self.repairs),
        }


# --------------------------------------------------------------------------
# Per-program log and harness hooks
# --------------------------------------------------------------------------

#: Status of one logged program.
REJECTED, ACCEPTED, FAILED = 0, 1, 2


class ProgramLog:
    """One record per completed program: end time, process, verdict
    latency and status.

    The records live in shared memory, so the shard workers that
    ``ParallelCampaign`` forks write to the same log, and a run cut at
    its deadline still sees every program that completed before it.
    """

    def __init__(self) -> None:
        self._lock = multiprocessing.Lock()
        self._count = sharedctypes.RawValue("l", 0)
        self._ends = sharedctypes.RawArray("d", LOG_CAPACITY)
        self._pids = sharedctypes.RawArray("i", LOG_CAPACITY)
        self._verdicts = sharedctypes.RawArray("d", LOG_CAPACITY)
        self._status = sharedctypes.RawArray("b", LOG_CAPACITY)

    def add(self, verdict_s: float, status: int) -> None:
        with self._lock:
            i = self._count.value
            if i == len(self._ends):
                raise RuntimeError("program log full")
            self._ends[i] = time.perf_counter()
            self._pids[i] = os.getpid()
            self._verdicts[i] = verdict_s
            self._status[i] = status
            self._count.value = i + 1

    def renew_lock(self) -> None:
        """Replace the lock once the pool that shared it was killed: a
        worker may have died holding it.  Workers forked later inherit
        the new one."""
        self._lock = multiprocessing.Lock()

    def records(self) -> list[tuple[float, int, float, int]]:
        """``(end, pid, verdict_s, status)`` of every program, by end
        time.

        Read without the lock: writers are done, or were killed with the
        pool (possibly while holding it)."""
        n = self._count.value
        return sorted(zip(self._ends[:n], self._pids[:n],
                          self._verdicts[:n], self._status[:n]))


@contextmanager
def harness(log: ProgramLog):
    """Log every campaign program for the lifetime of a benchmark run.

    ``Campaign._load`` (the primary verification) and
    ``Campaign._iteration`` (one program) are the program's own
    per-program boundaries.  The wrappers time the first and log the
    second, and keep a campaign going past an exception that escapes an
    iteration, which they print and log as a failed program.
    """
    load, iteration = Campaign._load, Campaign._iteration
    verdict = [0.0]

    @functools.wraps(load)
    def timed_load(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return load(self, *args, **kwargs)
        finally:
            verdict[0] = time.perf_counter() - started

    @functools.wraps(iteration)
    def logged_iteration(self, result, index):
        accepted = result.accepted
        verdict[0] = 0.0
        try:
            iteration(self, result, index)
        except Exception:  # anything but the BpfError contract
            print(f"FAILED shard {self.config.shard_index} iteration "
                  f"{index}:\n{traceback.format_exc()}", file=sys.stderr)
            log.add(verdict[0], FAILED)
            return
        log.add(verdict[0],
                ACCEPTED if result.accepted > accepted else REJECTED)

    Campaign._load, Campaign._iteration = timed_load, logged_iteration
    try:
        yield
    finally:
        Campaign._load, Campaign._iteration = load, iteration


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------


def _divergence_finding_id(div: dict) -> str:
    digest = hashlib.sha1(div["key"].encode()).hexdigest()[:10]
    return (f"differential:{div['classification']}:"
            f"{div['profile_a']}-vs-{div['profile_b']}:{digest}")


def finding_failures(result, profiles) -> list[str]:
    """Findings that name neither an injected flaw of a profile the
    workload runs nor a classified (not ``unexplained``) divergence."""
    valid = {flaw.value
             for name in profiles for flaw in PROFILES[name]().flaws}
    valid |= {_divergence_finding_id(div)
              for div in result.divergences.values()
              if div["classification"] != "unexplained"}
    return [f"unexpected finding {bug_id}"
            for bug_id in sorted(result.findings) if bug_id not in valid]


def _hist_sums(metrics: dict) -> dict:
    return {name: hist["sum"]
            for name, hist in metrics.get("histograms", {}).items()}


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class FuzzSerial:
    name = "fuzz-serial"
    #: units the traced run repeats
    trace_units = 1
    profiles = ("bpf-next",)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def config(self, index: int) -> CampaignConfig:
        return CampaignConfig(tool="bvf", kernel_version="bpf-next",
                              seed=derive_seed(self.seed, index))

    def setup(self) -> None:
        # Constructing a campaign loads the coverage backend (and builds
        # the C tracer on first use in a checkout).
        Campaign(self.config(0))

    def warm_up(self) -> None:
        Campaign(replace(self.config(WARM_UP_LANE), budget=60)).run()

    def run_unit(self, index: int, tracer=None) -> Unit:
        started = time.perf_counter()
        result = Campaign(self.config(index)).run()
        return _campaign_unit(index, result, time.perf_counter() - started,
                              self.profiles)


class FuzzShardedOracles:
    name = "fuzz-sharded-oracles"
    trace_units = 1
    profiles = ("bpf-next", "v5.15", "v6.1")
    budget = 160
    workers = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def config(self, index: int) -> CampaignConfig:
        return CampaignConfig(tool="bvf", kernel_version="bpf-next",
                              budget=self.budget,
                              seed=derive_seed(self.seed, index),
                              differential=True, repair_feedback=True)

    def setup(self) -> None:
        # Workers fork from this process, so they inherit the loaded
        # coverage backend.
        Campaign(self.config(0))

    def warm_up(self) -> None:
        pass

    def run_unit(self, index: int, tracer=None) -> Unit:
        # The traced run executes the same shard plan in-process: by
        # the worker-invariance contract it does the same work.
        workers = self.workers if tracer is None else 1
        started = time.perf_counter()
        result = ParallelCampaign(self.config(index), workers=workers).run()
        return _campaign_unit(index, result, time.perf_counter() - started,
                              self.profiles)


def _campaign_unit(index, result, wall_s, profiles) -> Unit:
    counters = result.metrics.get("counters", {})
    return Unit(
        index=index,
        programs=result.generated,
        accepted=result.accepted,
        wall_s=wall_s,
        bad_findings=finding_failures(result, profiles),
        counters=counters,
        sums=_hist_sums(result.metrics),
        edges=_edges_of(result),
        findings=tuple(sorted(result.findings)),
        divergences=tuple(sorted(result.divergences)),
        repairs=(sum(result.repairs_attempted.values()),
                 sum(result.repairs_verified.values())),
        result=result,
        tnum=(counters.get("cache.tnum.hits", 0),
              counters.get("cache.tnum.misses", 0)),
    )


def _edges_of(result) -> frozenset:
    shards = getattr(result, "shard_results", None)
    if shards is not None:
        return frozenset().union(*(shard.edges for shard in shards))
    edges: set[int] = set()
    for _, new in result.edge_samples:
        edges |= new
    return frozenset(edges)


class SelftestVerify:
    name = "selftest-verify"
    trace_units = 3
    profiles = ("patched",)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.selftests = []
        self.config = None

    def setup(self) -> None:
        self.selftests = all_selftests_extended()
        self.config = PROFILES["patched"]()

    def warm_up(self) -> None:
        self.run_unit(WARM_UP_LANE)

    def run_unit(self, index: int, tracer=None) -> Unit:
        order = list(self.selftests)
        random.Random(derive_seed(self.seed, index)).shuffle(order)
        unit = Unit(index=index)
        registry = MetricsRegistry()
        tnum_before = tnum_memo_stats()
        token = obs.install(registry)
        started = time.perf_counter()
        try:
            for selftest in order:
                if tracer is not None:
                    tracer.program = (index, selftest.name)
                    with tracer.span("program"):
                        self._one(selftest, unit)
                else:
                    self._one(selftest, unit)
        finally:
            unit.wall_s = time.perf_counter() - started
            obs.restore(token)
        tnum_after = tnum_memo_stats()
        unit.tnum = (tnum_after["hits"] - tnum_before["hits"],
                     tnum_after["misses"] - tnum_before["misses"])
        snapshot = registry.snapshot()
        unit.counters = snapshot["counters"]
        unit.sums = _hist_sums(snapshot)
        return unit

    def _load(self, selftest, sanitize: bool):
        """Boot, build and load one self-test: (kernel, verified|None, s)."""
        kernel = Kernel(self.config)
        prog = selftest.build(kernel)
        started = time.perf_counter()
        try:
            verified = kernel.prog_load(prog, sanitize=sanitize)
        except (VerifierReject, BpfError):
            verified = None
        return kernel, verified, time.perf_counter() - started

    def _one(self, selftest, unit: Unit) -> None:
        unit.programs += 1
        # Raw and sanitized variants each get their own kernel: a run
        # may leave map state behind that changes the next run's R0.
        raw_kernel, raw, raw_s = self._load(selftest, sanitize=False)
        san_kernel, san, san_s = self._load(selftest, sanitize=True)
        expect_accept = selftest.expect == "accept"
        problems = []
        for label, verified in (("raw", raw), ("sanitized", san)):
            if (verified is not None) != expect_accept:
                problems.append(
                    f"{label} verdict "
                    f"{'accept' if verified is not None else 'reject'}")
        if raw is not None:
            unit.accepted += 1
        for kernel, verified in ((raw_kernel, raw), (san_kernel, san)):
            if verified is None:
                continue
            run = Executor(kernel).run(verified)
            if (selftest.expected_r0 is not None
                    and run.r0 != selftest.expected_r0):
                problems.append(f"R0 {run.r0} != {selftest.expected_r0}")
        if problems:
            unit.mismatches.append(f"{selftest.name}: {', '.join(problems)}")
        self.log.add(raw_s, FAILED if problems
                     else ACCEPTED if raw is not None else REJECTED)
        if _instrumented(raw, san):
            unit.sanitizer.append((raw_s, san_s, len(raw.xlated),
                                   len(san.xlated)))

    def exec_times(self) -> list[tuple[float, float]]:
        """(raw exec s, sanitized exec s) of every self-test the
        sanitizer instruments (§6.4), timed apart from any unit."""
        rows = []
        for selftest in self.selftests:
            raw_kernel, raw, _ = self._load(selftest, sanitize=False)
            san_kernel, san, _ = self._load(selftest, sanitize=True)
            if _instrumented(raw, san):
                rows.append((_exec_seconds(raw_kernel, raw),
                             _exec_seconds(san_kernel, san)))
        return rows


def _instrumented(raw, san) -> bool:
    return (raw is not None and san is not None
            and len(san.xlated) > len(raw.xlated))


def _exec_seconds(kernel, verified) -> float:
    """Best of ``EXEC_REPEATS`` timed executions (the paper's §6.4
    protocol repeats each run; one run of a tiny program is mostly
    noise)."""
    executor = Executor(kernel)
    best = float("inf")
    for _ in range(EXEC_REPEATS):
        started = time.perf_counter()
        executor.run(verified)
        best = min(best, time.perf_counter() - started)
    return best


WORKLOADS = {w.name: w for w in (FuzzSerial, FuzzShardedOracles,
                                 SelftestVerify)}
