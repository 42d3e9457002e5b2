"""Statistics helpers for the evaluation benchmarks.

Covers the three quantitative artefacts of the paper's evaluation:
coverage curves/totals (Figure 6, Table 3), acceptance-rate summaries
(Section 6.3), and the sanitation-overhead measurements (Section 6.4,
RQ3: ~90% execution slowdown, ~3.0x instruction footprint).
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.ebpf.program import BpfProgram
from repro.fuzz.campaign import CampaignResult
from repro.runtime.executor import Executor

__all__ = [
    "average_curves",
    "coverage_improvement",
    "acceptance_summary",
    "OverheadStats",
    "measure_overhead",
    "ThroughputStats",
]


_log = logging.getLogger("repro.analysis")


def average_curves(
    curves: list[list[tuple[int, int]]]
) -> list[tuple[int, float]]:
    """Average several (x, coverage) curves point-wise.

    Repeated campaigns with the same budget produce aligned x grids,
    and those average index-by-index.  Curves whose grids disagree —
    different budgets, different sample cadences — are **realigned
    onto the intersection of their x values** rather than silently
    averaged index-by-index (which would pair up unrelated x
    positions); every dropped point is logged.  Raises ``ValueError``
    when the curves share no x values at all, since averaging then has
    no meaningful result.
    """
    if not curves:
        return []

    common = set(x for x, _ in curves[0])
    for curve in curves[1:]:
        common &= {x for x, _ in curve}
    if not common:
        raise ValueError(
            "average_curves: curves share no x values "
            f"(grids: {[[x for x, _ in c[:4]] for c in curves]}...)"
        )

    # Duplicate x values (shard-merged curves repeat x=0 once per
    # shard) collapse to their last sample; only genuinely mismatched
    # grid points count as dropped.
    dropped = (
        sum(len({x for x, _ in c}) for c in curves)
        - len(common) * len(curves)
    )
    if dropped:
        _log.warning(
            "average_curves: realigned %d curves onto %d common x values, "
            "dropping %d points with mismatched grids",
            len(curves), len(common), dropped,
        )

    by_x = [dict(curve) for curve in curves]
    return [
        (x, sum(d[x] for d in by_x) / len(by_x)) for x in sorted(common)
    ]


def coverage_improvement(ours: float, theirs: float) -> float:
    """Relative improvement "+X%" as the paper reports it."""
    if theirs == 0:
        return float("inf")
    return (ours - theirs) / theirs * 100.0


def acceptance_summary(results: list[CampaignResult]) -> dict:
    """Aggregate acceptance statistics across repeated campaigns."""
    generated = sum(r.generated for r in results)
    accepted = sum(r.accepted for r in results)
    errnos: Counter = Counter()
    for r in results:
        errnos.update(r.reject_errnos)
    return {
        "generated": generated,
        "accepted": accepted,
        "acceptance_rate": accepted / generated if generated else 0.0,
        "reject_errnos": errnos,
    }


@dataclass
class ThroughputStats:
    """Campaign throughput and its wall-clock split by stage.

    ``stage_seconds`` is the campaign's :attr:`CampaignResult.stage_seconds`:
    one entry per stage of :data:`~repro.fuzz.campaign.STAGES` the
    campaign entered, and no stage runs inside another, so
    ``busy_seconds`` (their sum) is the time the iterations took and
    ``fraction(stage)`` is a stage's share of it.  For parallel
    campaigns the stage times sum over shards (total CPU work) while
    ``wall_seconds`` is the parent's clock, so ``parallelism`` ≈ how
    many cores the campaign actually kept busy.  Shard stages are timed
    with per-process wall clocks, so when workers oversubscribe the
    CPUs, descheduled time inflates the sum and ``parallelism`` can
    exceed the core count — read it as "worker concurrency achieved",
    trustworthy when workers <= cores.
    """

    programs: int = 0
    wall_seconds: float = 0.0
    #: stage name -> seconds (summed over shards)
    stage_seconds: Counter = field(default_factory=Counter)

    @classmethod
    def from_result(cls, result: CampaignResult) -> "ThroughputStats":
        return cls(
            programs=result.generated,
            wall_seconds=result.wall_seconds,
            stage_seconds=Counter(result.stage_seconds),
        )

    @property
    def programs_per_sec(self) -> float:
        return self.programs / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def busy_seconds(self) -> float:
        """Total attributed CPU time across all stages (and shards)."""
        return sum(self.stage_seconds.values())

    def fraction(self, stage: str) -> float:
        """``stage``'s share of the busy time."""
        busy = self.busy_seconds
        return self.stage_seconds[stage] / busy if busy else 0.0

    @property
    def parallelism(self) -> float:
        """Effective concurrency: attributed CPU time per wall second."""
        return self.busy_seconds / self.wall_seconds if self.wall_seconds else 0.0

    def as_dict(self) -> dict:
        """JSON-ready form (the metrics artifact's ``throughput``)."""
        return {
            "programs": self.programs,
            "wall_seconds": round(self.wall_seconds, 4),
            "programs_per_sec": round(self.programs_per_sec, 2),
            "stage_seconds": {
                stage: round(seconds, 4)
                for stage, seconds in sorted(self.stage_seconds.items())
            },
            "parallelism": round(self.parallelism, 2),
        }


@dataclass
class OverheadStats:
    """Sanitation overhead over a program corpus (RQ3)."""

    programs: int = 0
    #: total xlated instruction counts
    raw_insns: int = 0
    sanitized_insns: int = 0
    #: total executed-instruction counts
    raw_executed: int = 0
    sanitized_executed: int = 0
    #: total wall-clock execution time
    raw_seconds: float = 0.0
    sanitized_seconds: float = 0.0

    @property
    def footprint_ratio(self) -> float:
        """Static instruction increase (the paper reports ~3.0x)."""
        return self.sanitized_insns / self.raw_insns if self.raw_insns else 0.0

    @property
    def executed_ratio(self) -> float:
        return (
            self.sanitized_executed / self.raw_executed
            if self.raw_executed
            else 0.0
        )

    @property
    def slowdown_percent(self) -> float:
        """Execution-time slowdown (the paper reports ~90%)."""
        if not self.raw_seconds:
            return 0.0
        return (self.sanitized_seconds / self.raw_seconds - 1.0) * 100.0


def measure_overhead(
    kernel_factory,
    programs: list[BpfProgram],
    repeats: int = 3,
    runs_per_program: int = 3,
) -> OverheadStats:
    """Measure raw-vs-sanitized cost over a corpus (Section 6.4).

    Each program is loaded twice — without and with sanitation — into
    fresh kernels and executed; programs without any load/store are
    expected to be filtered by the caller (they cannot trigger the
    instrumentation), mirroring the paper's dataset construction.
    """
    stats = OverheadStats()
    for prog in programs:
        measurements = []
        for sanitize in (False, True):
            kernel = kernel_factory()
            for bpf_map in getattr(prog, "required_maps", ()):  # pragma: no cover
                kernel.map_create(*bpf_map)
            try:
                verified = kernel.prog_load(
                    BpfProgram(
                        insns=list(prog.insns),
                        prog_type=prog.prog_type,
                        name=prog.name,
                    ),
                    sanitize=sanitize,
                )
            except Exception:
                measurements = []
                break
            executor = Executor(kernel)
            executed = 0
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(runs_per_program):
                    result = executor.run(verified)
                    executed = result.stats.insns_executed
                best = min(best, time.perf_counter() - start)
            measurements.append((len(verified.xlated), executed, best))
        if len(measurements) != 2:
            continue
        (raw_len, raw_exec, raw_t), (san_len, san_exec, san_t) = measurements
        stats.programs += 1
        stats.raw_insns += raw_len
        stats.sanitized_insns += san_len
        stats.raw_executed += raw_exec
        stats.sanitized_executed += san_exec
        stats.raw_seconds += raw_t
        stats.sanitized_seconds += san_t
    return stats
