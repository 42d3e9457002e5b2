"""Sharded parallel campaign engine.

The paper runs BVF as 48-hour campaigns per kernel on a 40-core server
(Section 6.1); the related fuzzers it compares against (Syzkaller,
Buzzer, BRF) all get their throughput from fanning campaigns out over
many VMs/processes.  :class:`ParallelCampaign` is that regime for the
reproduction: a campaign's program budget is split into **logical
shards**, each shard runs a fully isolated serial
:class:`~repro.fuzz.campaign.Campaign` (own RNG stream, own corpus,
own coverage accumulator, fresh kernel per iteration — the same
crash-isolation model).  A shard's result is the plain
:class:`~repro.fuzz.campaign.CampaignResult` its campaign returns,
moved to global iterations by one shift (:func:`_to_global`) and
folded in the parent by one merge (:func:`merge_shards`).

Two properties make the merged result trustworthy:

- **Worker-count invariance.**  The shard decomposition depends only
  on ``(seed, budget, shards)`` — never on ``workers``.  Shard *i*
  always covers global iterations ``[start_i, start_i + budget_i)``
  and always seeds its RNG with ``derive_seed(seed, i)``, so running
  the same campaign with 1 worker or 16 yields bit-identical merged
  results; ``workers`` is purely a throughput knob.
- **Stable coverage keys.**  :class:`VerifierCoverage` edge keys are
  dense block-site ids, the same in every process, so the union of
  shard edge sets counts each distinct verifier edge exactly once, and
  the merged coverage curve keeps the Figure-6 semantics: cumulative
  unique edges as a function of cumulative programs generated.

Merge rules:

- coverage — union of shard edge samples; the curve interleaves shard
  samples in cumulative-programs order, unioning each sample's *new*
  edges (shards rediscovering the same edge don't double-count);
- findings, divergences, explanations, repair examples — per key the
  entry with the earliest **global** iteration wins, sorted by key
  (:func:`_earliest`);
- counts, counters and timing — every field in ``_SUMMED`` sums
  (seconds sum to total CPU work; ``wall_seconds`` is the parent's
  measured wall clock, which is what shrinks as workers are added);
- metrics, profile, frontier — per-shard snapshots merge via
  :func:`repro.obs.metrics.merge_snapshots` (counters/histogram
  buckets sum, gauges max, wall-clock section kept segregated),
  :func:`~repro.obs.profile.merge_profiles` and
  :func:`~repro.obs.frontier.merge_frontiers`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace

from repro.fuzz.campaign import Campaign, CampaignConfig, CampaignResult
from repro.fuzz.corpus import specs_of
from repro.fuzz.coverage import install_probes
from repro.fuzz.oracle import BugFinding
from repro.fuzz.rng import derive_seed
from repro.obs.frontier import merge_frontiers, shift_frontier
from repro.obs.metrics import merge_snapshots
from repro.obs.profile import merge_profiles

__all__ = [
    "ParallelCampaignResult",
    "ParallelCampaign",
    "shard_budgets",
    "merge_shards",
]

#: Default number of logical shards.  Deliberately independent of (and
#: larger than) typical worker counts so the decomposition — and hence
#: the merged result — never changes when the machine does.
DEFAULT_SHARDS = 8

#: Set by :func:`_worker_init` the instant a worker process starts, so
#: the first shard that runs in the worker can report how long process
#: bootstrap (fork/spawn + module import) took before any campaign work.
_WORKER_T0: float | None = None


def _worker_init() -> None:
    global _WORKER_T0
    _WORKER_T0 = time.perf_counter()


@dataclass
class ParallelCampaignResult(CampaignResult):
    """A merged campaign result plus the parallel-execution metadata."""

    workers: int = 1
    shards: int = 1
    #: every shard's own result, iterations already global, by index
    shard_results: list[CampaignResult] = field(default_factory=list)


def shard_budgets(budget: int, shards: int) -> list[int]:
    """Split a program budget into per-shard budgets (no empty shards)."""
    if budget <= 0:
        return []
    shards = max(1, min(shards, budget))
    base, extra = divmod(budget, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def _strip_finding(finding: BugFinding) -> BugFinding:
    """Make a finding cheap to pickle across the process boundary.

    ``finding.prog.maps`` holds live :class:`BpfMap` objects whose
    ``mem`` attribute drags the whole simulated kernel memory along;
    replace them with the same :class:`MapSpec` shapes the corpus keeps
    (enough for ``replay_kernel`` and triage to rebuild the fd layout).
    """
    if finding.prog is not None and finding.prog.maps:
        finding.prog = replace(finding.prog, maps=list(specs_of(finding.prog)))
    return finding


def _to_global(result: CampaignResult, start: int) -> None:
    """Move a shard's result from shard-local to global iterations.

    Findings, divergences, explanations, repair examples and the
    frontier shift by the shard's first global iteration.  An
    explanation also names its program ``{origin}_{iteration}``
    (:meth:`Campaign._explain_reject`), as does the ``begin`` event in
    its trail; both are renamed to the global iteration.
    """
    for finding in result.findings.values():
        finding.iteration += start
    for entries in (result.divergences, result.reject_explanations,
                    result.repair_examples):
        for entry in entries.values():
            entry["iteration"] += start
    for entry in result.reject_explanations.values():
        label = entry["program"]
        entry["program"] = f"{label.rpartition('_')[0]}_{entry['iteration']}"
        for event in entry["trail"]:
            if event["kind"] == "begin" and event["program"] == label:
                event["program"] = entry["program"]
    result.frontier = shift_frontier(result.frontier, start)


def _run_shard(payload) -> CampaignResult:
    """Worker entry point: run one isolated campaign shard.

    Module-level (and taking a single tuple) so it pickles under every
    multiprocessing start method.  Returns the shard's own
    :class:`CampaignResult` with its iterations made global.
    """
    global _WORKER_T0
    entered = time.perf_counter()
    # Bootstrap time belongs to the first shard a worker runs; later
    # shards in the same process paid nothing for it.
    bootstrap_seconds = entered - _WORKER_T0 if _WORKER_T0 is not None else 0.0
    _WORKER_T0 = None

    config, index, start_iteration, shard_budget, shard_seed = payload
    trace_path = config.trace_path
    if trace_path is not None:
        trace_path = f"{trace_path}.shard{index:02d}"
    campaign = Campaign(replace(
        config,
        budget=shard_budget,
        seed=shard_seed,
        trace_path=trace_path,
        shard_index=index,
    ))
    setup_seconds = time.perf_counter() - entered
    result = campaign.run()
    result.bootstrap_seconds = bootstrap_seconds
    result.setup_seconds = setup_seconds
    if result.metrics:
        sums = result.metrics.setdefault("wall", {}).setdefault("sums", {})
        sums["worker.bootstrap_seconds"] = bootstrap_seconds
        sums["worker.setup_seconds"] = setup_seconds
    _to_global(result, start_iteration)
    for finding in result.findings.values():
        _strip_finding(finding)
    return result


#: Result fields that add up over shards: counts, Counters (positive
#: tallies, so ``+`` drops nothing) and summed CPU seconds.
_SUMMED = (
    "generated", "accepted", "corpus_size",
    "reject_errnos", "reject_reasons", "frame_generated", "frame_accepted",
    "insn_classes", "repairs_attempted", "repairs_verified",
    "generate_seconds", "verify_seconds", "execute_seconds",
    "differential_seconds", "bootstrap_seconds", "setup_seconds",
)

#: Result maps that keep, per key, the entry with the earliest global
#: iteration fleet-wide.
_EARLIEST = ("findings", "divergences", "reject_explanations",
             "repair_examples")


def _iteration(entry) -> int:
    if isinstance(entry, BugFinding):
        return entry.iteration
    return entry["iteration"]


def _earliest(maps: list[dict]) -> dict:
    """Fold per-shard maps: the earliest global iteration wins each key
    (the lower shard index on a tie), sorted by key — so the merge does
    not depend on shard order or worker packing."""
    kept: dict = {}
    for entries in maps:
        for key, entry in entries.items():
            if key not in kept or _iteration(entry) < _iteration(kept[key]):
                kept[key] = entry
    return dict(sorted(kept.items()))


def merge_shards(
    config: CampaignConfig,
    shard_results: list[CampaignResult],
    workers: int = 1,
) -> ParallelCampaignResult:
    """Deterministically fold shard results into one campaign result."""
    ordered = sorted(shard_results, key=lambda s: s.config.shard_index)
    merged = ParallelCampaignResult(
        config=config,
        workers=workers,
        shards=len(ordered),
        shard_results=ordered,
    )
    for name in _SUMMED:
        setattr(merged, name, sum((getattr(s, name) for s in ordered),
                                  getattr(merged, name)))
    for name in _EARLIEST:
        setattr(merged, name, _earliest([getattr(s, name) for s in ordered]))
    merged.metrics = merge_snapshots([s.metrics for s in ordered if s.metrics])
    merged.profile = merge_profiles([s.profile for s in ordered])
    merged.frontier = merge_frontiers([s.frontier for s in ordered])

    # Interleaved union curve: order every shard's samples by local
    # progress (ties broken by shard index), so the x axis becomes
    # cumulative programs across the whole fleet — the scaled-up
    # equivalent of Figure 6's wall-clock axis.
    points = []
    for index, shard in enumerate(ordered):
        prev_x = 0
        for local_x, new_edges in shard.edge_samples:
            points.append((local_x, index, local_x - prev_x, new_edges))
            prev_x = local_x
    points.sort(key=lambda p: (p[0], p[1]))

    curve_edges: set[int] = set()
    cumulative = 0
    for _local_x, _index, delta, new_edges in points:
        cumulative += delta
        fresh = frozenset(new_edges - curve_edges)
        curve_edges |= fresh
        merged.coverage_curve.append((cumulative, len(curve_edges)))
        merged.edge_samples.append((cumulative, fresh))
    merged.final_coverage = len(curve_edges)
    return merged


class ParallelCampaign:
    """Runs one campaign as N logical shards over M worker processes."""

    def __init__(
        self,
        config: CampaignConfig,
        workers: int | None = None,
        shards: int | None = None,
    ) -> None:
        self.config = config
        self.workers = max(1, workers or (os.cpu_count() or 1))
        self.shards = shards if shards is not None else DEFAULT_SHARDS

    # ------------------------------------------------------------------ run --

    def shard_plan(self) -> list[tuple]:
        """The worker payloads: (config, index, start, budget, seed)."""
        budgets = shard_budgets(self.config.budget, self.shards)
        plan = []
        start = 0
        for index, shard_budget in enumerate(budgets):
            plan.append(
                (
                    self.config,
                    index,
                    start,
                    shard_budget,
                    derive_seed(self.config.seed, index),
                )
            )
            start += shard_budget
        return plan

    def run(self) -> ParallelCampaignResult:
        started = time.perf_counter()
        plan = self.shard_plan()
        workers = min(self.workers, max(len(plan), 1))

        if self.config.collect_coverage:
            # Instrument once, here: forked workers inherit the probes.
            install_probes()
        if workers <= 1 or len(plan) <= 1:
            _worker_init()
            shard_results = [_run_shard(payload) for payload in plan]
        else:
            ctx = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
            with ctx.Pool(
                processes=workers, initializer=_worker_init
            ) as pool:
                shard_results = pool.map(_run_shard, plan, chunksize=1)

        merged = merge_shards(self.config, shard_results, workers=workers)
        merged.wall_seconds = time.perf_counter() - started
        return merged
