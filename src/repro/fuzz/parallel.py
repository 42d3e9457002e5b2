"""Sharded parallel campaign engine.

The paper runs BVF as 48-hour campaigns per kernel on a 40-core server
(Section 6.1); the related fuzzers it compares against (Syzkaller,
Buzzer, BRF) all get their throughput from fanning campaigns out over
many VMs/processes.  :class:`ParallelCampaign` is that regime for the
reproduction: a campaign's program budget is split into **logical
shards**, each shard runs a fully isolated serial
:class:`~repro.fuzz.campaign.Campaign` (own RNG stream, own corpus,
own coverage accumulator, fresh kernel per iteration — the same
crash-isolation model), and the picklable per-shard results are merged
deterministically in the parent.

Two properties make the merged result trustworthy:

- **Worker-count invariance.**  The shard decomposition depends only
  on ``(seed, budget, shards)`` — never on ``workers``.  Shard *i*
  always covers global iterations ``[start_i, start_i + budget_i)``
  and always seeds its RNG with ``derive_seed(seed, i)``, so running
  the same campaign with 1 worker or 16 yields bit-identical merged
  results; ``workers`` is purely a throughput knob.
- **Stable coverage keys.**  :class:`VerifierCoverage` edge keys are
  process-independent (no salted hashes), so the union of shard edge
  sets counts each distinct verifier edge exactly once, and the merged
  coverage curve keeps the Figure-6 semantics: cumulative unique edges
  as a function of cumulative programs generated.

Merge rules:

- coverage — union of shard edge sets; the curve interleaves shard
  samples in cumulative-programs order, unioning each sample's *new*
  edges (shards rediscovering the same edge don't double-count);
- findings — deduplicated by bug id, keeping the finding with the
  earliest **global** iteration (shard-local iterations are offset by
  the shard's start position);
- counters — errno, rejection-reason, frame-kind, and
  instruction-class counters sum;
- metrics — per-shard :mod:`repro.obs` registry snapshots merge via
  :func:`repro.obs.metrics.merge_snapshots` (counters/histogram
  buckets sum, gauges max, wall-clock section kept segregated);
- timing — generate/verify/execute seconds sum over shards (total CPU
  work); ``wall_seconds`` is the parent's measured wall clock, which
  is what shrinks as workers are added.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.analysis.differential import merge_divergences
from repro.fuzz.campaign import Campaign, CampaignConfig, CampaignResult
from repro.fuzz.corpus import specs_of
from repro.fuzz.coverage import install_probes
from repro.fuzz.oracle import BugFinding
from repro.fuzz.rng import derive_seed
from repro.obs.frontier import merge_frontiers, shift_frontier
from repro.obs.metrics import merge_snapshots
from repro.obs.profile import merge_profiles

__all__ = [
    "ShardResult",
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
class ShardResult:
    """The picklable outcome of one campaign shard."""

    index: int
    #: first global iteration this shard covers
    start_iteration: int
    #: derived seed the shard's FuzzRng ran on
    seed: int
    generated: int = 0
    accepted: int = 0
    reject_errnos: Counter = field(default_factory=Counter)
    #: taxonomy reason code -> count (:mod:`repro.obs.taxonomy`)
    reject_reasons: Counter = field(default_factory=Counter)
    #: frame kind -> programs generated / accepted containing it
    frame_generated: Counter = field(default_factory=Counter)
    frame_accepted: Counter = field(default_factory=Counter)
    #: the shard's metrics-registry snapshot (plain dicts, picklable)
    metrics: dict = field(default_factory=dict)
    #: bug id -> finding, iterations already remapped to global
    findings: dict[str, BugFinding] = field(default_factory=dict)
    #: divergence key -> divergence dict, iterations remapped to global
    #: (:meth:`repro.analysis.differential.Divergence.to_dict` form)
    divergences: dict[str, dict] = field(default_factory=dict)
    #: the shard's cumulative verifier edge set
    edges: frozenset[int] = frozenset()
    #: (local programs generated, new edges since previous sample)
    edge_samples: list[tuple[int, frozenset[int]]] = field(default_factory=list)
    insn_classes: Counter = field(default_factory=Counter)
    #: taxonomy reason -> first flight-recorder explanation, iteration
    #: already remapped to global (empty unless ``config.flight``)
    reject_explanations: dict[str, dict] = field(default_factory=dict)
    #: taxonomy reason -> repair attempts / verified flips (empty
    #: unless ``config.repair_feedback``)
    repairs_attempted: Counter = field(default_factory=Counter)
    repairs_verified: Counter = field(default_factory=Counter)
    #: taxonomy reason -> first verified repair, iteration already
    #: remapped to global
    repair_examples: dict[str, dict] = field(default_factory=dict)
    #: the shard's profiler snapshot (empty unless ``config.profile``)
    profile: dict = field(default_factory=dict)
    #: the shard's frontier snapshot, iterations already remapped to
    #: global (empty unless ``config.collect_coverage``)
    frontier: dict = field(default_factory=dict)
    corpus_size: int = 0
    generate_seconds: float = 0.0
    verify_seconds: float = 0.0
    execute_seconds: float = 0.0
    differential_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: worker-process bootstrap time attributed to this shard (0.0 for
    #: every shard after the first one a worker runs)
    bootstrap_seconds: float = 0.0
    #: time to construct the shard's Campaign (corpus/coverage setup)
    setup_seconds: float = 0.0


@dataclass
class ParallelCampaignResult(CampaignResult):
    """A merged campaign result plus the parallel-execution metadata."""

    workers: int = 1
    shards: int = 1
    shard_results: list[ShardResult] = field(default_factory=list)
    #: summed worker bootstrap time across shards (wall-side telemetry)
    bootstrap_seconds: float = 0.0
    #: summed Campaign construction time across shards
    setup_seconds: float = 0.0


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


def _run_shard(payload) -> ShardResult:
    """Worker entry point: run one isolated campaign shard.

    Module-level (and taking a single tuple) so it pickles under every
    multiprocessing start method.
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
    shard_config = replace(
        config,
        budget=shard_budget,
        seed=shard_seed,
        trace_path=trace_path,
        shard_index=index,
    )
    campaign = Campaign(shard_config)
    setup_seconds = time.perf_counter() - entered
    result = campaign.run()

    findings = {}
    for bug_id, finding in result.findings.items():
        finding.iteration += start_iteration
        findings[bug_id] = _strip_finding(finding)

    divergences = {}
    for key, div in result.divergences.items():
        div = dict(div)
        if div.get("iteration", -1) >= 0:
            div["iteration"] += start_iteration
        divergences[key] = div

    explanations = {}
    for reason, entry in result.reject_explanations.items():
        entry = dict(entry)
        if entry.get("iteration", -1) >= 0:
            entry["iteration"] += start_iteration
        explanations[reason] = entry

    repair_examples = {}
    for reason, entry in result.repair_examples.items():
        entry = dict(entry)
        if entry.get("iteration", -1) >= 0:
            entry["iteration"] += start_iteration
        repair_examples[reason] = entry

    metrics = result.metrics
    if metrics:
        sums = metrics.setdefault("wall", {}).setdefault("sums", {})
        sums["worker.bootstrap_seconds"] = bootstrap_seconds
        sums["worker.setup_seconds"] = setup_seconds

    return ShardResult(
        index=index,
        start_iteration=start_iteration,
        seed=shard_seed,
        generated=result.generated,
        accepted=result.accepted,
        reject_errnos=result.reject_errnos,
        reject_reasons=result.reject_reasons,
        frame_generated=result.frame_generated,
        frame_accepted=result.frame_accepted,
        metrics=metrics,
        findings=findings,
        divergences=divergences,
        edges=campaign.coverage.snapshot_edges(),
        edge_samples=result.edge_samples,
        insn_classes=result.insn_classes,
        reject_explanations=explanations,
        repairs_attempted=result.repairs_attempted,
        repairs_verified=result.repairs_verified,
        repair_examples=repair_examples,
        profile=result.profile,
        frontier=shift_frontier(result.frontier, start_iteration),
        corpus_size=result.corpus_size,
        generate_seconds=result.generate_seconds,
        verify_seconds=result.verify_seconds,
        execute_seconds=result.execute_seconds,
        differential_seconds=result.differential_seconds,
        wall_seconds=result.wall_seconds,
        bootstrap_seconds=bootstrap_seconds,
        setup_seconds=setup_seconds,
    )


def merge_shards(
    config: CampaignConfig,
    shard_results: list[ShardResult],
    workers: int = 1,
) -> ParallelCampaignResult:
    """Deterministically fold shard results into one campaign result."""
    ordered = sorted(shard_results, key=lambda s: s.index)
    merged = ParallelCampaignResult(
        config=config,
        workers=workers,
        shards=len(ordered),
        shard_results=ordered,
    )

    all_edges: set[int] = set()
    for shard in ordered:
        merged.generated += shard.generated
        merged.accepted += shard.accepted
        merged.reject_errnos.update(shard.reject_errnos)
        merged.reject_reasons.update(shard.reject_reasons)
        merged.frame_generated.update(shard.frame_generated)
        merged.frame_accepted.update(shard.frame_accepted)
        merged.insn_classes.update(shard.insn_classes)
        merged.corpus_size += shard.corpus_size
        merged.generate_seconds += shard.generate_seconds
        merged.verify_seconds += shard.verify_seconds
        merged.execute_seconds += shard.execute_seconds
        merged.differential_seconds += shard.differential_seconds
        merged.bootstrap_seconds += shard.bootstrap_seconds
        merged.setup_seconds += shard.setup_seconds
        all_edges |= shard.edges

        for bug_id, finding in shard.findings.items():
            kept = merged.findings.get(bug_id)
            if kept is None or finding.iteration < kept.iteration:
                merged.findings[bug_id] = finding

        # One explanation per taxonomy reason fleet-wide, keeping the
        # earliest global iteration — shard-order-independent, hence
        # worker-count-invariant.
        for reason, entry in shard.reject_explanations.items():
            kept = merged.reject_explanations.get(reason)
            if kept is None or entry.get("iteration", 0) < kept.get(
                "iteration", 0
            ):
                merged.reject_explanations[reason] = entry

        # Repair counters sum; the per-reason example keeps the
        # earliest global iteration, mirroring the explanations.
        merged.repairs_attempted.update(shard.repairs_attempted)
        merged.repairs_verified.update(shard.repairs_verified)
        for reason, entry in shard.repair_examples.items():
            kept = merged.repair_examples.get(reason)
            if kept is None or entry.get("iteration", 0) < kept.get(
                "iteration", 0
            ):
                merged.repair_examples[reason] = entry

    merged.divergences = merge_divergences(
        [shard.divergences for shard in ordered]
    )

    merged.final_coverage = len(all_edges)
    merged.metrics = merge_snapshots([s.metrics for s in ordered if s.metrics])
    merged.profile = merge_profiles([s.profile for s in ordered])
    merged.frontier = merge_frontiers([s.frontier for s in ordered])

    # Interleaved union curve: order every shard's samples by local
    # progress (ties broken by shard index), so the x axis becomes
    # cumulative programs across the whole fleet — the scaled-up
    # equivalent of Figure 6's wall-clock axis.
    points = []
    for shard in ordered:
        prev_x = 0
        for local_x, new_edges in shard.edge_samples:
            points.append((local_x, shard.index, local_x - prev_x, new_edges))
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

        if self.config.heartbeat_dir:
            from repro.obs.heartbeat import write_campaign_meta

            write_campaign_meta(
                self.config.heartbeat_dir,
                {
                    "tool": self.config.tool,
                    "kernel": self.config.kernel_version,
                    "budget": self.config.budget,
                    "seed": self.config.seed,
                    "shards": len(plan),
                    "workers": workers,
                },
            )

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
