"""Fuzzing campaign driver.

One campaign models one of the paper's testing deployments: a tool
(BVF or a baseline), a kernel version, and a budget of generated
programs (our proxy for wall-clock hours).  Each iteration boots a
fresh simulated kernel — crash isolation, exactly like the VM-per-crash
regime kernel fuzzers run under — generates or mutates a program,
pushes it through the verifier (collecting kcov-style coverage),
executes the survivors with the full plan (direct runs, tracepoint
triggers, dispatcher routing, user-space map traffic, info queries),
and hands every captured report to the oracle.

Campaign results carry everything the evaluation section needs:
acceptance rates with errno breakdowns (Section 6.3), coverage curves
(Figure 6) and totals (Table 3), instruction-mix histograms (the
Buzzer characterisation), and the deduplicated bug table (Table 2).
"""

from __future__ import annotations

import errno as _errno
import time
from collections import Counter
from dataclasses import dataclass, field

from repro import obs
from repro.errors import (
    BpfError,
    InvariantViolation,
    KernelReport,
    MapError,
    VerifierReject,
)
from repro.obs.frontier import FrontierTracker
from repro.obs.taxonomy import classify
from repro.verifier.log import final_message
from repro.ebpf.opcodes import InsnClass
from repro.ebpf.program import BpfProgram
from repro.kernel.config import PROFILES, KernelConfig
from repro.kernel.syscall import Kernel
from repro.fuzz.baselines.buzzer_gen import BuzzerGenerator
from repro.fuzz.baselines.syzkaller_gen import SyzkallerGenerator
from repro.fuzz.corpus import Corpus
from repro.fuzz.coverage import VerifierCoverage
from repro.fuzz.generator import GeneratorConfig, StructuredGenerator
from repro.fuzz.mutator import mutate
from repro.fuzz.oracle import BugFinding, Oracle
from repro.fuzz.rng import FuzzRng
from repro.fuzz.structure import GeneratedProgram
from repro.runtime.executor import Executor
from repro.verifier.tnum import tnum_memo_stats

__all__ = ["CampaignConfig", "CampaignResult", "Campaign", "make_generator"]


@dataclass
class CampaignConfig:
    """Parameters of one campaign."""

    tool: str = "bvf"  # bvf | syzkaller | buzzer | bvf-nostructure
    kernel_version: str = "bpf-next"
    #: number of generated programs (the time-budget proxy)
    budget: int = 300
    seed: int = 0
    #: BVF's sanitation on verified programs (baselines run without)
    sanitize: bool = True
    collect_coverage: bool = True
    #: sample the coverage curve every N programs
    sample_every: int = 10
    #: probability of mutating a corpus seed instead of generating
    mutate_rate: float = 0.3
    #: write a JSONL trace of the run here (None = tracing disabled;
    #: sharded campaigns append a per-shard suffix)
    trace_path: str | None = None
    #: run every generated program through the cross-version
    #: differential oracle (:mod:`repro.analysis.differential`)
    differential: bool = False
    #: run the :class:`~repro.verifier.sanity.VStateChecker` at
    #: verifier checkpoints (off = zero-cost hot path)
    check_invariants: bool = False
    #: record the primary load's verifier decision events in the
    #: flight recorder (:mod:`repro.obs.events`) and attach a rejection
    #: explanation per taxonomy reason (:mod:`repro.obs.explain`).  The
    #: recorder observes only the primary ``prog_load`` of each
    #: iteration, the one load whose ring is read; differential, triage
    #: and repair verifications run without it.  Off = zero-cost
    flight: bool = False
    #: attempt a verified minimal repair for every rejection
    #: (:mod:`repro.analysis.repair`) and feed accepted repairs back
    #: into the mutation corpus; implies the flight recorder on the
    #: primary load (the failing-instruction index comes from the
    #: ring's ``verdict`` record).  Off = zero-cost hot path.
    repair_feedback: bool = False
    #: run the hierarchical verifier profiler
    #: (:mod:`repro.obs.profile`); off = zero-cost hot path
    profile: bool = False
    #: shard index, which orders the shard merge and labels the
    #: artifact's shard table (set by
    #: :class:`~repro.fuzz.parallel.ParallelCampaign` per shard)
    shard_index: int = 0


@dataclass
class CampaignResult:
    """Everything a campaign measured."""

    config: CampaignConfig
    generated: int = 0
    accepted: int = 0
    #: errno value -> count, over rejected programs
    reject_errnos: Counter = field(default_factory=Counter)
    #: taxonomy reason code -> count, over rejected programs
    #: (:mod:`repro.obs.taxonomy`)
    reject_reasons: Counter = field(default_factory=Counter)
    #: taxonomy reason code -> first recorded explanation
    #: (:meth:`repro.obs.explain.Explanation.to_dict` plus the global
    #: ``iteration``); populated only when ``config.flight`` is on
    reject_explanations: dict[str, dict] = field(default_factory=dict)
    #: taxonomy reason code -> rejections a repair was attempted for
    #: (every rejection, when ``config.repair_feedback`` is on)
    repairs_attempted: Counter = field(default_factory=Counter)
    #: taxonomy reason code -> verified reject→accept flips
    repairs_verified: Counter = field(default_factory=Counter)
    #: taxonomy reason code -> first verified repair
    #: (:meth:`repro.analysis.repair.Repair.to_dict` plus the global
    #: ``iteration``); deterministic, merged by earliest iteration
    repair_examples: dict[str, dict] = field(default_factory=dict)
    #: frame kind -> programs generated containing that kind
    frame_generated: Counter = field(default_factory=Counter)
    #: frame kind -> programs accepted containing that kind
    frame_accepted: Counter = field(default_factory=Counter)
    #: metrics-registry snapshot (:meth:`MetricsRegistry.snapshot`)
    metrics: dict = field(default_factory=dict)
    #: bug id -> first finding
    findings: dict[str, BugFinding] = field(default_factory=dict)
    #: (programs generated, cumulative verifier edges)
    coverage_curve: list[tuple[int, int]] = field(default_factory=list)
    #: (programs generated, edges newly seen since the previous sample)
    #: — the incremental form of the curve, which is what lets sharded
    #: campaigns recompute a correct union curve across processes
    edge_samples: list[tuple[int, frozenset[int]]] = field(default_factory=list)
    final_coverage: int = 0
    #: instruction-class mix over all generated programs
    insn_classes: Counter = field(default_factory=Counter)
    corpus_size: int = 0
    #: divergence key -> divergence dict (cross-version differential
    #: oracle; :meth:`Divergence.to_dict` form, deduplicated)
    divergences: dict[str, dict] = field(default_factory=dict)
    #: profiler snapshot (:meth:`VerifierProfiler.snapshot`; empty
    #: unless ``config.profile``)
    profile: dict = field(default_factory=dict)
    #: coverage-frontier snapshot (:meth:`FrontierTracker.snapshot`;
    #: empty unless ``config.collect_coverage``)
    frontier: dict = field(default_factory=dict)
    #: wall-clock split of the campaign loop (ThroughputStats input)
    generate_seconds: float = 0.0
    verify_seconds: float = 0.0
    execute_seconds: float = 0.0
    differential_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: worker-process bootstrap attributed to this result (a sharded
    #: run's first shard per worker; 0.0 for serial runs)
    bootstrap_seconds: float = 0.0
    #: time to construct the shard's Campaign (0.0 for serial runs)
    setup_seconds: float = 0.0

    @property
    def edges(self) -> frozenset[int]:
        """Every verifier edge seen: the union of the edge samples."""
        return frozenset().union(*(new for _, new in self.edge_samples))

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.generated if self.generated else 0.0

    @property
    def verifier_bugs(self) -> list[BugFinding]:
        return [f for f in self.findings.values() if f.is_verifier_bug]

    @property
    def component_bugs(self) -> list[BugFinding]:
        return [f for f in self.findings.values() if f.indicator == "component"]

    def alu_jmp_fraction(self) -> float:
        """Fraction of generated instructions that are ALU or JMP."""
        total = sum(self.insn_classes.values())
        if not total:
            return 0.0
        alu_jmp = sum(
            count
            for cls, count in self.insn_classes.items()
            if cls
            in (InsnClass.ALU, InsnClass.ALU64, InsnClass.JMP, InsnClass.JMP32)
        )
        return alu_jmp / total


def make_generator(tool: str, kernel: Kernel | None, rng: FuzzRng):
    """Instantiate the generator for a tool name.

    ``kernel`` may be ``None``: generators accept a kernel on each
    :meth:`generate` call, so campaign drivers construct the generator
    once and rebind it to every iteration's fresh kernel.
    """
    if tool == "bvf":
        return StructuredGenerator(kernel, rng)
    if tool == "bvf-nostructure":
        return StructuredGenerator(
            kernel, rng, GeneratorConfig(use_structure=False)
        )
    if tool == "syzkaller":
        return SyzkallerGenerator(kernel, rng)
    if tool == "buzzer":
        return BuzzerGenerator(kernel, rng)
    raise ValueError(f"unknown tool {tool!r}")


class Campaign:
    """Runs one fuzzing campaign to completion."""

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        self.rng = FuzzRng(config.seed)
        self.coverage = VerifierCoverage()
        self.corpus = Corpus()
        self.kernel_config: KernelConfig = PROFILES[config.kernel_version]()
        self.oracle = Oracle(self.kernel_config)
        if config.differential:
            # Imported lazily: analysis.stats imports CampaignResult
            # from this module, so a top-level import would be circular.
            from repro.analysis.differential import DifferentialOracle

            self.differential = DifferentialOracle()
        else:
            self.differential = None
        # One generator for the whole campaign; each iteration rebinds
        # it to that iteration's fresh Kernel (crash isolation stays
        # per-iteration, construction cost does not).
        self.generator = make_generator(config.tool, None, self.rng)
        # Replaced by run() with a clock wired to that run's metrics
        # registry and recorder; a bare default keeps _iteration usable
        # standalone (tests drive it directly).
        self._clock = obs.PhaseClock()
        self._flight = None
        self._profiler = None
        self._frontier = None

    # ------------------------------------------------------------------ run --

    def run(self) -> CampaignResult:
        started = time.perf_counter()
        result = CampaignResult(config=self.config)
        sampled_edges: set[int] = set()

        # Per-shard observability sinks: this campaign's registry,
        # recorder and verifier observer become the process-current
        # ones for the duration of the run, so the verifier/generator/
        # oracle instrumentation lands in *this* shard's snapshot.  The
        # clock is the single phase timer — every phase duration is
        # accumulated exactly once, in its context manager's exit.
        # The flight recorder is not among them: _load adds it around
        # the primary load only, the one load whose ring is read.
        registry = obs.MetricsRegistry()
        recorder = (
            obs.JsonlTraceRecorder(self.config.trace_path)
            if self.config.trace_path
            else obs.NULL_RECORDER
        )
        flight = (
            obs.FlightRecorder()
            if self.config.flight or self.config.repair_feedback
            else None
        )
        self._flight = flight
        profiler = obs.VerifierProfiler() if self.config.profile else None
        self._profiler = profiler
        # The abstract-state checker is added per primary load by
        # prog_load(check_invariants=...), not here, so triage and
        # repair re-verifications stay unchecked.
        observer = obs.compose(
            profiler,
            obs.VerifierTrace(recorder) if recorder.enabled else None,
        )
        frontier = (
            FrontierTracker() if self.config.collect_coverage else None
        )
        self._frontier = frontier
        clock = obs.PhaseClock(metrics=registry, recorder=recorder)
        self._clock = clock
        token = obs.install(registry, recorder, observer)
        # The tnum memo LRUs are process-global (shards in one process
        # share warm entries), so this shard's contribution is a delta.
        tnum_before = tnum_memo_stats()

        def sample() -> None:
            edges = self.coverage.edges
            result.coverage_curve.append((result.generated, len(edges)))
            result.edge_samples.append(
                (result.generated, frozenset(edges - sampled_edges))
            )
            sampled_edges.update(edges)

        try:
            for iteration in range(self.config.budget):
                self._iteration(result, iteration)
                if (
                    self.config.collect_coverage
                    and iteration % self.config.sample_every == 0
                ):
                    sample()
            if self.config.collect_coverage:
                sample()
        finally:
            obs.restore(token)
            recorder.close()
            self._flight = None
            self._profiler = None
            self._frontier = None
        tnum_after = tnum_memo_stats()
        registry.counter("cache.tnum.hits",
                         tnum_after["hits"] - tnum_before["hits"])
        registry.counter("cache.tnum.misses",
                         tnum_after["misses"] - tnum_before["misses"])
        registry.gauge_max("cache.tnum.entries", tnum_after["entries"])
        result.final_coverage = self.coverage.edge_count
        result.corpus_size = len(self.corpus)
        result.generate_seconds = clock.seconds["generate"]
        result.verify_seconds = clock.seconds["verify"]
        result.execute_seconds = clock.seconds["execute"]
        result.differential_seconds = clock.seconds["differential"]
        result.wall_seconds = time.perf_counter() - started
        result.metrics = registry.snapshot()
        result.profile = profiler.snapshot() if profiler is not None else {}
        result.frontier = frontier.snapshot() if frontier is not None else {}
        return result

    @staticmethod
    def _frame_kinds(gp: GeneratedProgram) -> frozenset[str]:
        """Taxonomy bucket keys for one program's acceptance breakdown."""
        if gp.frame_kinds:
            return frozenset(gp.frame_kinds)
        if gp.origin == "bvf-mut":
            return frozenset(("mutated",))
        return frozenset(("unstructured",))

    def _iteration(self, result: CampaignResult, iteration: int) -> None:
        kernel = Kernel(self.kernel_config)
        with self._clock.phase("generate"):
            gp = self._next_program(kernel)
        result.generated += 1
        obs.metrics().counter("campaign.generated")
        for insn in gp.insns:
            if not insn.is_filler():
                result.insn_classes[insn.insn_class] += 1
        kinds = self._frame_kinds(gp)
        for kind in kinds:
            result.frame_generated[kind] += 1

        if self.differential is not None:
            with self._clock.phase("differential"):
                for div in self.differential.run(gp, iteration):
                    self._record_divergence(result, div, iteration)

        prog = BpfProgram(
            insns=list(gp.insns),
            prog_type=gp.prog_type,
            name=f"{gp.origin}_{iteration}",
            offload_dev=gp.offload_dev,
        )

        verified = None
        with self._clock.phase("verify"):
            try:
                verified = self._load(kernel, prog)
            except InvariantViolation as violation:
                # Not a verdict: the verifier's own abstract state broke.
                self._reject(result, _errno.EFAULT, str(violation),
                             gp, iteration, kernel, prog)
                self._record(
                    result,
                    self.oracle.classify_invariant(violation, gp),
                    iteration,
                )
            except VerifierReject as reject:
                self._reject(result, reject.errno,
                             final_message(reject.log) or reject.message,
                             gp, iteration, kernel, prog)
            except BpfError as error:
                self._reject(result, error.errno, error.message,
                             gp, iteration, kernel, prog)

        # Frontier attribution covers every verdict: coverage.collect()
        # publishes ``last_new`` from its finally block, so rejected
        # programs contribute their edges too.
        if self._frontier is not None:
            self._frontier.note(
                iteration,
                self.coverage.last_new,
                frames=kinds,
                prog_type=gp.prog_type.name,
                origin=gp.origin,
            )
        if verified is None:
            return

        result.accepted += 1
        obs.metrics().counter("campaign.accepted")
        for kind in kinds:
            result.frame_accepted[kind] += 1
        if self.config.collect_coverage and self.coverage.last_new > 0:
            self.corpus.add(gp, self.coverage.last_new)

        with self._clock.phase("execute"):
            self._execute_plan(kernel, verified, gp, result, iteration)

    def _reject(
        self,
        result: CampaignResult,
        errno: int,
        message: str,
        gp: GeneratedProgram | None = None,
        iteration: int = -1,
        kernel: Kernel | None = None,
        prog: BpfProgram | None = None,
    ) -> None:
        result.reject_errnos[errno] += 1
        reason = classify(message)
        result.reject_reasons[reason] += 1
        obs.metrics().counter("campaign.rejected")
        rec = obs.recorder()
        if rec.enabled:
            rec.event("campaign.reject", errno=errno, reason=reason,
                      message=message)
        if self._flight is not None:
            self._explain_reject(result, errno, message, reason,
                                 gp, iteration)
        if (
            self.config.repair_feedback
            and kernel is not None
            and prog is not None
        ):
            self._attempt_repair(result, reason, message, gp,
                                 iteration, kernel, prog)

    def _explain_reject(
        self,
        result: CampaignResult,
        errno: int,
        message: str,
        reason: str,
        gp: GeneratedProgram | None,
        iteration: int,
    ) -> None:
        """Spill the flight ring for a rejection and keep one
        explanation per taxonomy reason (the earliest iteration).  The
        ring is rendered only when the trace or a new reason reads it."""
        rec = obs.recorder()
        explained = reason in result.reject_explanations
        if explained and not rec.enabled:
            return
        events = self._flight.snapshot()
        if rec.enabled:
            # Interesting outcome: spill the decision ring to the trace
            # stream so post-hoc analysis sees the full last-K window.
            rec.event("verifier.flight", reason=reason, errno=errno,
                      events=events)
        if explained:
            return
        from repro.obs.explain import explain_events

        explanation = explain_events(
            events,
            message=message,
            errno=errno,
            program=f"{gp.origin}_{iteration}" if gp is not None else None,
            insns=gp.insns if gp is not None else None,
        )
        entry = explanation.to_dict()
        entry["iteration"] = iteration
        result.reject_explanations[reason] = entry

    def _attempt_repair(
        self,
        result: CampaignResult,
        reason: str,
        message: str,
        gp: GeneratedProgram | None,
        iteration: int,
        kernel: Kernel,
        prog: BpfProgram,
    ) -> None:
        """Synthesize + verify a minimal patch for one rejection.

        Verified repairs count toward the per-reason repair rate, keep
        one example per reason (earliest iteration, like the
        explanations), and re-enter the mutation corpus as
        ``bvf-repair`` seeds — the rejected half of the budget becomes
        mutation fodder that is *known* to verify.
        """
        # Imported lazily: analysis.stats imports CampaignResult from
        # this module, so a top-level import would be circular.
        from repro.analysis.repair import synthesize_repair

        result.repairs_attempted[reason] += 1
        obs.metrics().counter("campaign.repair.attempted")
        insn_idx = max(self._flight.rejected_at() or 0, 0)
        sanitize = self.config.sanitize and kernel.config.sanitizer_available
        repair = synthesize_repair(
            kernel, prog,
            reason=reason, message=message, insn_idx=insn_idx,
            sanitize=sanitize,
        )
        if repair is None:
            return
        result.repairs_verified[reason] += 1
        obs.metrics().counter("campaign.repair.verified")
        rec = obs.recorder()
        if rec.enabled:
            rec.event("campaign.repair", reason=reason,
                      template=repair.template,
                      edit_distance=repair.edit_distance)
        if reason not in result.repair_examples:
            entry = repair.to_dict()
            entry["iteration"] = iteration
            result.repair_examples[reason] = entry
        if gp is not None:
            self.corpus.add(
                GeneratedProgram(
                    insns=list(repair.patched),
                    prog_type=gp.prog_type,
                    maps=gp.maps,
                    plan=gp.plan,
                    origin="bvf-repair",
                ),
                1,
            )

    def _record_divergence(
        self, result: CampaignResult, div, iteration: int
    ) -> None:
        """Fold one :class:`~repro.analysis.differential.Divergence` in."""
        entry = div.to_dict()
        kept = result.divergences.get(entry["key"])
        if kept is None:
            result.divergences[entry["key"]] = entry
        obs.metrics().counter("campaign.divergences")
        rec = obs.recorder()
        if rec.enabled:
            rec.event("campaign.divergence", key=entry["key"],
                      kind=entry["kind"],
                      classification=entry["classification"])
        self._record(result, self.oracle.classify_divergence(div), iteration)

    def _load(self, kernel: Kernel, prog: BpfProgram):
        sanitize = self.config.sanitize and kernel.config.sanitizer_available
        check = self.config.check_invariants
        # Root profiler frame: everything the verify phase pays for runs
        # under it, so Σ self-times telescopes to (almost) the phase's
        # measured wall — the property the overhead benchmark asserts.
        prof = self._profiler
        if prof is not None:
            prof.push("verify")
        # The flight recorder joins the current observer for this load
        # only: the primary load's ring is the one _reject reads.
        token = None
        if self._flight is not None:
            token = obs.install(obs.metrics(), obs.recorder(),
                                obs.compose(self._flight, obs.observer()))
        try:
            if self.config.collect_coverage:
                with self.coverage.collect():
                    return kernel.prog_load(prog, sanitize=sanitize,
                                            check_invariants=check)
            return kernel.prog_load(prog, sanitize=sanitize,
                                    check_invariants=check)
        finally:
            if token is not None:
                obs.restore(token)
            if prof is not None:
                prof.pop()

    # ----------------------------------------------------------- generation --

    def _next_program(self, kernel: Kernel) -> GeneratedProgram:
        rng = self.rng
        if (
            len(self.corpus)
            and self.config.tool in ("bvf", "bvf-nostructure")
            and rng.chance(self.config.mutate_rate)
        ):
            entry = self.corpus.pick(rng)
            maps = []
            for spec in entry.map_specs:
                try:
                    fd = kernel.map_create(
                        spec.map_type,
                        spec.key_size,
                        spec.value_size,
                        spec.max_entries,
                        has_spin_lock=spec.has_spin_lock,
                    )
                    maps.append(kernel.map_by_fd(fd))
                except BpfError:
                    pass
            insns = mutate(entry.insns, rng, rounds=rng.randint(1, 2))
            return GeneratedProgram(
                insns=insns,
                prog_type=entry.prog_type,
                maps=maps,
                plan=entry.plan,
                origin="bvf-mut",
            )
        return self.generator.generate(kernel)

    # ------------------------------------------------------------- execution --

    def _record(self, result: CampaignResult, finding: BugFinding | None,
                iteration: int) -> None:
        if finding is None or finding.bug_id == "indicator1-duplicate":
            return
        if finding.bug_id not in result.findings:
            finding.iteration = iteration
            result.findings[finding.bug_id] = finding

    def _execute_plan(
        self,
        kernel: Kernel,
        verified,
        gp: GeneratedProgram,
        result: CampaignResult,
        iteration: int,
    ) -> None:
        plan = gp.plan
        executor = Executor(kernel)

        # Attach phase.
        attached = False
        if plan.attach_tracepoint is not None:
            try:
                kernel.prog_attach_tracepoint(verified, plan.attach_tracepoint)
                attached = True
            except BpfError:
                pass
        if plan.use_dispatcher:
            try:
                kernel.prog_attach_xdp(verified)
                # A second update models concurrent re-attachment — the
                # window Bug #7's missing sync leaves open.
                if self.rng.chance(0.5):
                    kernel.prog_attach_xdp(verified)
            except BpfError:
                pass

        # Direct test runs.
        for _ in range(plan.n_runs):
            run = executor.run(verified)
            if run.report is not None:
                self._record(
                    result, self.oracle.classify_report(run.report, gp), iteration
                )
            if run.error is not None:
                self._record(
                    result,
                    self.oracle.classify_syscall_error(run.error, gp),
                    iteration,
                )

        # Tracepoint trigger (runs everything attached, with re-entry).
        if attached:
            run = executor.trigger_tracepoint(plan.attach_tracepoint)
            if run.report is not None:
                self._record(
                    result, self.oracle.classify_report(run.report, gp), iteration
                )

        # Dispatcher-routed execution.
        if plan.use_dispatcher:
            run = executor.run_xdp_via_dispatcher()
            if run.report is not None:
                self._record(
                    result, self.oracle.classify_report(run.report, gp), iteration
                )

        # User-space map traffic.
        for op, key in plan.map_ops:
            for bpf_map in gp.maps:
                try:
                    if op == "update" and bpf_map.key_size:
                        kernel.map_update(
                            bpf_map.fd,
                            key[: bpf_map.key_size].ljust(bpf_map.key_size, b"\0"),
                            bytes(bpf_map.value_size),
                        )
                    elif op == "lookup" and bpf_map.key_size:
                        kernel.map_lookup(
                            bpf_map.fd,
                            key[: bpf_map.key_size].ljust(bpf_map.key_size, b"\0"),
                        )
                    elif op == "iterate" and bpf_map.key_size:
                        cursor = None
                        for _ in range(bpf_map.max_entries + 2):
                            cursor = kernel.map_get_next_key(bpf_map.fd, cursor)
                except MapError:
                    pass
                except BpfError:
                    pass
                except KernelReport as report:
                    self._record(
                        result, self.oracle.classify_report(report, gp), iteration
                    )

        # Info query (Bug #8's kmemdup path).  Large rewritten images
        # always attract a query — tooling (bpftool, verifier-log
        # consumers) inspects exactly those.
        if plan.query_info or len(verified.xlated) > 256:
            try:
                kernel.prog_get_info(verified)
            except BpfError as error:
                self._record(
                    result,
                    self.oracle.classify_syscall_error(error, gp),
                    iteration,
                )

        kernel.reset_attachments()
