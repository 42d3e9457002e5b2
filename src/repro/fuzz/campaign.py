"""Fuzzing campaign driver.

One campaign models one of the paper's testing deployments: a tool
(BVF or a baseline), a kernel version, and a budget of generated
programs (our proxy for wall-clock hours).  Each iteration boots a
fresh simulated kernel — crash isolation, exactly like the VM-per-crash
regime kernel fuzzers run under — generates or mutates a program,
pushes it through the verifier (collecting kcov-style coverage),
executes the survivors with the full plan (direct runs, tracepoint
triggers, dispatcher routing, user-space map traffic, info queries),
and hands every captured report to the oracle: the stages of
:data:`STAGES`, one after the other.

Campaign results carry everything the evaluation section needs:
acceptance rates with errno breakdowns (Section 6.3), coverage curves
(Figure 6) and totals (Table 3), instruction-mix histograms (the
Buzzer characterisation), and the deduplicated bug table (Table 2).
"""

from __future__ import annotations

import contextlib
import errno as _errno
import time
from collections import Counter
from dataclasses import dataclass, field

from repro import obs
from repro.errors import (
    BpfError,
    InvariantViolation,
    KernelReport,
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

__all__ = [
    "STAGES",
    "CampaignConfig",
    "CampaignResult",
    "Campaign",
    "make_generator",
    "preload",
]

#: The stages of one campaign iteration, in the order they run.  Each
#: is one :class:`~repro.obs.trace.PhaseClock` phase and, when
#: profiling, one profiler root frame (:meth:`Campaign._stage`).
STAGES = (
    "generate",      # kernel boot, program generation or mutation, tallies
    "verify",        # the primary prog_load and its verdict's tallies
    "explain",       # a rejection's flight-recorder explanation
    "repair",        # a rejection's verified minimal repair
    "differential",  # the cross-version differential oracle
    "coverage",      # the frontier note and the corpus add
    "execute",       # the execution plan; captures, never classifies
    "triage",        # the oracle classifies each captured item
)


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
    #: stage name (:data:`STAGES`) -> seconds spent in it; stages
    #: never entered are absent (ThroughputStats input)
    stage_seconds: Counter = field(default_factory=Counter)
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


def preload(config: CampaignConfig) -> None:
    """Import every module a campaign of ``config`` imports on first use.

    A campaign imports its optional layers lazily: an unused layer
    costs nothing, and ``analysis.stats`` imports this module.
    :class:`~repro.fuzz.parallel.ParallelCampaign` calls this before it
    forks, so the workers inherit the modules instead of each importing
    them again.
    """
    import repro.verifier.fixup  # noqa: F401 - every accepted load

    if config.differential:
        import repro.analysis.differential  # noqa: F401
    if config.flight or config.repair_feedback:
        import repro.ebpf.disasm  # noqa: F401
        import repro.obs.explain  # noqa: F401
    if config.repair_feedback:
        import repro.analysis.repair  # noqa: F401


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
        #: the config facts this iteration's primary load read (None
        #: until it records; only with the differential oracle on)
        self._primary_reads: dict | None = None

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
        result.final_coverage = self.coverage.edge_count
        result.corpus_size = len(self.corpus)
        result.stage_seconds = clock.seconds
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

    @contextlib.contextmanager
    def _stage(self, name: str):
        """Enter one stage of an iteration (:data:`STAGES`).

        The stage's time lands in the clock's phase of that name and,
        with the profiler on, every verification it runs sits under a
        root frame of that name, so the profile has one root per stage
        and its self-times telescope to Σ stages.
        """
        prof = self._profiler
        with self._clock.phase(name):
            if prof is None:
                yield
                return
            prof.push(name)
            try:
                yield
            finally:
                prof.pop()

    def _iteration(self, result: CampaignResult, iteration: int) -> None:
        """One program through :data:`STAGES`, in order.  No stage runs
        inside another, and one with no work for this program (explain
        and repair on an accept, execute on a reject) is not entered."""
        with self._stage("generate"):
            kernel = Kernel(self.kernel_config)
            gp = self._next_program(kernel)
            result.generated += 1
            obs.metrics().counter("campaign.generated")
            for insn in gp.insns:
                if not insn.is_filler():
                    result.insn_classes[insn.insn_class] += 1
            kinds = self._frame_kinds(gp)
            for kind in kinds:
                result.frame_generated[kind] += 1
            prog = BpfProgram(
                insns=list(gp.insns),
                prog_type=gp.prog_type,
                name=f"{gp.origin}_{iteration}",
                offload_dev=gp.offload_dev,
            )

        # What triage classifies, in capture order: an invariant
        # violation of the primary load, else what execution caught.
        captured: list = []
        verified = outcome = rejection = None
        self._primary_reads = None
        with self._stage("verify"):
            try:
                verified = outcome = self._load(kernel, prog)
            except InvariantViolation as violation:
                # Not a verdict: the verifier's own abstract state broke.
                captured.append(violation)
                rejection = _errno.EFAULT, str(violation)
            except VerifierReject as reject:
                outcome = reject
                rejection = (reject.errno,
                             final_message(reject.log) or reject.message)
            except BpfError as error:
                outcome = error
                rejection = error.errno, error.message
            if rejection is None:
                result.accepted += 1
                obs.metrics().counter("campaign.accepted")
                for kind in kinds:
                    result.frame_accepted[kind] += 1
            else:
                errno, message = rejection
                reason = self._reject(result, errno, message)

        if rejection is not None and self._flight is not None:
            from repro.analysis.dataflow import lazy_analysis

            # An explanation's root cause and some repair templates read
            # the program's dataflow: whichever reads it first runs it.
            analysis = lazy_analysis(prog.insns)
            if (reason not in result.reject_explanations
                    or obs.recorder().enabled):
                with self._stage("explain"):
                    self._explain_reject(result, errno, message, reason,
                                         prog, iteration, analysis)
            if self.config.repair_feedback:
                with self._stage("repair"):
                    self._attempt_repair(result, reason, message, gp,
                                         iteration, kernel, prog, analysis)

        if self.differential is not None:
            # The primary load's reads and verdict answer every profile
            # that agrees on those reads (DESIGN §5e); an invariant
            # violation is no verdict, and gives no answer.
            reads = self._primary_reads
            primary = (None if outcome is None or reads is None
                       else (reads, outcome))
            with self._stage("differential"):
                for div in self.differential.run(gp, iteration, primary):
                    self._record_divergence(result, div, iteration)

        if self.config.collect_coverage:
            # Frontier attribution covers every verdict: coverage.collect()
            # publishes ``last_new`` from its finally block, so rejected
            # programs contribute their edges too.
            with self._stage("coverage"):
                new = self.coverage.last_new
                if self._frontier is not None:
                    self._frontier.note(
                        iteration,
                        new,
                        frames=kinds,
                        prog_type=gp.prog_type.name,
                        origin=gp.origin,
                    )
                if verified is not None and new > 0:
                    self.corpus.add(gp, new)

        if verified is not None:
            with self._stage("execute"):
                captured += self._execute_plan(kernel, verified, gp)

        if captured:
            with self._stage("triage"):
                for item in captured:
                    self._record(result, self._classify(item, gp), iteration)

    def _reject(self, result: CampaignResult, errno: int, message: str) -> str:
        """Tally one rejection; returns its taxonomy reason."""
        result.reject_errnos[errno] += 1
        reason = classify(message)
        result.reject_reasons[reason] += 1
        obs.metrics().counter("campaign.rejected")
        rec = obs.recorder()
        if rec.enabled:
            rec.event("campaign.reject", errno=errno, reason=reason,
                      message=message)
        return reason

    def _explain_reject(
        self,
        result: CampaignResult,
        errno: int,
        message: str,
        reason: str,
        prog: BpfProgram,
        iteration: int,
        analysis,
    ) -> None:
        """Spill the flight ring for a rejection to the trace, and keep
        one explanation per taxonomy reason (the earliest iteration).
        ``analysis`` returns the program's dataflow analysis."""
        events = self._flight.snapshot()
        rec = obs.recorder()
        if rec.enabled:
            # Interesting outcome: spill the decision ring to the trace
            # stream so post-hoc analysis sees the full last-K window.
            rec.event("verifier.flight", reason=reason, errno=errno,
                      events=events)
        if reason in result.reject_explanations:
            return
        from repro.obs.explain import explain_events

        explanation = explain_events(
            events,
            message=message,
            errno=errno,
            program=prog.name,
            insns=prog.insns,
            analysis=analysis,
        )
        entry = explanation.to_dict()
        entry["iteration"] = iteration
        result.reject_explanations[reason] = entry

    def _attempt_repair(
        self,
        result: CampaignResult,
        reason: str,
        message: str,
        gp: GeneratedProgram,
        iteration: int,
        kernel: Kernel,
        prog: BpfProgram,
        analysis,
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
        repair = synthesize_repair(
            kernel, prog,
            reason=reason, message=message, insn_idx=insn_idx,
            analysis=analysis,
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
        """The primary ``prog_load`` of one iteration.

        With the differential oracle on, every config fact the load
        reads is recorded into ``_primary_reads``
        (:func:`repro.analysis.differential.recording_reads`).  The
        recording ends with the load, inside the coverage window, so
        nothing after it reads through the recorder.
        """
        sanitize = self.config.sanitize and kernel.config.sanitizer_available
        check = self.config.check_invariants
        # The flight recorder joins the current observer for this load
        # only: the primary load's ring is the one explain and repair
        # read.
        token = None
        if self._flight is not None:
            token = obs.install(obs.metrics(), obs.recorder(),
                                obs.compose(self._flight, obs.observer()))
        recording = contextlib.nullcontext()
        if self.differential is not None:
            from repro.analysis.differential import recording_reads

            self._primary_reads = {}
            recording = recording_reads(kernel, self._primary_reads)
        try:
            if self.config.collect_coverage:
                with self.coverage.collect(), recording:
                    return kernel.prog_load(prog, sanitize=sanitize,
                                            check_invariants=check)
            with recording:
                return kernel.prog_load(prog, sanitize=sanitize,
                                        check_invariants=check)
        finally:
            if token is not None:
                obs.restore(token)

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
        if finding is not None and finding.bug_id not in result.findings:
            finding.iteration = iteration
            result.findings[finding.bug_id] = finding

    def _classify(self, item, gp: GeneratedProgram) -> BugFinding | None:
        """Triage one captured item with the oracle method for its kind."""
        if isinstance(item, InvariantViolation):
            return self.oracle.classify_invariant(item, gp)
        if isinstance(item, KernelReport):
            return self.oracle.classify_report(item, gp)
        return self.oracle.classify_syscall_error(item, gp)

    def _execute_plan(
        self, kernel: Kernel, verified, gp: GeneratedProgram
    ) -> list:
        """Run ``gp``'s plan against the verified program.  Returns the
        kernel reports and syscall errors it captured, in capture
        order, for triage to classify."""
        plan = gp.plan
        executor = Executor(kernel)
        captured: list = []

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
                captured.append(run.report)
            if run.error is not None:
                captured.append(run.error)

        # Tracepoint trigger (runs everything attached, with re-entry).
        if attached:
            run = executor.trigger_tracepoint(plan.attach_tracepoint)
            if run.report is not None:
                captured.append(run.report)

        # Dispatcher-routed execution.
        if plan.use_dispatcher:
            run = executor.run_xdp_via_dispatcher()
            if run.report is not None:
                captured.append(run.report)

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
                except BpfError:
                    pass
                except KernelReport as report:
                    captured.append(report)

        # Info query (Bug #8's kmemdup path).  Large rewritten images
        # always attract a query — tooling (bpftool, verifier-log
        # consumers) inspects exactly those.
        if plan.query_info or len(verified.xlated) > 256:
            try:
                kernel.prog_get_info(verified)
            except BpfError as error:
                captured.append(error)

        kernel.reset_attachments()
        return captured
