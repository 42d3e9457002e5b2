"""The test oracle: indicators, classification, and triage.

Correctness bugs in the verifier "eventually appear as one of two
indicators" (Section 3): a verified program performing an invalid
load/store (indicator #1, captured by BVF's sanitation), or a bug
triggered inside a kernel routine the program invoked (indicator #2,
captured by existing kernel self-checks).  The oracle turns captured
reports into deduplicated :class:`BugFinding` records.

For indicator-#1 findings the paper triages manually (Section 6.5); we
automate the equivalent with *differential triage*: re-verify the
crashing program against kernels with one candidate verifier flaw
fixed at a time — the fix that makes the verifier reject the program
is the root cause.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro import obs
from repro.errors import (
    AluLimitViolation,
    BpfError,
    KasanReport,
    KernelPanic,
    KernelReport,
    LockdepReport,
    NullDerefReport,
    RecursionReport,
    SanitizerReport,
    VerifierReject,
    WarnReport,
)
from repro.kernel.config import Flaw, KernelConfig
from repro.kernel.syscall import replay_kernel
from repro.fuzz.structure import GeneratedProgram

__all__ = ["BugFinding", "Oracle"]

#: Verifier flaws that manifest as indicator #1 (triage candidates).
_INDICATOR1_FLAWS = (
    Flaw.NULLNESS_PROPAGATION,
    Flaw.TASK_STRUCT_OOB,
    Flaw.KFUNC_BACKTRACK,
    Flaw.CVE_2022_23222,
)


@dataclass
class BugFinding:
    """One deduplicated vulnerability discovered by a campaign.

    ``indicator`` values: ``indicator1`` / ``indicator2`` are the
    paper's two runtime signals; ``component`` marks non-verifier eBPF
    bugs (Table 2, #7-#11); ``differential`` marks verdict/range
    divergences from the cross-version oracle (static, no execution);
    ``invariant`` marks the verifier's own abstract state breaking a
    domain invariant (:class:`~repro.verifier.sanity.VStateChecker`).
    """

    bug_id: str
    indicator: str  # indicator1 | indicator2 | component | differential | invariant
    report_kind: str
    message: str
    iteration: int = -1
    prog: GeneratedProgram | None = None

    @property
    def is_verifier_bug(self) -> bool:
        return self.indicator in (
            "indicator1", "indicator2", "differential", "invariant"
        )


class Oracle:
    """Classifies captured reports into findings."""

    def __init__(self, config: KernelConfig) -> None:
        self.config = config
        #: indicator-1 flaws already attributed (triage short-circuit)
        self._attributed: set[Flaw] = set()

    # --- classification -------------------------------------------------------

    def classify_report(
        self, report: KernelReport, gp: GeneratedProgram | None
    ) -> BugFinding:
        """Map a kernel self-check report to a finding."""
        finding = self._classify_report(report, gp)
        m = obs.metrics()
        m.counter("oracle.reports")
        m.counter("oracle." + finding.indicator)
        rec = obs.recorder()
        if rec.enabled:
            rec.event("oracle.finding", bug_id=finding.bug_id,
                      indicator=finding.indicator, report=report.kind)
        return finding

    def _classify_report(
        self, report: KernelReport, gp: GeneratedProgram | None
    ) -> BugFinding:
        message = str(report)

        if isinstance(report, (SanitizerReport, AluLimitViolation)):
            bug_id = self._triage_indicator1(gp)
            return BugFinding(
                bug_id=bug_id,
                indicator="indicator1",
                report_kind=report.kind,
                message=message,
                prog=gp,
            )

        if isinstance(report, LockdepReport):
            lock = report.context.get("lock", "")
            if lock == "trace_printk_lock":
                return self._finding(Flaw.TRACE_PRINTK_DEADLOCK, "indicator2",
                                     report, gp)
            if lock == "contention_lock":
                return self._finding(Flaw.CONTENTION_BEGIN_LOCK, "indicator2",
                                     report, gp)
            if lock == "ringbuf_waitq_lock":
                return self._finding(Flaw.IRQ_WORK_LOCK, "component", report, gp)
            return BugFinding(
                bug_id=f"lockdep:{lock or report.context.get('kind', 'unknown')}",
                indicator="indicator2",
                report_kind=report.kind,
                message=message,
                prog=gp,
            )

        if isinstance(report, RecursionReport):
            tracepoint = report.context.get("tracepoint", "")
            if tracepoint == "bpf_trace_printk":
                return self._finding(Flaw.TRACE_PRINTK_DEADLOCK, "indicator2",
                                     report, gp)
            if tracepoint == "contention_begin":
                return self._finding(Flaw.CONTENTION_BEGIN_LOCK, "indicator2",
                                     report, gp)
            return BugFinding(
                bug_id=f"recursion:{tracepoint}",
                indicator="indicator2",
                report_kind=report.kind,
                message=message,
                prog=gp,
            )

        if isinstance(report, KernelPanic):
            if "send_signal" in message:
                return self._finding(Flaw.SIGNAL_PANIC, "indicator2", report, gp)
            return BugFinding(
                bug_id="panic:other",
                indicator="indicator2",
                report_kind=report.kind,
                message=message,
                prog=gp,
            )

        if isinstance(report, NullDerefReport):
            if "dispatcher" in message:
                return self._finding(Flaw.DISPATCHER_RACE, "component", report, gp)
            # A raw null dereference by the program itself: the
            # unsanitized face of indicator #1.
            bug_id = self._triage_indicator1(gp)
            return BugFinding(
                bug_id=bug_id,
                indicator="indicator1",
                report_kind=report.kind,
                message=message,
                prog=gp,
            )

        if isinstance(report, WarnReport):
            if "offloaded" in message:
                return self._finding(Flaw.XDP_DEV_HOST, "component", report, gp)

        if isinstance(report, KasanReport):
            who = message
            if "htab-iter" in who:
                return self._finding(Flaw.MAP_BUCKET_ITER, "component", report, gp)
            bug_id = self._triage_indicator1(gp)
            return BugFinding(
                bug_id=bug_id,
                indicator="indicator1",
                report_kind=report.kind,
                message=message,
                prog=gp,
            )

        return BugFinding(
            bug_id=f"report:{report.kind}",
            indicator="indicator2",
            report_kind=report.kind,
            message=message,
            prog=gp,
        )

    def classify_syscall_error(
        self, error: BpfError, gp: GeneratedProgram | None
    ) -> BugFinding | None:
        """Component bugs that surface as wrong syscall failures."""
        if "kmemdup" in (error.message or ""):
            m = obs.metrics()
            m.counter("oracle.reports")
            m.counter("oracle.component")
            rec = obs.recorder()
            if rec.enabled:
                rec.event("oracle.finding", bug_id=Flaw.KMEMDUP_LIMIT.value,
                          indicator="component", report="syscall-error")
            return BugFinding(
                bug_id=Flaw.KMEMDUP_LIMIT.value,
                indicator="component",
                report_kind="syscall-error",
                message=error.message,
                prog=gp,
            )
        return None

    def classify_divergence(self, div) -> BugFinding | None:
        """Map one cross-version divergence to a finding (indicator #3).

        ``div`` is a :class:`repro.analysis.differential.Divergence`
        (duck-typed here so ``fuzz`` need not import ``analysis``).
        Known-flaw divergences re-discover a registry bug statically —
        the regression-oracle half; unexplained (and joint-delta-only)
        divergences are new bug reports.  Feature gaps are expected
        version skew: they stay in the divergence table but produce no
        finding.
        """
        if div.classification == "feature-gap":
            return None
        if div.classification == "known-flaw":
            bug_id = div.explanation
            message = (
                f"{div.kind} divergence {div.profile_a} vs {div.profile_b} "
                f"explained by {div.explanation}"
            )
        else:
            # A short stable digest keeps the bug table readable while
            # still deduplicating per distinct divergence signature.
            digest = hashlib.sha1(div.key.encode()).hexdigest()[:10]
            bug_id = (
                f"differential:{div.classification}:"
                f"{div.profile_a}-vs-{div.profile_b}:{digest}"
            )
            message = (
                f"{div.kind} divergence {div.profile_a} vs {div.profile_b} "
                f"({div.classification}): "
                f"{div.outcome_a.verdict}/{div.outcome_a.reason or '-'} vs "
                f"{div.outcome_b.verdict}/{div.outcome_b.reason or '-'}"
            )
        m = obs.metrics()
        m.counter("oracle.reports")
        m.counter("oracle.differential")
        rec = obs.recorder()
        if rec.enabled:
            rec.event("oracle.finding", bug_id=bug_id,
                      indicator="differential", report="divergence")
        return BugFinding(
            bug_id=bug_id,
            indicator="differential",
            report_kind="divergence",
            message=message,
        )

    def classify_invariant(
        self, violation, gp: GeneratedProgram | None
    ) -> BugFinding:
        """Map a broken verifier abstract state to a finding.

        ``violation`` is a :class:`repro.errors.InvariantViolation`.
        Like indicator #1 this is direct evidence of a verifier bug,
        but caught statically by the VStateChecker rather than at
        runtime by the sanitizer.
        """
        m = obs.metrics()
        m.counter("oracle.reports")
        m.counter("oracle.invariant")
        rec = obs.recorder()
        if rec.enabled:
            rec.event("oracle.finding", bug_id=f"invariant:{violation.code}",
                      indicator="invariant", report="invariant-violation")
        return BugFinding(
            bug_id=f"invariant:{violation.code}",
            indicator="invariant",
            report_kind="invariant-violation",
            message=str(violation),
            prog=gp,
        )

    # --- triage --------------------------------------------------------------------

    def _triage_indicator1(self, gp: GeneratedProgram | None) -> str:
        """Differential root-cause attribution for indicator #1.

        Re-verify the program with each candidate verifier flaw fixed;
        the fix that flips the verdict to *reject* identifies the bug.
        """
        if gp is None:
            return "indicator1-unattributed"
        from repro.ebpf.program import BpfProgram

        candidates = [f for f in _INDICATOR1_FLAWS if self.config.has_flaw(f)]
        # Once every active indicator-1 flaw has been attributed, further
        # reports are duplicates; skip the expensive replays.
        remaining = [f for f in candidates if f not in self._attributed]
        if not remaining:
            return "indicator1-duplicate"
        for flaw in remaining + [f for f in candidates if f in self._attributed]:
            obs.metrics().counter("oracle.triage_replays")
            fixed = self.config.without_flaw(flaw)
            kernel = replay_kernel(fixed, gp)
            prog = BpfProgram(insns=list(gp.insns), prog_type=gp.prog_type)
            try:
                kernel.prog_load(prog, sanitize=False)
            except VerifierReject:
                self._attributed.add(flaw)
                return flaw.value
            except BpfError:
                continue
        return "indicator1-unattributed"

    def _finding(
        self, flaw: Flaw, indicator: str, report: KernelReport, gp
    ) -> BugFinding:
        return BugFinding(
            bug_id=flaw.value,
            indicator=indicator,
            report_kind=report.kind,
            message=str(report),
            prog=gp,
        )
