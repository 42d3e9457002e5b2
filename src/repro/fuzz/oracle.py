"""The test oracle: indicators, classification, and triage.

Correctness bugs in the verifier "eventually appear as one of two
indicators" (Section 3): a verified program performing an invalid
load/store (indicator #1, captured by BVF's sanitation), or a bug
triggered inside a kernel routine the program invoked (indicator #2,
captured by existing kernel self-checks).  The oracle turns captured
reports into deduplicated :class:`BugFinding` records.

For indicator-#1 findings the paper triages manually (Section 6.5); we
automate the equivalent with *differential triage*: re-verify the
crashing program with candidate verifier flaws fixed, one at a time
and then in pairs (:func:`~repro.kernel.config.smallest_fix`).  The
smallest fix that makes the verifier reject the program is the root
cause.  A program that is still accepted with every injected flaw
fixed is filed as ``verifier-unsound``: our own verifier passed an
invalid access.  The oracle keeps no state between reports, so every
report is replayed, however late in a campaign it comes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro import obs
from repro.errors import (
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
from repro.kernel.config import (
    COMPONENT_FLAWS,
    Flaw,
    KernelConfig,
    smallest_fix,
)
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
    """Classifies captured reports into findings.

    Holds only its kernel config: classifying the same report twice
    replays the same loads and gives the same finding.
    """

    def __init__(self, config: KernelConfig) -> None:
        self.config = config

    # --- classification -------------------------------------------------------

    def classify_report(
        self, report: KernelReport, gp: GeneratedProgram | None
    ) -> BugFinding:
        """Map a kernel self-check report to a finding."""
        return _filed(self._classify_report(report, gp))

    def _classify_report(
        self, report: KernelReport, gp: GeneratedProgram | None
    ) -> BugFinding:
        message = str(report)

        if isinstance(report, LockdepReport):
            lock = report.context.get("lock", "")
            if lock == "trace_printk_lock":
                return _finding(Flaw.TRACE_PRINTK_DEADLOCK, report, gp)
            if lock == "contention_lock":
                return _finding(Flaw.CONTENTION_BEGIN_LOCK, report, gp)
            if lock == "ringbuf_waitq_lock":
                return _finding(Flaw.IRQ_WORK_LOCK, report, gp)
            kind = lock or report.context.get("kind", "unknown")
            return _finding(f"lockdep:{kind}", report, gp)

        if isinstance(report, RecursionReport):
            tracepoint = report.context.get("tracepoint", "")
            if tracepoint == "bpf_trace_printk":
                return _finding(Flaw.TRACE_PRINTK_DEADLOCK, report, gp)
            if tracepoint == "contention_begin":
                return _finding(Flaw.CONTENTION_BEGIN_LOCK, report, gp)
            return _finding(f"recursion:{tracepoint}", report, gp)

        if isinstance(report, KernelPanic):
            if "send_signal" in message:
                return _finding(Flaw.SIGNAL_PANIC, report, gp)
            return _finding("panic:other", report, gp)

        if isinstance(report, NullDerefReport) and "dispatcher" in message:
            return _finding(Flaw.DISPATCHER_RACE, report, gp)
        if isinstance(report, WarnReport) and "offloaded" in message:
            return _finding(Flaw.XDP_DEV_HOST, report, gp)
        if (isinstance(report, KasanReport)
                and not isinstance(report, SanitizerReport)
                and "htab-iter" in message):
            return _finding(Flaw.MAP_BUCKET_ITER, report, gp)

        # Indicator #1: an invalid access by the program itself, caught by
        # the sanitizer (SanitizerReport, AluLimitViolation), by KASAN, or
        # unsanitized as a raw null dereference.
        if isinstance(report, (KasanReport, NullDerefReport)):
            return _finding(self._triage_indicator1(gp), report, gp,
                            indicator="indicator1")

        return _finding(f"report:{report.kind}", report, gp)

    def classify_syscall_error(
        self, error: BpfError, gp: GeneratedProgram | None
    ) -> BugFinding | None:
        """Component bugs that surface as wrong syscall failures."""
        if "kmemdup" not in (error.message or ""):
            return None
        return _filed(BugFinding(
            bug_id=Flaw.KMEMDUP_LIMIT.value,
            indicator="component",
            report_kind="syscall-error",
            message=error.message,
            prog=gp,
        ))

    def classify_divergence(self, div) -> BugFinding | None:
        """Map one cross-version divergence to a finding (indicator #3).

        ``div`` is a :class:`repro.analysis.differential.Divergence`
        (duck-typed here so ``fuzz`` need not import ``analysis``).
        A known-flaw divergence (one registry flaw explains it)
        re-discovers that bug statically — the regression-oracle half;
        combined and unexplained divergences are new bug reports.
        Feature gaps are expected version skew: they stay in the
        divergence table but produce no finding.
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
        return _filed(BugFinding(
            bug_id=bug_id,
            indicator="differential",
            report_kind="divergence",
            message=message,
        ))

    def classify_invariant(
        self, violation, gp: GeneratedProgram | None
    ) -> BugFinding:
        """Map a broken verifier abstract state to a finding.

        ``violation`` is a :class:`repro.errors.InvariantViolation`.
        Like indicator #1 this is direct evidence of a verifier bug,
        but caught statically by the VStateChecker rather than at
        runtime by the sanitizer.
        """
        return _filed(BugFinding(
            bug_id=f"invariant:{violation.code}",
            indicator="invariant",
            report_kind="invariant-violation",
            message=str(violation),
            prog=gp,
        ))

    # --- triage --------------------------------------------------------------------

    def _triage_indicator1(self, gp: GeneratedProgram | None) -> str:
        """Differential root-cause attribution for indicator #1.

        The smallest set of active indicator-#1 flaws whose fix makes
        the verifier reject the program is the root cause, its flaws
        joined by ``,``.  When no set of one or two does, the program
        is replayed once with every injected flaw fixed: a reject
        leaves the report ``indicator1-unattributed``, an accept means
        our own verifier passed an invalid access (``verifier-unsound``).
        """
        if gp is None:
            return "indicator1-unattributed"
        candidates = [f for f in _INDICATOR1_FLAWS if self.config.has_flaw(f)]
        fix = smallest_fix(
            candidates,
            lambda flaws: isinstance(self._replay(gp, flaws), VerifierReject),
        )
        if fix is not None:
            return ",".join(flaw.value for flaw in fix)
        if self._replay(gp, self.config.flaws) is None:
            return "verifier-unsound"
        return "indicator1-unattributed"

    def _replay(self, gp: GeneratedProgram, flaws) -> BpfError | None:
        """Load ``gp`` unsanitized with ``flaws`` fixed; the error the
        load raised, or ``None`` if it was accepted."""
        from repro.ebpf.program import BpfProgram

        obs.metrics().counter("oracle.triage_replays")
        kernel = replay_kernel(self.config.without_flaw(*flaws), gp)
        prog = BpfProgram(insns=list(gp.insns), prog_type=gp.prog_type)
        try:
            kernel.prog_load(prog, sanitize=False)
        except BpfError as error:
            return error
        return None


def _finding(cause: Flaw | str, report: KernelReport, gp,
             indicator: str = "indicator2") -> BugFinding:
    """``report``'s finding, caused by a registry flaw or named by a bug
    id.  A component flaw's finding is a ``component`` one."""
    if isinstance(cause, Flaw):
        if cause in COMPONENT_FLAWS:
            indicator = "component"
        cause = cause.value
    return BugFinding(
        bug_id=cause,
        indicator=indicator,
        report_kind=report.kind,
        message=str(report),
        prog=gp,
    )


def _filed(finding: BugFinding) -> BugFinding:
    """Count ``finding`` and log its ``oracle.finding`` event: the one
    emission path of every ``Oracle.classify_*`` method."""
    m = obs.metrics()
    m.counter("oracle.reports")
    m.counter("oracle." + finding.indicator)
    rec = obs.recorder()
    if rec.enabled:
        rec.event("oracle.finding", bug_id=finding.bug_id,
                  indicator=finding.indicator, report=finding.report_kind)
    return finding
