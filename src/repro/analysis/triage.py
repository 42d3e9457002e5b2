"""Bug-report rendering for triage (Section 6.5 of the paper).

The paper triages findings by inspecting the erroneous program,
pinpointing the guilty instruction, and walking the preceding
instructions that produced its operands.  This module automates the
mechanical part: given a finding, it renders a kernel-style report —
the captured indicator, the disassembled program with the guilty
instruction highlighted, the relevant verifier-log tail, and the
differential-triage attribution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BpfError, VerifierReject
from repro.ebpf.disasm import format_insn
from repro.ebpf.program import BpfProgram
from repro.fuzz.oracle import BugFinding
from repro.kernel.config import KernelConfig
from repro.kernel.syscall import replay_kernel

__all__ = ["TriageReport", "triage_finding"]


@dataclass
class TriageReport:
    """A rendered, human-consumable bug report."""

    bug_id: str
    indicator: str
    captured_by: str
    message: str
    guilty_insn: int
    listing: str
    verifier_log_tail: str

    def render(self) -> str:
        lines = [
            "=" * 72,
            f"BUG: {self.bug_id}",
            f"indicator: {self.indicator} (captured by {self.captured_by})",
            f"report: {self.message}",
            "-" * 72,
            "program (guilty instruction marked):",
            self.listing,
        ]
        if self.verifier_log_tail:
            lines += ["-" * 72, "verifier log (tail):", self.verifier_log_tail]
        lines.append("=" * 72)
        return "\n".join(lines)


def _guilty_index(finding: BugFinding, config: KernelConfig) -> int:
    """Locate the faulting instruction in the *original* program.

    Replays the program sanitized; the captured report carries the
    xlated index of the dispatched access (``context['site']``), which
    the fixup phase's index map translates back to the raw slot.
    """
    if finding.prog is None or finding.indicator != "indicator1":
        return -1
    from repro.runtime.executor import Executor

    kernel = replay_kernel(config, finding.prog)
    prog = BpfProgram(
        insns=list(finding.prog.insns), prog_type=finding.prog.prog_type
    )
    try:
        verified = kernel.prog_load(prog, sanitize=True)
    except (VerifierReject, BpfError):
        return -1
    result = Executor(kernel).run(verified)
    if result.report is None:
        return -1
    site = result.report.context.get("site", -1)
    return verified.orig_index.get(site, -1)


def triage_finding(
    finding: BugFinding, config: KernelConfig
) -> TriageReport:
    """Produce a triage report for one finding.

    Re-verifies the program at log level 2 on the flawed kernel to
    recover the verifier's view, and annotates the listing with the
    guilty instruction when the report pinpointed one.
    """
    listing_lines: list[str] = []
    log_tail = ""
    guilty = _guilty_index(finding, config)

    if finding.prog is not None:
        kernel = replay_kernel(config, finding.prog)
        prog = BpfProgram(
            insns=list(finding.prog.insns), prog_type=finding.prog.prog_type
        )
        from repro.verifier.core import Verifier

        verifier = Verifier(kernel, prog, log_level=2)
        try:
            verifier.verify()
        except (VerifierReject, BpfError):  # pragma: no cover - flawed accepts
            pass
        log_lines = verifier.log.text().splitlines()
        log_tail = "\n".join(log_lines[-12:])

        skip = False
        for idx, insn in enumerate(finding.prog.insns):
            if skip:
                skip = False
                continue
            marker = ">>>" if idx == guilty else "   "
            listing_lines.append(f"{marker} {idx:4d}: {format_insn(insn)}")
            if insn.is_ld_imm64():
                skip = True

    return TriageReport(
        bug_id=finding.bug_id,
        indicator=finding.indicator,
        captured_by=finding.report_kind,
        message=finding.message,
        guilty_insn=guilty,
        listing="\n".join(listing_lines) or "(program unavailable)",
        verifier_log_tail=log_tail,
    )
