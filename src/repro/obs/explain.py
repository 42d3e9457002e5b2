"""Rejection explainer: decision events -> a human-readable "why".

"Characterizing and Bridging the Diagnostic Gap in eBPF Verifier
Rejections" (PAPERS.md) documents that the verifier log is the primary
debugging artifact for eBPF developers — and that reconstructing *why*
a program was rejected from it is the hard part.  This module does the
reconstruction mechanically from the flight recorder
(:mod:`repro.obs.events`): walk the ring backwards from the terminal
``verdict`` event, recover the failing instruction, the abstract
register state the last ``step`` snapshot carried, classify the
message into its taxonomy code, and name the verifier check family
that fired.

Entry points:

- :func:`explain_events` — pure function over a recorded event list
  (what the campaign layer uses at reject time);
- :func:`explain_program` — verify one program with a flight recorder
  installed and explain the rejection (``None`` if accepted);
- :func:`explain_selftest` / :func:`explain_iteration` — the
  ``repro explain`` CLI front ends: by selftest name, or by replaying
  a campaign iteration (deterministic given the campaign config).

Explanations are deterministic — built purely from deterministic
events plus the program text — so the first-per-reason explanation a
campaign records is worker-count invariant and lives in the
non-stripped part of the metrics artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.taxonomy import UNCLASSIFIED, classify

__all__ = [
    "TRAIL_LENGTH",
    "Explanation",
    "check_for_reason",
    "describe_accepted",
    "explain_events",
    "explain_program",
    "explain_selftest",
    "explain_iteration",
    "build_selftest",
    "replay_iteration",
]

#: How many trailing decision events an explanation keeps.
TRAIL_LENGTH = 12

#: Reason-code prefix -> the verifier check family that fired.  Ordered
#: longest-prefix-first so e.g. ``STACK_LIMIT`` (a path-exploration
#: bound) is not shadowed by ``STACK_ACCESS``'s family.
_CHECK_FAMILIES: tuple[tuple[str, str], ...] = (
    ("STRUCT_", "structural validation (Verifier._check_structure)"),
    ("RES_", "pseudo-instruction resolution (Verifier._resolve_pseudo)"),
    ("COMPLEXITY_LIMIT", "path-exploration budget (Verifier._do_check)"),
    ("PATH_FELL_OFF", "path-exploration bounds (Verifier._do_check)"),
    ("INFINITE_LOOP", "loop-header pruning (VerifierEnv.loop_header_seen)"),
    ("CALL_DEPTH", "call-depth limit (Verifier._do_call)"),
    ("STACK_LIMIT", "combined-stack limit (Verifier._do_call)"),
    ("UNINIT_REGISTER", "register read discipline (do_check operand checks)"),
    ("FRAME_POINTER_WRITE", "register write discipline (Verifier._step)"),
    ("POINTER_PARTIAL_STORE", "pointer spill discipline (Verifier._step)"),
    ("ATOMIC_POINTER_OPERAND", "atomic operand checks (Verifier._do_atomic)"),
    ("LEAK_POINTER_RETURN", "exit-value discipline (Verifier._do_exit)"),
    ("REFERENCE_LEAK", "reference tracking (Verifier._do_exit)"),
    ("REFERENCE_MISUSE", "reference tracking (calls.check_helper_call)"),
    ("LOCK_DISCIPLINE", "spin-lock discipline (calls / Verifier._do_exit)"),
    ("POINTER_ARITHMETIC", "pointer-arithmetic checks (checks.pointer_alu)"),
    ("ALU_INVALID", "ALU operand checks (checks.check_alu)"),
    ("STACK_ACCESS", "stack-access checks (checks._check_stack_access)"),
    ("CTX_ACCESS", "context-access checks (checks._check_ctx_access)"),
    ("MAP_VALUE_ACCESS", "map-value access checks (checks.check_mem_access)"),
    ("PACKET_ACCESS", "packet-access checks (checks.check_mem_access)"),
    ("BTF_ACCESS", "BTF object access checks (checks.check_mem_access)"),
    ("MEM_REGION_OOB", "memory-region bounds (checks.check_mem_access)"),
    ("NULL_POINTER_ACCESS",
     "nullable-pointer checks (checks.check_mem_access)"),
    ("MEM_ACCESS_BAD_POINTER",
     "memory-access pointer checks (checks.check_mem_access)"),
    ("HELPER_", "helper-argument checks (calls.check_helper_call)"),
    ("INV_", "abstract-state invariant sanitizer (verifier.sanity)"),
    ("KERNEL_", "kernel load path (outside the verifier)"),
)


def check_for_reason(reason: str) -> str:
    """The verifier check family a taxonomy reason code belongs to."""
    for prefix, family in _CHECK_FAMILIES:
        if reason.startswith(prefix):
            return family
    return "unknown check"


@dataclass
class Explanation:
    """A reconstructed answer to "why was this program rejected"."""

    program: str
    errno: int | None
    message: str
    #: taxonomy reason code (:mod:`repro.obs.taxonomy`)
    reason: str
    #: instruction index the verifier was at when it rejected
    insn_idx: int
    #: disassembly of that instruction (None when unavailable)
    insn_text: str | None
    #: the verifier check family that fired
    check: str
    #: abstract register state at the failing instruction (last
    #: ``step`` snapshot; empty for pre-``do_check`` rejects)
    registers: dict[str, str] = field(default_factory=dict)
    #: the last decision events before the verdict, oldest first
    trail: list[dict] = field(default_factory=list)
    #: root-cause definition site from the bound-provenance pass
    #: (:func:`repro.analysis.dataflow.bound_provenance`): the
    #: instruction that *produced* the offending value, which is
    #: usually earlier than the failing instruction the verifier
    #: reports.  ``None`` when no register could be attributed.
    root_cause: dict | None = None

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "errno": self.errno,
            "message": self.message,
            "reason": self.reason,
            "insn_idx": self.insn_idx,
            "insn_text": self.insn_text,
            "check": self.check,
            "registers": dict(self.registers),
            "trail": [dict(event) for event in self.trail],
            "root_cause": dict(self.root_cause) if self.root_cause else None,
        }

    def render(self) -> str:
        """Multi-line human-readable form (the ``repro explain`` output)."""
        lines = [
            f"program {self.program!r} rejected"
            + (f" (errno {self.errno})" if self.errno is not None else "")
            + f": {self.message}",
            f"  reason: {self.reason}",
            f"  check:  {self.check}",
            f"  at insn {self.insn_idx}"
            + (f": {self.insn_text}" if self.insn_text else ""),
        ]
        if self.root_cause:
            root_idx = self.root_cause.get("insn_idx", -1)
            reg = self.root_cause.get("reg")
            where = (
                "frame entry (register never written)"
                if root_idx < 0
                else f"insn {root_idx}: "
                     f"{self.root_cause.get('insn_text', '?')}"
            )
            lines.append(
                f"  root cause (r{reg} provenance): {where}"
            )
        if self.registers:
            lines.append("  registers at the failing instruction:")
            for name, value in self.registers.items():
                lines.append(f"    {name} = {value}")
        if self.trail:
            lines.append(f"  last {len(self.trail)} decisions:")
            for event in self.trail:
                lines.append("    " + _format_event(event))
        return "\n".join(lines)


def _format_event(event: dict) -> str:
    kind = event.get("kind", "?")
    seq = event.get("seq", -1)
    insn = event.get("insn", "")
    if kind == "begin":
        return f"[{seq:>4}] begin    {event.get('program')} " \
               f"({event.get('insns', 0)} insns)"
    if kind == "step":
        frames = event.get("frames")
        extra = f" frames={frames}" if frames is not None else ""
        return f"[{seq:>4}] step     insn {insn}{extra}"
    if kind == "prune":
        return (f"[{seq:>4}] prune    insn {insn} "
                f"{event.get('point')}:{event.get('outcome')}")
    if kind == "refine":
        return (f"[{seq:>4}] refine   insn {insn} {event.get('reg')} "
                f"{event.get('detail')}")
    if kind == "patch":
        return (f"[{seq:>4}] patch    insn {insn} {event.get('patch')}: "
                f"{event.get('detail')}")
    if kind == "verdict":
        return (f"[{seq:>4}] verdict  {event.get('verdict')} at insn {insn}: "
                f"{event.get('message', '')}")
    return f"[{seq:>4}] {kind}"


def explain_events(
    events: list[dict],
    *,
    message: str = "",
    errno: int | None = None,
    program: str | None = None,
    insns=None,
    trail: int = TRAIL_LENGTH,
    analysis=None,
) -> Explanation:
    """Reconstruct an explanation from a recorded event list.

    ``message``/``errno``/``program`` override what the terminal
    ``verdict`` event carries (the campaign passes the post-processed
    ``final_message`` form, which is what the taxonomy classifies).
    ``insns`` (the submitted instruction list) enables disassembly of
    the failing instruction; ``analysis``, a function returning their
    :func:`~repro.analysis.dataflow.analyze` result (see
    :func:`~repro.analysis.dataflow.lazy_analysis`), lets the
    root-cause pass share the caller's analysis.
    """
    verdict_event: dict | None = None
    for event in reversed(events):
        if event.get("kind") == "verdict" and event.get("verdict") != "accept":
            verdict_event = event
            break

    if not message and verdict_event is not None:
        message = verdict_event.get("message", "")
    if errno is None and verdict_event is not None:
        errno = verdict_event.get("errno")
    if program is None:
        program = (verdict_event or {}).get("program") or "?"

    reason = classify(message) if message else UNCLASSIFIED
    insn_idx = verdict_event.get("insn", -1) if verdict_event else -1
    if insn_idx < 0:
        insn_idx = 0

    # The offending abstract state: the last register snapshot recorded
    # before the verdict (every step event carries one).
    registers: dict[str, str] = {}
    for event in reversed(events):
        if event.get("kind") == "step" and "regs" in event:
            registers = dict(event["regs"])
            break

    insn_text = None
    if insns is not None and 0 <= insn_idx < len(insns):
        from repro.ebpf.disasm import format_insn

        try:
            insn_text = format_insn(insns[insn_idx])
        except (KeyError, ValueError):
            # Structural rejections can point at undecodable opcodes —
            # exactly the instructions the disassembler has no name for.
            insn = insns[insn_idx]
            insn_text = (f"(undecodable: opcode=0x{insn.opcode:02x} "
                         f"dst={insn.dst} src={insn.src})")

    root_cause = None
    if insns is not None and 0 <= insn_idx < len(insns):
        root_cause = _root_cause(insns, insn_idx, message, analysis)

    return Explanation(
        program=program,
        errno=errno,
        message=message,
        reason=reason,
        insn_idx=insn_idx,
        insn_text=insn_text,
        check=check_for_reason(reason),
        registers=registers,
        trail=[dict(event) for event in events[-trail:]],
        root_cause=root_cause,
    )


def _root_cause(insns, insn_idx: int, message: str,
                analysis=None) -> dict | None:
    """Backfill the failing instruction with its root-cause def site.

    The verifier reports where it *noticed* the problem; the
    bound-provenance pass (:mod:`repro.analysis.dataflow`) walks the
    offending register's reaching definitions back to the instruction
    that produced the value.  Imported lazily: the analysis package
    pulls in campaign modules, and this module must stay importable
    from them.  Pure function of the program text — deterministic, so
    merged ``taxonomy.explanations`` stay worker-count invariant.
    """
    import re

    from repro.analysis.dataflow import ENTRY_DEF, bound_provenance, insn_uses

    # Which register is the complaint about?  The message names it for
    # the register-discipline family ("R3 !read_ok"); otherwise fall
    # back to the first register the failing instruction reads.
    reg = None
    match = re.search(r"\bR(\d+)\b", message)
    if match and 0 <= int(match.group(1)) <= 10:
        reg = int(match.group(1))
    if reg is None:
        uses = insn_uses(insns[insn_idx])
        if not uses:
            return None
        reg = uses[0]

    try:
        prov = bound_provenance(insns, insn_idx, reg,
                                flow=analysis() if analysis else None)
    except (IndexError, ValueError):  # pragma: no cover - defensive
        return None
    if prov.root_idx == insn_idx:
        return None  # the failing instruction IS the producer

    insn_text = None
    if prov.root_idx != ENTRY_DEF:
        from repro.ebpf.disasm import format_insn

        try:
            insn_text = format_insn(insns[prov.root_idx])
        except (KeyError, ValueError):
            insn_text = (f"(undecodable: opcode="
                         f"0x{insns[prov.root_idx].opcode:02x})")
    return {
        "insn_idx": prov.root_idx,
        "reg": reg,
        "insn_text": insn_text,
        "chain": [list(link) for link in prov.chain],
    }


def explain_program(
    kernel, prog, *, sanitize: bool = False, check_invariants: bool = False
) -> Explanation | None:
    """Verify ``prog`` under a flight recorder and explain.

    Returns ``None`` when the program is accepted.  The current sinks
    are preserved — the recorder joins the current observer — and
    restored on exit.
    """
    from repro import obs
    from repro.errors import BpfError, InvariantViolation, VerifierReject
    from repro.obs.events import FlightRecorder
    from repro.verifier.log import final_message

    recorder = FlightRecorder()
    token = obs.install(obs.metrics(), obs.recorder(),
                        obs.compose(obs.observer(), recorder))
    try:
        kernel.prog_load(
            prog, sanitize=sanitize, check_invariants=check_invariants
        )
        return None
    except VerifierReject as reject:
        return explain_events(
            recorder.snapshot(),
            message=final_message(reject.log) or reject.message,
            errno=reject.errno,
            program=prog.name,
            insns=prog.insns,
        )
    except InvariantViolation as violation:
        return explain_events(
            recorder.snapshot(),
            message=str(violation),
            program=prog.name,
            insns=prog.insns,
        )
    except BpfError as error:
        return explain_events(
            recorder.snapshot(),
            message=error.message,
            errno=error.errno,
            program=prog.name,
            insns=prog.insns,
        )
    finally:
        obs.restore(token)


def build_selftest(name: str, kernel):
    """Build one selftest-corpus program by name on ``kernel``.

    Raises ``KeyError`` for an unknown name.
    """
    from repro.testsuite import all_selftests_extended

    for selftest in all_selftests_extended():
        if selftest.name == name:
            return selftest.build(kernel)
    raise KeyError(f"no selftest named {name!r}")


def explain_selftest(
    name: str, kernel_version: str = "patched", sanitize: bool = False
) -> Explanation | None:
    """Explain one selftest-corpus program by name.

    Raises ``KeyError`` for an unknown name; returns ``None`` when the
    program is accepted on the given kernel profile.
    """
    from repro.kernel.config import PROFILES
    from repro.kernel.syscall import Kernel

    kernel = Kernel(PROFILES[kernel_version]())
    prog = build_selftest(name, kernel)
    return explain_program(kernel, prog, sanitize=sanitize)


def replay_iteration(config, iteration: int):
    """Re-generate campaign iteration ``iteration`` deterministically.

    Campaign generation is a deterministic stream: reproducing
    iteration *N* requires replaying iterations ``0..N-1`` first (they
    advance the RNG and may have grown the mutation corpus).  This runs
    a campaign with ``budget=N`` — cheap at explain-time scales — then
    generates program
    *N*.  Returns ``(campaign, kernel, gp, prog)``.
    """
    from dataclasses import replace

    from repro.ebpf.program import BpfProgram
    from repro.fuzz.campaign import Campaign
    from repro.kernel.syscall import Kernel

    replay_config = replace(config, budget=iteration, flight=False,
                            profile=False, trace_path=None)
    campaign = Campaign(replay_config)
    if iteration > 0:
        campaign.run()
    kernel = Kernel(campaign.kernel_config)
    gp = campaign._next_program(kernel)
    prog = BpfProgram(
        insns=list(gp.insns),
        prog_type=gp.prog_type,
        name=f"{gp.origin}_{iteration}",
        offload_dev=gp.offload_dev,
    )
    return campaign, kernel, gp, prog


def explain_iteration(config, iteration: int) -> Explanation | None:
    """Re-generate campaign iteration ``iteration`` and explain it."""
    _, kernel, _, prog = replay_iteration(config, iteration)
    sanitize = config.sanitize and kernel.config.sanitizer_available
    return explain_program(kernel, prog, sanitize=sanitize)


def describe_accepted(
    subject: str, kernel_version: str, *, prog=None, gp=None
) -> str:
    """The ``repro explain`` summary for an accepted program.

    An acceptance has no rejection trail to reconstruct, so the useful
    output is what the verifier saw: program shape, frame composition,
    instruction count.  Pure string builder — callers verify first.
    """
    lines = [
        f"verdict: accepted — {subject} passed the {kernel_version} "
        "verifier, nothing to explain"
    ]
    if prog is not None:
        real = sum(1 for insn in prog.insns if not insn.is_filler())
        lines.append(
            f"  program: {prog.name} type={prog.prog_type.name} "
            f"insns={real}"
        )
    if gp is not None:
        lines.append(f"  origin:  {gp.origin}")
        kinds = sorted(set(gp.frame_kinds)) if gp.frame_kinds else []
        if kinds:
            lines.append("  frames:  " + ", ".join(kinds))
        else:
            lines.append("  frames:  (unstructured)")
    return "\n".join(lines)
