"""Repair synthesizer: verified reject→accept flips over the corpus.

The acceptance bar from the issue: at least 40% of rejected selftest
programs must receive a verified minimal patch, every reported repair
must actually re-verify (no "plausible" repairs), and repair artifacts
must be bit-identical for workers=1 vs 4.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.analysis import dataflow
from repro.analysis import repair as repair_module
from repro.analysis.repair import (
    MAX_VERIFY_ATTEMPTS,
    propose_repairs,
    repair_diff,
    synthesize_repair,
)
from repro.ebpf import asm
from repro.ebpf.insn import Insn, encode_program
from repro.ebpf.opcodes import Reg
from repro.ebpf.program import BpfProgram
from repro.errors import (
    BpfError,
    EncodingError,
    InvariantViolation,
    VerifierReject,
)
from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.generator import StructuredGenerator
from repro.fuzz.parallel import ParallelCampaign
from repro.fuzz.rng import FuzzRng
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.obs.artifact import build_artifact, strip_wall
from repro.obs.explain import build_selftest, explain_events, explain_program
from repro.testsuite import all_selftests_extended

#: Issue acceptance floor: fraction of rejected selftests that must
#: receive a verified repair.
MIN_VERIFIED_RATE = 0.40


def _rejected_selftests():
    """(name, prog, explanation) for every selftest 'patched' rejects."""
    rejected = []
    for selftest in all_selftests_extended():
        kernel = Kernel(PROFILES["patched"]())
        try:
            prog = selftest.build(kernel)
        except Exception:
            continue
        if not prog.insns:
            continue
        explanation = explain_program(kernel, prog, sanitize=False)
        if explanation is not None:
            rejected.append((selftest.name, prog, explanation))
    return rejected


def test_verified_repair_rate_over_rejected_corpus():
    rejected = _rejected_selftests()
    assert len(rejected) >= 20, "corpus must produce rejections to repair"

    verified = []
    for name, prog, explanation in rejected:
        kernel = Kernel(PROFILES["patched"]())
        repair = synthesize_repair(
            kernel, prog,
            reason=explanation.reason,
            message=explanation.message,
            insn_idx=explanation.insn_idx,
        )
        if repair is not None:
            verified.append((name, prog, repair))

    rate = len(verified) / len(rejected)
    print(f"\nverified repairs: {len(verified)}/{len(rejected)} "
          f"({rate:.1%})")
    assert rate >= MIN_VERIFIED_RATE, (
        f"verified repair rate {rate:.1%} below the "
        f"{MIN_VERIFIED_RATE:.0%} floor"
    )

    # Every reported repair must *independently* re-verify: load the
    # patched program on a fresh kernel and expect acceptance.
    for name, prog, repair in verified:
        fresh = Kernel(PROFILES["patched"]())
        patched = BpfProgram(
            insns=list(repair.patched),
            prog_type=prog.prog_type,
            name=f"{name}+reverify",
        )
        try:
            fresh.prog_load(patched)
        except (VerifierReject, BpfError) as exc:
            raise AssertionError(
                f"{name}: reported repair [{repair.template}] does not "
                f"re-verify: {exc}"
            ) from exc
        # A repair of a rejected program must actually change it.
        assert repair.patched != repair.original
        assert repair.edit_distance >= 1


def test_repair_candidates_are_deduped_and_ordered():
    rejected = _rejected_selftests()
    for name, prog, explanation in rejected[:25]:
        candidates = propose_repairs(
            list(prog.insns),
            explanation.reason,
            explanation.message,
            explanation.insn_idx,
        )
        # Sorted by (edit distance, template order): never a cheaper
        # candidate after a more expensive one.
        distances = [c.edit_distance for c in candidates]
        assert distances == sorted(distances), name
        # No duplicate patched programs.
        seen = set()
        for candidate in candidates:
            key = tuple(
                (i.opcode, i.dst, i.src, i.off, i.imm)
                for i in candidate.insns
            )
            assert key not in seen, f"{name}: duplicate candidate"
            seen.add(key)


def test_repair_to_dict_is_wall_free_and_deterministic():
    rejected = _rejected_selftests()
    name, prog, explanation = rejected[0]

    def run():
        kernel = Kernel(PROFILES["patched"]())
        repair = synthesize_repair(
            kernel, prog,
            reason=explanation.reason,
            message=explanation.message,
            insn_idx=explanation.insn_idx,
        )
        assert repair is not None
        return repair.to_dict()

    first, second = run(), run()
    assert first == second
    payload = json.dumps(first)
    for field in ("seconds", "wall", "time"):
        assert field not in payload


def test_repair_artifacts_worker_invariant():
    """workers=1 vs 4: the repair section must merge bit-identically."""

    def run(workers: int) -> dict:
        config = CampaignConfig(
            tool="bvf", kernel_version="bpf-next", budget=90,
            seed=11, sanitize=True, repair_feedback=True,
        )
        result = ParallelCampaign(config, workers=workers, shards=3).run()
        return strip_wall(build_artifact(result))

    serial, parallel = run(1), run(4)
    assert serial["repair"] == parallel["repair"]
    assert serial["repair"]["enabled"] is True
    assert serial["repair"]["attempted"] > 0
    assert serial["repair"]["verified"] > 0
    # The whole stripped artifact stays invariant with repairs on.
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(parallel, sort_keys=True)


def test_repair_feedback_grows_corpus_deterministically():
    """Verified repairs enter the corpus under origin bvf-repair."""
    from repro.fuzz.campaign import Campaign

    config = CampaignConfig(
        tool="bvf", kernel_version="bpf-next", budget=60,
        seed=3, sanitize=True, repair_feedback=True,
    )
    campaign = Campaign(config)
    result = campaign.run()
    assert sum(result.repairs_verified.values()) > 0
    origins = {entry.origin for entry in campaign.corpus.entries}
    assert "bvf-repair" in origins


def test_repair_cli_selftest(capsys):
    """`repro repair <rejected selftest>` prints a verified patch."""
    from repro.__main__ import main

    rejected = _rejected_selftests()
    # Pick a deterministic, simple subject: the first rejected name.
    name = rejected[0][0]
    code = main(["repair", name])
    out = capsys.readouterr().out
    assert code == 0
    assert "suggested repair" in out
    assert "patched program (verified accept):" in out

    code = main(["repair", name, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["template"]
    assert payload["diff"]


def test_repair_cli_accepted_program_exits_nonzero(capsys):
    from repro.__main__ import main

    # Find an accepted selftest.
    accepted_name = None
    for selftest in all_selftests_extended():
        kernel = Kernel(PROFILES["patched"]())
        try:
            prog = selftest.build(kernel)
        except Exception:
            continue
        if not prog.insns:
            continue
        if explain_program(kernel, prog, sanitize=False) is None:
            accepted_name = selftest.name
            break
    assert accepted_name is not None
    code = main(["repair", accepted_name])
    out = capsys.readouterr().out
    assert code == 1
    assert "nothing to repair" in out


def _sanitized_reference(kernel, prog, explanation):
    """The repair as synthesis found it when every candidate was loaded
    with the sanitizer pass: the first of the ranked, encodable
    candidates that ``prog_load(sanitize=True)`` accepts."""
    candidates = [candidate for candidate in propose_repairs(
        prog.insns, explanation.reason, explanation.message,
        explanation.insn_idx) if _encodes(candidate.insns)]
    for attempt, candidate in enumerate(
            candidates[:MAX_VERIFY_ATTEMPTS], start=1):
        try:
            kernel.prog_load(BpfProgram(insns=list(candidate.insns),
                                        prog_type=prog.prog_type),
                             sanitize=True)
        except (VerifierReject, BpfError, InvariantViolation):
            continue
        return candidate.template, list(candidate.insns), attempt
    return None


def _generated_rejects(count: int):
    """(kernel, prog, explanation) for the bpf-next rejects among
    ``count`` generated programs."""
    rng = FuzzRng(5)
    generator = StructuredGenerator(None, rng)
    rejects = []
    for _ in range(count):
        kernel = Kernel(PROFILES["bpf-next"]())
        gp = generator.generate(kernel)
        prog = BpfProgram(insns=list(gp.insns), prog_type=gp.prog_type)
        explanation = explain_program(kernel, prog, sanitize=True)
        if explanation is not None:
            rejects.append((kernel, prog, explanation))
    return rejects


def _selftest_rejects():
    """(two kernels holding the program's maps, prog, explanation) for
    every selftest 'patched' rejects."""
    subjects = []
    for name, prog, explanation in _rejected_selftests():
        kernels = [Kernel(PROFILES["patched"]()) for _ in range(2)]
        for kernel in kernels:
            build_selftest(name, kernel)
        subjects.append((kernels, prog, explanation))
    return subjects


def test_verdict_only_candidates_find_the_sanitized_repair():
    """Fixup, where the sanitizer runs, never rejects: loading the
    candidates without it finds the same repair at the same attempt."""
    subjects = _selftest_rejects()
    for kernel, prog, explanation in _generated_rejects(200):
        subjects.append(([kernel, kernel], prog, explanation))
    found = 0
    for (kernel, other), prog, explanation in subjects:
        reference = _sanitized_reference(other, prog, explanation)
        repair = synthesize_repair(
            kernel, prog, reason=explanation.reason,
            message=explanation.message, insn_idx=explanation.insn_idx,
        )
        assert (None if repair is None else (
            repair.template, repair.patched, repair.attempts)) == reference
        found += repair is not None
    assert found >= len(subjects) // 2


def test_repair_cli_output_matches_the_sanitized_repair(capsys):
    """`repro repair --sanitize` reports the repair that loading each
    candidate with the sanitizer would have found."""
    from repro.__main__ import main

    repaired = 0
    for name, prog, explanation in _rejected_selftests()[:12]:
        kernel = Kernel(PROFILES["patched"]())
        build_selftest(name, kernel)
        reference = _sanitized_reference(kernel, prog, explanation)
        if main(["repair", name, "--sanitize", "--json"]) != 0:
            assert reference is None, name
            capsys.readouterr()
            continue
        repaired += 1
        payload = json.loads(capsys.readouterr().out)
        template, patched, attempts = reference
        assert (payload["template"], payload["attempts"]) == (
            template, attempts), name
        assert payload["diff"] == repair_diff(prog.insns, patched), name
    assert repaired >= 5


def test_unencodable_candidates_are_skipped_without_an_attempt():
    # r16 does not fit the register field: the codec cannot encode the
    # program, nor any candidate that keeps that instruction, and only
    # the candidate that replaces it is loaded.
    insns = [asm.mov64_imm(Reg.R0, 0),
             Insn(opcode=asm.mov64_imm(Reg.R1, 0).opcode, dst=16),
             asm.exit_insn()]
    args = ("STRUCT_BAD_REGISTER", "invalid register number at 1", 1)
    templates = [c.template for c in propose_repairs(insns, *args)]
    assert "nop-failing-insn" in templates and len(templates) > 1
    repair = synthesize_repair(Kernel(PROFILES["patched"]()),
                               BpfProgram(insns=insns), reason=args[0],
                               message=args[1], insn_idx=args[2])
    assert (repair.template, repair.attempts) == ("nop-failing-insn", 1)


def test_candidates_never_repeat_the_original():
    for name, prog, explanation in _rejected_selftests():
        for candidate in propose_repairs(
                prog.insns, explanation.reason, explanation.message,
                explanation.insn_idx):
            assert candidate.insns != list(prog.insns), name


def test_one_dataflow_analysis_per_repaired_rejection(monkeypatch):
    """The explanation's root cause and the repair templates share one
    analysis of the rejected program, run only when one of them reads
    it: a new reason's explanation, or a tried candidate of
    ``init-at-entry``, ``divert-fp-write`` or ``break-back-edge``."""
    calls = []
    analyze = dataflow.analyze

    def counted(insns, cfg=None):
        calls.append(len(insns))
        return analyze(insns, cfg)

    monkeypatch.setattr(dataflow, "analyze", counted)
    result = Campaign(CampaignConfig(budget=60, seed=3, flight=True,
                                     repair_feedback=True)).run()
    rejected = sum(result.reject_reasons.values())
    assert rejected == 21 and len(result.reject_explanations) == 5
    # 5 new-reason explanations and 2 UNINIT_REGISTER rejections whose
    # repair reached init-at-entry; the other 14 run no analysis.
    assert len(calls) == 7


def _eager_synthesis(kernel, prog, *, reason, message, insn_idx,
                     analysis=None, max_attempts=MAX_VERIFY_ATTEMPTS):
    """Synthesis over every candidate built up front, as
    :func:`propose_repairs` builds them."""
    candidates = [candidate for candidate in propose_repairs(
        prog.insns, reason, message, insn_idx, analysis)
        if _encodes(candidate.insns)]
    for attempt, candidate in enumerate(candidates[:max_attempts], 1):
        try:
            kernel.prog_load(BpfProgram(insns=list(candidate.insns),
                                        prog_type=prog.prog_type))
        except (VerifierReject, BpfError, InvariantViolation):
            continue
        return repair_module.Repair(
            template=candidate.template,
            description=candidate.description, reason=reason,
            insn_idx=insn_idx, edit_distance=candidate.edit_distance,
            original=list(prog.insns), patched=list(candidate.insns),
            attempts=attempt)
    return None


def _encodes(insns) -> bool:
    try:
        encode_program(insns)
    except EncodingError:
        return False
    return True


def test_lazy_candidates_repair_as_eager_ones(monkeypatch):
    """Building each candidate only when it is tried finds the repairs
    that building every candidate first finds, at the same attempts,
    and calls ``insert_before`` once per tried insertion candidate."""
    inserted = []
    insert_before = repair_module.insert_before

    def counted_insert(insns, blocks):
        new_insns, index_map = insert_before(insns, blocks)
        inserted.append(tuple(new_insns))
        return new_insns, index_map

    loaded = []
    prog_load = Kernel.prog_load

    def recorded_load(kernel, prog, *args, **kwargs):
        if prog.name.endswith("+repair"):
            loaded.append(tuple(prog.insns))
        return prog_load(kernel, prog, *args, **kwargs)

    config = CampaignConfig(budget=160, seed=3, repair_feedback=True)
    monkeypatch.setattr(repair_module, "insert_before", counted_insert)
    monkeypatch.setattr(Kernel, "prog_load", recorded_load)
    lazy = Campaign(config).run()
    lazy_inserts = len(inserted)
    # Every insertion built was loaded, once: no candidate past the
    # repair, and no duplicate, was built.
    assert lazy_inserts and Counter(inserted) == Counter(
        insns for insns in loaded if insns in set(inserted))

    monkeypatch.setattr(repair_module, "synthesize_repair",
                        _eager_synthesis)
    eager = Campaign(config).run()
    assert sum(eager.repairs_verified.values()) > 0
    for name in ("repairs_attempted", "repairs_verified",
                 "repair_examples"):
        assert getattr(lazy, name) == getattr(eager, name), name
    assert len(inserted) - lazy_inserts > lazy_inserts


def test_shared_analysis_changes_no_explanation_or_candidate():
    for name, prog, explanation in _rejected_selftests():
        flow = dataflow.analyze(prog.insns)
        args = (prog.insns, explanation.reason, explanation.message,
                explanation.insn_idx)
        assert propose_repairs(*args, lambda: flow) == propose_repairs(
            *args), name
        verdict = [{"kind": "verdict", "verdict": "reject",
                    "insn": explanation.insn_idx}]
        assert explain_events(
            verdict, message=explanation.message, insns=prog.insns,
            analysis=lambda: flow) == explain_events(
            verdict, message=explanation.message, insns=prog.insns), name
