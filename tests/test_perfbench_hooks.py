"""perfbench's hooks enter and leave on this checkout.

``perfbench/spans.py``'s ``instrument`` and ``perfbench/workloads.py``'s
``harness`` patch the program's entry points by name, and
``workloads.py`` imports names from ``src`` at module level.  A rename
or deletion of one of those names breaks the benchmark, and these tests
fail on it instead of the benchmark's first traced run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.analysis import differential, repair
from repro.ebpf import asm
from repro.ebpf.opcodes import Reg
from repro.ebpf.program import ProgType
from repro.errors import SanitizerReport
from repro.fuzz import campaign
from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.coverage import VerifierCoverage
from repro.fuzz.oracle import Oracle
from repro.fuzz.structure import ExecutionPlan, GeneratedProgram
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: (owner, name) of entry points the two hooks replace while active.
PATCHED = (
    (Campaign, "_load"),
    (Campaign, "_iteration"),
    (Campaign, "run"),
    (campaign, "mutate"),
    (repair, "synthesize_repair"),
    (differential.DifferentialOracle, "run"),
    (VerifierCoverage, "collect"),
    (VerifierCoverage, "replay"),
    (Kernel, "prog_load"),
    (Oracle, "classify_report"),
    (Oracle, "classify_syscall_error"),
    (Oracle, "classify_divergence"),
    (Oracle, "classify_invariant"),
)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _entry_points() -> list:
    return [vars(owner)[name] for owner, name in PATCHED]


def _config() -> CampaignConfig:
    return CampaignConfig(budget=8, seed=1, differential=True,
                          repair_feedback=True)


def test_instrument_traces_a_campaign_and_restores(spans):
    before = _entry_points()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert _entry_points() != before
        result = Campaign(_config()).run()
    assert _entry_points() == before
    layers = {span.layer for span in tracer.spans}
    assert {"campaign", "program", "verifier", "fuzz.generator",
            "fuzz.coverage"} <= layers
    assert sum(span.layer == "program" for span in tracer.spans) == (
        result.generated)


def test_harness_logs_every_program_and_restores(workloads):
    before = _entry_points()
    log = workloads.ProgramLog()
    with workloads.harness(log):
        result = Campaign(_config()).run()
    assert _entry_points() == before
    statuses = [status for *_, status in log.records()]
    assert len(statuses) == result.generated
    assert workloads.FAILED not in statuses
    assert statuses.count(workloads.ACCEPTED) == result.accepted


def test_indicator1_replays_are_sited_triage(spans):
    """perfbench's ``verifier.calls_per_program.triage`` counts the
    oracle's replays: each is a ``prog_load`` inside an
    ``Oracle.classify_*`` span, never a differential verification."""
    gp = GeneratedProgram(
        insns=[asm.mov64_imm(Reg.R0, 0), asm.exit_insn()],
        prog_type=ProgType.SOCKET_FILTER, maps=[], plan=ExecutionPlan())
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        finding = Oracle(PROFILES["bpf-next"]()).classify_report(
            SanitizerReport("asan"), gp)
    # No flaw explains an accepted two-insn program: every single and
    # pair fix is replayed, then the all-fixed one.
    assert finding.bug_id == "verifier-unsound"
    sites = [span.attrs["site"] for span in tracer.spans
             if span.layer == "verifier"]
    assert sites == ["triage"] * 7
