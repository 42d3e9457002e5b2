"""Campaign-driver tests (small budgets; the benches run the real ones)."""

from __future__ import annotations

import errno
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro import obs
from repro.ebpf import asm
from repro.ebpf.opcodes import Reg
from repro.ebpf.program import BpfProgram, ProgType
from repro.errors import BpfError, InvariantViolation
from repro.fuzz.campaign import (
    STAGES,
    Campaign,
    CampaignConfig,
    make_generator,
)
from repro.fuzz.coverage import VerifierCoverage
from repro.fuzz.rng import FuzzRng
from repro.kernel.config import PROFILES, KernelConfig
from repro.kernel.syscall import Kernel, replay_kernel
from repro.obs.events import EVENTS, FlightRecorder, Observer


class TestCampaign:
    def test_basic_run(self):
        result = Campaign(
            CampaignConfig(tool="bvf", budget=40, seed=1)
        ).run()
        assert result.generated == 40
        assert 0 < result.accepted <= 40
        assert result.final_coverage > 0
        assert result.coverage_curve[-1][1] == result.final_coverage

    def test_coverage_curve_monotonic(self):
        result = Campaign(
            CampaignConfig(tool="bvf", budget=50, seed=2, sample_every=5)
        ).run()
        values = [v for _, v in result.coverage_curve]
        assert values == sorted(values)

    def test_deterministic(self):
        a = Campaign(CampaignConfig(tool="bvf", budget=30, seed=7)).run()
        b = Campaign(CampaignConfig(tool="bvf", budget=30, seed=7)).run()
        assert a.accepted == b.accepted
        assert sorted(a.findings) == sorted(b.findings)

    def test_no_findings_on_patched_kernel(self):
        """The no-false-positive guarantee, fleet-scale."""
        result = Campaign(
            CampaignConfig(tool="bvf", kernel_version="patched", budget=120,
                           seed=3)
        ).run()
        assert result.findings == {}

    def test_bvf_finds_bugs_on_flawed_kernel(self):
        result = Campaign(
            CampaignConfig(tool="bvf", kernel_version="bpf-next", budget=250,
                           seed=4)
        ).run()
        assert len(result.findings) >= 3

    def test_baselines_find_nothing_modest_budget(self):
        for tool in ("syzkaller", "buzzer"):
            result = Campaign(
                CampaignConfig(tool=tool, kernel_version="bpf-next",
                               budget=120, seed=5, sanitize=False)
            ).run()
            verifier_bugs = [f for f in result.findings.values()
                             if f.indicator == "indicator1"]
            assert verifier_bugs == []

    def test_corpus_grows(self):
        result = Campaign(CampaignConfig(tool="bvf", budget=60, seed=6)).run()
        assert result.corpus_size > 0

    def test_unknown_tool_rejected(self):
        with pytest.raises(ValueError):
            make_generator("afl", Kernel(PROFILES["patched"]()), FuzzRng(0))

    def test_without_coverage_collection(self):
        result = Campaign(
            CampaignConfig(tool="bvf", budget=25, seed=8,
                           collect_coverage=False)
        ).run()
        assert result.final_coverage == 0
        assert result.generated == 25


class _CountingRecorder(FlightRecorder):
    def __init__(self) -> None:
        super().__init__()
        self.begins = 0

    def begin(self, program, n_insns=0) -> None:
        self.begins += 1
        super().begin(program, n_insns)


class _EveryLoadFlight(Campaign):
    """The wiring the recorder used to have: ``run`` installs it
    process-wide (the test patches ``obs.install`` for that), so every
    verification of the run feeds the ring, not just the primary one."""

    def _load(self, kernel, prog):
        flight, self._flight = self._flight, None
        try:
            return super()._load(kernel, prog)
        finally:
            self._flight = flight


class TestFlightScope:
    CONFIG = CampaignConfig(tool="bvf", kernel_version="bpf-next", budget=80,
                            seed=3, differential=True, repair_feedback=True)

    def _run(self, monkeypatch, campaign_class):
        recorders: list[_CountingRecorder] = []

        def make_recorder():
            recorders.append(_CountingRecorder())
            return recorders[-1]

        campaign = campaign_class(self.CONFIG)
        with monkeypatch.context() as patch:
            patch.setattr(obs, "FlightRecorder", make_recorder)
            if campaign_class is _EveryLoadFlight:
                install = obs.install

                def install_with_flight(registry=None, trace_recorder=None,
                                        observer=None):
                    return install(registry, trace_recorder,
                                   obs.compose(campaign._flight, observer))

                patch.setattr(obs, "install", install_with_flight)
            result = campaign.run()
        (recorder,) = recorders
        return result, recorder.begins

    def test_recorder_sees_only_the_primary_load(self, monkeypatch):
        result, begins = self._run(monkeypatch, Campaign)
        wide, wide_begins = self._run(monkeypatch, _EveryLoadFlight)
        assert begins == self.CONFIG.budget
        # Differential, triage and repair verifications fed the ring too.
        assert wide_begins > begins
        assert result.reject_explanations
        assert sum(result.repairs_verified.values()) > 0
        assert result.reject_explanations == wide.reject_explanations
        assert result.repairs_attempted == wide.repairs_attempted
        assert result.repairs_verified == wide.repairs_verified
        assert result.repair_examples == wide.repair_examples


class TestDifferentialNeverSteers:
    """The differential oracle reads the primary load's config reads
    and verdict; it must never change what the campaign does.  A
    recorder that added or skipped one coverage block on the primary
    load would show here as a different edge sample."""

    @pytest.mark.parametrize("seed", [3, 7])
    @pytest.mark.parametrize("repair_feedback", [False, True],
                             ids=["plain", "repair-feedback"])
    def test_same_campaign_with_and_without(self, seed, repair_feedback):
        def run(differential: bool):
            return Campaign(CampaignConfig(
                budget=120, seed=seed, differential=differential,
                repair_feedback=repair_feedback)).run()

        off, on = run(False), run(True)
        assert on.divergences and not off.divergences
        assert on.edge_samples == off.edge_samples
        assert on.accepted == off.accepted
        assert on.corpus_size == off.corpus_size
        assert on.reject_reasons == off.reject_reasons
        assert on.repairs_verified == off.repairs_verified


class TestPrimaryLoadReplaySafe:
    """A harness may replay the primary ``prog_load`` once its coverage
    window closes, on a fresh kernel booted from ``kernel.config`` (the
    benchmark's shadow load does).  By then the read recorder is gone,
    so the replay reads the real config and records nothing."""

    def test_replay_after_the_window_changes_nothing(self, monkeypatch):
        config = CampaignConfig(budget=60, seed=4, differential=True,
                                repair_feedback=True)
        plain = Campaign(config).run()

        loads, replayed = [], []
        prog_load, collect = Kernel.prog_load, VerifierCoverage.collect

        def noted_load(kernel, prog, *args, **kwargs):
            loads.append((kernel, prog, args, kwargs))
            return prog_load(kernel, prog, *args, **kwargs)

        @contextmanager
        def replaying_collect(self):
            del loads[:]
            try:
                with collect(self) as edges:
                    yield edges
            finally:
                for kernel, prog, args, kwargs in loads[:1]:
                    assert type(kernel.config) is KernelConfig
                    assert kernel.helpers.config is kernel.config
                    shadow = replay_kernel(
                        kernel.config,
                        SimpleNamespace(maps=list(_maps_of(kernel))))
                    try:
                        prog_load(shadow, prog, *args, **kwargs)
                    except (BpfError, InvariantViolation):
                        pass
                    replayed.append(prog.name)

        monkeypatch.setattr(Kernel, "prog_load", noted_load)
        monkeypatch.setattr(VerifierCoverage, "collect", replaying_collect)
        shadowed = Campaign(config).run()
        assert len(replayed) == config.budget
        assert shadowed.divergences == plain.divergences
        assert shadowed.findings.keys() == plain.findings.keys()
        assert shadowed.edge_samples == plain.edge_samples
        assert (shadowed.metrics["counters"]["differential.primary"]
                == plain.metrics["counters"]["differential.primary"])


def _maps_of(kernel):
    """The maps of ``kernel``, in fd order."""
    fd = 3
    while (bpf_map := kernel.map_by_fd(fd)) is not None:
        yield bpf_map
        fd += 1


class _StageLog(Campaign):
    """Logs every stage it enters, and fails if one opens inside
    another."""

    def __init__(self, config: CampaignConfig) -> None:
        super().__init__(config)
        self.entered: list[str] = []
        self.current: str | None = None

    @contextmanager
    def _stage(self, name):
        assert self.current is None, f"{name} inside {self.current}"
        self.entered.append(name)
        self.current = name
        try:
            with super()._stage(name):
                yield
        finally:
            self.current = None

    def iterations(self) -> list[list[str]]:
        """The entered stages, split into iterations."""
        runs: list[list[str]] = []
        for name in self.entered:
            if name == "generate":
                runs.append([])
            runs[-1].append(name)
        return runs


class TestStages:
    """An iteration is a flat sequence of :data:`STAGES`: each stage is
    one clock phase and one profiler root, and none runs inside
    another."""

    @pytest.fixture(scope="class")
    def profiled(self):
        config = CampaignConfig(budget=300, seed=1, profile=True,
                                differential=True, repair_feedback=True)
        return Campaign(config).run()

    def test_profile_roots_are_stages(self, profiled):
        nodes = profiled.profile["counts"]["nodes"]
        roots = {path for path in nodes if "/" not in path}
        assert roots <= set(STAGES)
        assert nodes["verify"] == profiled.generated
        # Repair loads and triage replays sit under their own stage.
        assert "repair/do_check" in nodes
        assert "triage/do_check" in nodes

    def test_stage_seconds_are_the_clock_phases(self, profiled):
        hists = profiled.metrics["wall"]["histograms"]
        assert set(profiled.stage_seconds) == set(STAGES)
        for stage, seconds in profiled.stage_seconds.items():
            assert seconds > 0
            assert hists[f"phase.{stage}.seconds"]["sum"] == pytest.approx(
                seconds)

    def test_stages_cover_the_wall(self):
        result = Campaign(CampaignConfig(budget=100, seed=2)).run()
        busy = sum(result.stage_seconds.values())
        assert busy <= result.wall_seconds
        assert busy >= 0.9 * result.wall_seconds

    def test_flat_sequence_in_order(self, monkeypatch):
        from repro.fuzz.oracle import Oracle

        campaign = _StageLog(CampaignConfig(
            budget=80, seed=4, differential=True, repair_feedback=True))
        classified = []
        for name in ("classify_report", "classify_syscall_error"):
            method = getattr(Oracle, name)

            def logged(oracle, *args, _method=method):
                classified.append(campaign.current)
                return _method(oracle, *args)

            monkeypatch.setattr(Oracle, name, logged)
        result = campaign.run()
        runs = campaign.iterations()
        assert len(runs) == result.generated
        accepted = 0
        for stages in runs:
            assert stages == sorted(stages, key=STAGES.index)
            assert stages[:2] == ["generate", "verify"]
            assert "differential" in stages and "coverage" in stages
            if "execute" in stages:
                accepted += 1
                assert "explain" not in stages and "repair" not in stages
            else:
                assert "repair" in stages and "triage" not in stages
        assert accepted == result.accepted
        # Execution captures; only triage classifies.
        assert classified and set(classified) == {"triage"}

    def test_invariant_violation_is_triaged(self):
        class Broken(_StageLog):
            def _load(self, kernel, prog):
                if prog.name.endswith("_3"):
                    raise InvariantViolation("test-code", "broken",
                                             insn_idx=0, regno=1)
                return super()._load(kernel, prog)

        campaign = Broken(CampaignConfig(budget=6, seed=1,
                                         check_invariants=True))
        result = campaign.run()
        finding = result.findings["invariant:test-code"]
        assert (finding.iteration, finding.indicator) == (3, "invariant")
        assert result.reject_errnos[errno.EFAULT] >= 1
        assert campaign.iterations()[3] == [
            "generate", "verify", "coverage", "triage"]

    def test_unobserved_campaign_calls_no_observer(self, monkeypatch):
        """With every verifier subscriber off, no observer is installed
        and no observer method runs: the exact count behind the no-op
        observer wall-time gate of ``benchmarks/test_throughput.py``."""
        calls = []
        for name in EVENTS:
            def counted(self, *args, _name=name):
                calls.append(_name)

            monkeypatch.setattr(Observer, name, counted)

        class Unobserved(_StageLog):
            @contextmanager
            def _stage(self, name):
                with super()._stage(name):
                    assert obs.observer() is None
                    yield
                    assert obs.observer() is None

        campaign = Unobserved(CampaignConfig(
            budget=50, seed=0, profile=False, flight=False,
            trace_path=None, check_invariants=False))
        campaign.run()
        assert len(campaign.iterations()) == 50
        assert calls == []
        # The count is live: one load under a bare Observer calls in.
        token = obs.install(observer=Observer())
        try:
            Kernel(PROFILES["patched"]()).prog_load(
                BpfProgram(insns=[asm.mov64_imm(Reg.R0, 0), asm.exit_insn()],
                           prog_type=ProgType.SOCKET_FILTER))
        finally:
            obs.restore(token)
        assert "begin" in calls and "verdict" in calls
