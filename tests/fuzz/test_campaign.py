"""Campaign-driver tests (small budgets; the benches run the real ones)."""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro import obs
from repro.errors import BpfError, InvariantViolation
from repro.fuzz.campaign import Campaign, CampaignConfig, make_generator
from repro.fuzz.coverage import VerifierCoverage
from repro.fuzz.rng import FuzzRng
from repro.kernel.config import PROFILES, KernelConfig
from repro.kernel.syscall import Kernel, replay_kernel
from repro.obs.events import FlightRecorder


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
