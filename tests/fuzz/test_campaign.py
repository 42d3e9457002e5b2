"""Campaign-driver tests (small budgets; the benches run the real ones)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.fuzz.campaign import Campaign, CampaignConfig, make_generator
from repro.fuzz.rng import FuzzRng
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
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
