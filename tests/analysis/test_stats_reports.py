"""Analysis-layer tests: curves, summaries, bug tables, overhead."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.reports import CVE_ROW, TABLE2_ROWS, render_bug_table
from repro.analysis.stats import (
    OverheadStats,
    ThroughputStats,
    acceptance_summary,
    average_curves,
    coverage_improvement,
)
from repro.fuzz.campaign import CampaignConfig, CampaignResult
from repro.fuzz.oracle import BugFinding
from repro.kernel.config import Flaw


class TestCurves:
    def test_average_pointwise(self):
        curves = [
            [(0, 0), (10, 100), (20, 200)],
            [(0, 10), (10, 110), (20, 210)],
        ]
        assert average_curves(curves) == [(0, 5.0), (10, 105.0), (20, 205.0)]

    def test_truncates_to_common_prefix(self):
        curves = [[(0, 1), (10, 2)], [(0, 3)]]
        assert average_curves(curves) == [(0, 2.0)]

    def test_empty(self):
        assert average_curves([]) == []

    def test_realigns_mismatched_grids(self, caplog):
        # Shards sampled on different x grids: average over the shared
        # x values instead of silently zipping mismatched points.
        curves = [
            [(0, 0), (5, 50), (10, 100), (20, 200)],
            [(0, 10), (10, 110), (15, 160), (20, 210)],
        ]
        with caplog.at_level("WARNING", logger="repro.analysis"):
            averaged = average_curves(curves)
        assert averaged == [(0, 5.0), (10, 105.0), (20, 205.0)]
        # The drop is logged, never silent.
        assert any("dropping" in rec.getMessage() for rec in caplog.records)

    def test_disjoint_grids_raise(self):
        with pytest.raises(ValueError, match="share no x values"):
            average_curves([[(0, 1)], [(5, 2)]])

    def test_duplicate_x_collapses_to_last_sample(self):
        # Shard-merged curves repeat x=0 once per shard; the last
        # sample wins and no spurious drop warning fires.
        curves = [[(0, 1), (0, 3), (10, 5)], [(0, 7), (10, 9)]]
        assert average_curves(curves) == [(0, 5.0), (10, 7.0)]


class TestImprovement:
    def test_positive(self):
        assert coverage_improvement(120, 100) == pytest.approx(20.0)

    def test_paper_table3_values(self):
        # The paper's overall row: BVF 60905 vs Syzkaller 50062 and
        # Buzzer 9502 — the improvements it headlines.
        assert coverage_improvement(60905, 50062) == pytest.approx(21.66, abs=0.1)
        assert coverage_improvement(60905, 9502) == pytest.approx(541.0, abs=1.0)

    def test_zero_baseline(self):
        assert coverage_improvement(10, 0) == float("inf")


class TestAcceptanceSummary:
    def test_aggregation(self):
        r1 = CampaignResult(config=CampaignConfig(), generated=100, accepted=50,
                            reject_errnos=Counter({13: 40, 22: 10}))
        r2 = CampaignResult(config=CampaignConfig(), generated=100, accepted=70,
                            reject_errnos=Counter({13: 30}))
        summary = acceptance_summary([r1, r2])
        assert summary["generated"] == 200
        assert summary["acceptance_rate"] == pytest.approx(0.6)
        assert summary["reject_errnos"][13] == 70


class TestOverheadStats:
    def test_ratios(self):
        stats = OverheadStats(
            programs=2,
            raw_insns=100,
            sanitized_insns=300,
            raw_executed=50,
            sanitized_executed=120,
            raw_seconds=1.0,
            sanitized_seconds=1.9,
        )
        assert stats.footprint_ratio == pytest.approx(3.0)
        assert stats.executed_ratio == pytest.approx(2.4)
        assert stats.slowdown_percent == pytest.approx(90.0)

    def test_empty_safe(self):
        stats = OverheadStats()
        assert stats.footprint_ratio == 0.0
        assert stats.slowdown_percent == 0.0


class TestThroughputStats:
    def test_derived_metrics(self):
        stats = ThroughputStats(
            programs=300,
            wall_seconds=2.0,
            stage_seconds=Counter(generate=0.5, verify=4.0, execute=0.5),
        )
        assert stats.programs_per_sec == pytest.approx(150.0)
        assert stats.busy_seconds == pytest.approx(5.0)
        assert stats.fraction("verify") == pytest.approx(0.8)
        assert stats.fraction("execute") == pytest.approx(0.1)
        assert stats.fraction("triage") == 0.0
        assert stats.parallelism == pytest.approx(2.5)

    def test_empty_safe(self):
        stats = ThroughputStats()
        assert stats.programs_per_sec == 0.0
        assert stats.fraction("verify") == 0.0
        assert stats.parallelism == 0.0

    def test_from_result_and_as_dict(self):
        result = CampaignResult(
            config=CampaignConfig(budget=10),
            generated=10,
            stage_seconds=Counter(generate=0.1, verify=0.7, execute=0.2),
            wall_seconds=1.0,
        )
        stats = ThroughputStats.from_result(result)
        assert stats.programs == 10
        payload = stats.as_dict()
        assert payload["programs_per_sec"] == pytest.approx(10.0)
        assert payload["stage_seconds"] == {
            "execute": 0.2, "generate": 0.1, "verify": 0.7}
        import json

        json.dumps(payload)  # the metrics artifact must serialise

    def test_campaign_populates_timing(self):
        from repro.fuzz.campaign import Campaign

        result = Campaign(CampaignConfig(tool="bvf", budget=15, seed=1)).run()
        stats = ThroughputStats.from_result(result)
        assert stats.wall_seconds > 0
        assert stats.stage_seconds["verify"] > 0
        assert stats.busy_seconds <= stats.wall_seconds


class TestBugTable:
    def test_rows_cover_table2(self):
        assert len(TABLE2_ROWS) == 11
        assert TABLE2_ROWS[0].flaw == Flaw.NULLNESS_PROPAGATION
        assert TABLE2_ROWS[10].flaw == Flaw.XDP_DEV_HOST
        assert CVE_ROW.flaw == Flaw.CVE_2022_23222

    def test_render_marks_found(self):
        findings = {
            Flaw.SIGNAL_PANIC.value: BugFinding(
                bug_id=Flaw.SIGNAL_PANIC.value,
                indicator="indicator2",
                report_kind="panic",
                message="m",
            )
        }
        table = render_bug_table(findings)
        lines = table.splitlines()
        bug6_line = next(l for l in lines if l.startswith(" 6"))
        assert " yes " in bug6_line
        bug1_line = next(l for l in lines if l.startswith(" 1"))
        assert " no " in bug1_line

    def test_render_lists_extras(self):
        findings = {
            "lockdep:weird": BugFinding(
                bug_id="lockdep:weird",
                indicator="indicator2",
                report_kind="lockdep",
                message="m",
            )
        }
        table = render_bug_table(findings)
        assert "lockdep:weird" in table
