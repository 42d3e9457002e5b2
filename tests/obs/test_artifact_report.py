"""Artifact + dashboard tests, and the worker-invariance contract.

Satellite requirements covered here:

- stage accounting: Σ stage seconds <= wall on a real campaign run,
  and a sharded run's per-shard busy times sum to the merged one;
- worker invariance: a parallel campaign merged from 4 workers yields
  byte-identical non-wall-clock artifact content to the same campaign
  on 1 worker;
- ``repro report`` renders acceptance-by-reason and per-shard
  throughput from a metrics artifact.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.__main__ import main
from repro.analysis.differential import DifferentialOracle
from repro.analysis.reports import render_dashboard
from repro.analysis.stats import ThroughputStats
from repro.fuzz.campaign import STAGES, Campaign, CampaignConfig
from repro.fuzz.parallel import ParallelCampaign
from repro.obs.artifact import (
    SCHEMA,
    build_artifact,
    strip_wall,
    write_artifact,
)
from repro.obs.metrics import strip_wall_fields


@pytest.fixture(scope="module")
def serial_result():
    config = CampaignConfig(tool="bvf", budget=150, seed=7)
    return Campaign(config).run()


@pytest.fixture(scope="module")
def sharded_results():
    config = CampaignConfig(tool="bvf", budget=120, seed=7)
    one = ParallelCampaign(config, workers=1, shards=4).run()
    four = ParallelCampaign(config, workers=4, shards=4).run()
    return one, four


class TestPhaseAccounting:
    def test_phase_times_bounded_by_wall(self, serial_result):
        busy = sum(serial_result.stage_seconds.values())
        assert busy > 0
        assert busy <= serial_result.wall_seconds

    def test_phase_histograms_recorded(self, serial_result):
        hists = serial_result.metrics["wall"]["histograms"]
        for stage in serial_result.stage_seconds:
            assert hists[f"phase.{stage}.seconds"]["count"] > 0
        for stage in ("generate", "verify", "coverage", "execute"):
            assert stage in serial_result.stage_seconds

    def test_shard_busy_times_sum_to_merged_busy(self):
        # Every stage counts toward a shard's busy time, the
        # differential oracle's included.
        result = ParallelCampaign(
            CampaignConfig(tool="bvf", budget=40, seed=3, differential=True),
            workers=1, shards=2,
        ).run()
        artifact = build_artifact(result)
        shard_busy = sum(shard["wall"]["busy_seconds"]
                         for shard in artifact["shards"])
        assert result.stage_seconds["differential"] > 0
        assert len(artifact["shards"]) == 2
        assert shard_busy == pytest.approx(
            ThroughputStats.from_result(result).busy_seconds)


class TestWorkerInvariance:
    def test_counters_identical_across_worker_counts(self, sharded_results):
        one, four = sharded_results
        assert one.generated == four.generated
        assert one.accepted == four.accepted
        assert one.reject_errnos == four.reject_errnos
        assert one.reject_reasons == four.reject_reasons
        assert one.frame_generated == four.frame_generated
        assert one.frame_accepted == four.frame_accepted
        assert strip_wall_fields(one.metrics) == strip_wall_fields(
            four.metrics
        )

    def test_artifacts_identical_modulo_wall(self, sharded_results):
        one, four = sharded_results
        a = strip_wall(build_artifact(one))
        b = strip_wall(build_artifact(four))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_strip_wall_removes_all_wall_fields(self, sharded_results):
        one, _ = sharded_results
        artifact = strip_wall(build_artifact(one))
        payload = json.dumps(artifact)
        assert '"wall"' not in payload
        assert "wall_seconds" not in payload


class TestArtifact:
    def test_schema_and_sections(self, serial_result):
        artifact = build_artifact(serial_result)
        assert artifact["schema"] == SCHEMA
        for section in ("config", "summary", "taxonomy", "metrics",
                        "shards", "wall"):
            assert section in artifact
        assert artifact["summary"]["generated"] == serial_result.generated

    def test_round_trips_through_json(self, serial_result, tmp_path):
        path = tmp_path / "metrics.json"
        write_artifact(build_artifact(serial_result), str(path))
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == SCHEMA


class TestDashboard:
    def test_renders_required_sections(self, sharded_results):
        one, _ = sharded_results
        text = render_dashboard(build_artifact(one))
        assert "acceptance by rejection reason" in text
        assert "acceptance by frame kind" in text
        assert "per-shard coverage / throughput" in text
        assert "phase-time histograms" in text
        # 4 shards -> 4 per-shard table rows (index, generated, ...)
        rows = [line for line in text.splitlines()
                if re.match(r"^\s+\d+\s+\d+\s+\d+\s+\d+", line)]
        assert len(rows) == 4

    def test_differential_verifications_run_vs_answered(self, monkeypatch):
        calls = []
        verify_under = DifferentialOracle.verify_under

        def counted(self, *args, **kwargs):
            calls.append(args[0])
            return verify_under(self, *args, **kwargs)

        monkeypatch.setattr(DifferentialOracle, "verify_under", counted)
        result = Campaign(CampaignConfig(budget=30, seed=3,
                                         differential=True)).run()
        counters = result.metrics["counters"]
        primary = counters["differential.primary"]
        reused = counters["differential.reused"]
        assert primary > 0 and reused > 0
        text = render_dashboard(build_artifact(result))
        assert (f"  verifications: {len(calls)} run, {primary} answered "
                f"by the primary load, {reused} from earlier reads"
                ) in text.splitlines()

    def test_indicator1_triage_replays_under_bug_table(self):
        result = Campaign(CampaignConfig(budget=150, seed=4)).run()
        counters = result.metrics["counters"]
        replays = counters["oracle.triage_replays"]
        reports = counters["oracle.indicator1"]
        assert replays >= reports > 0
        lines = render_dashboard(build_artifact(result)).splitlines()
        table = lines.index(next(line for line in lines
                                 if line.startswith("bug indicators: ")))
        assert lines[table + len(result.findings) + 1] == (
            f"  indicator-1 triage: {replays} replays for {reports} reports")

    def test_report_cli(self, serial_result, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        write_artifact(build_artifact(serial_result), str(path))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "acceptance by rejection reason" in out

    def test_report_cli_rejects_bad_schema(self, tmp_path, capsys):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        assert main(["report", str(path)]) == 1

    def test_report_cli_tolerates_older_schema(self, serial_result,
                                               tmp_path, capsys):
        # An artifact from before the profile/frontier sections existed
        # must render (missing sections as "n/a") with a stderr note,
        # not crash with KeyError.
        artifact = build_artifact(serial_result)
        artifact["schema"] = "repro-metrics-v1"
        for section in ("profile", "frontier"):
            artifact.pop(section, None)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(artifact))
        assert main(["report", str(path)]) == 0
        captured = capsys.readouterr()
        assert "acceptance by rejection reason" in captured.out
        assert "n/a (no frontier data" in captured.out
        assert "predates" in captured.err

    def test_dashboard_tolerates_missing_sections(self):
        # Defensive rendering: a bare-bones artifact with only a schema
        # must not raise.
        text = render_dashboard({"schema": "repro-metrics-v1"})
        assert "n/a" in text

    def test_profile_cli(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        rc = main([
            "fuzz", "--budget", "25", "--seed", "4", "--profile",
            "--metrics", str(metrics),
        ])
        assert rc == 0
        capsys.readouterr()
        assert main(["profile", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "verifier profile:" in out
        assert "hotspots" in out

    def test_profile_cli_without_profile_data(self, serial_result,
                                              tmp_path, capsys):
        path = tmp_path / "m.json"
        artifact = build_artifact(serial_result)
        artifact.pop("profile", None)
        path.write_text(json.dumps(artifact))
        assert main(["profile", str(path)]) == 0
        assert "no profile data" in capsys.readouterr().out

    def test_campaign_cli_writes_artifacts(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        rc = main([
            "campaign", "--tool", "bvf", "--budget", "40", "--seed", "5",
            "--workers", "1", "--shards", "2",
            "--metrics", str(metrics), "--trace", str(trace),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        artifact = json.loads(metrics.read_text())
        assert artifact["schema"] == SCHEMA
        # The throughput line gives each entered stage's share of the
        # busy time, in stage order.
        (line,) = [row for row in out.splitlines()
                   if row.startswith("throughput ")]
        shares = re.findall(r"(\w+) (\d+)%", line.split("; ", 1)[1])
        entered = artifact["wall"]["throughput"]["stage_seconds"]
        assert [stage for stage, _ in shares] == [
            stage for stage in STAGES if stage in entered]
        assert {"generate", "verify", "coverage", "execute"} <= set(entered)
        assert abs(sum(int(share) for _, share in shares) - 100) <= len(shares)
        shard_traces = sorted(tmp_path.glob("t.jsonl.shard*"))
        assert len(shard_traces) == 2
        first_line = shard_traces[0].read_text().splitlines()[0]
        assert "ts" in json.loads(first_line)
