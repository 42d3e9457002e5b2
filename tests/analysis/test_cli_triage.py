"""CLI and triage-report tests."""

from __future__ import annotations

import pytest

from repro.__main__ import build_parser, main
from repro.analysis.triage import triage_finding
from repro.kernel.config import PROFILES, Flaw
from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.parallel import ParallelCampaign


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["fuzz", "--budget", "5", "--seed", "3"])
        assert args.command == "fuzz"
        assert args.budget == 5

    def test_profiles_command(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "bpf-next" in out
        assert "bug1-nullness-propagation" in out
        assert "(no injected bugs)" in out

    def test_fuzz_command_small(self, capsys):
        assert main(["fuzz", "--budget", "30", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "accepted" in out
        assert "Component" in out  # the bug table header

    def test_campaign_command_differential_triage(self, capsys):
        argv = ["campaign", "--workers", "1", "--shards", "2",
                "--budget", "16", "--differential", "--triage"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        result = ParallelCampaign(
            CampaignConfig(budget=16, differential=True), workers=1, shards=2
        ).run()
        assert "16 programs over 2 shards x 1 workers" in out
        assert (f"merged verifier coverage {result.final_coverage} edges"
                in out)
        assert "Component" in out  # the bug table header
        assert result.divergences
        assert f"cross-version divergences: {len(result.divergences)}" in out
        rows = [line for line in out.splitlines()
                if " vs " in line and "] iteration " in line]
        assert rows == [
            f"  {d['kind']:<8} {d['profile_a']} vs {d['profile_b']}: "
            f"{d['classification']} [{d['explanation']}] "
            f"iteration {d['iteration']}"
            for d in result.divergences.values()
        ]
        # One triage report per finding, in discovery order.
        assert result.findings
        reported = [line.removeprefix("BUG: ") for line in out.splitlines()
                    if line.startswith("BUG: ")]
        assert reported == [
            f.bug_id
            for f in sorted(result.findings.values(), key=lambda f: f.iteration)
        ]

    @pytest.mark.parametrize("command", ["watch", "bench"])
    def test_removed_subcommand_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        ["--plateau-window", "--heartbeat-dir", "--heartbeat-every"],
    )
    def test_removed_option_rejected(self, option, capsys):
        for command in ("fuzz", "campaign"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, option, "1"])
            assert exc.value.code == 2
            assert option in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["plateau_window", "heartbeat_dir", "heartbeat_every"]
    )
    def test_removed_config_field_rejected(self, name):
        with pytest.raises(TypeError):
            CampaignConfig(**{name: 1})

    def test_selftest_command_clean_on_patched(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "0 verdict mismatches" in out


class TestTriage:
    @pytest.fixture(scope="class")
    def finding(self):
        result = Campaign(
            CampaignConfig(tool="bvf", kernel_version="bpf-next",
                           budget=600, seed=19)
        ).run()
        indicator1 = [
            f for f in result.findings.values() if f.indicator == "indicator1"
        ]
        assert indicator1, "campaign found no indicator-1 bug to triage"
        return indicator1[0]

    def test_report_renders(self, finding):
        report = triage_finding(finding, PROFILES["bpf-next"]())
        text = report.render()
        assert finding.bug_id in text
        assert "program (guilty instruction marked):" in text
        assert "verifier log" in text

    def test_guilty_instruction_located(self, finding):
        report = triage_finding(finding, PROFILES["bpf-next"]())
        if report.guilty_insn >= 0:
            assert ">>>" in report.listing
            marked = [l for l in report.listing.splitlines()
                      if l.startswith(">>>")]
            assert len(marked) == 1

    def test_triage_without_program(self):
        from repro.fuzz.oracle import BugFinding

        finding = BugFinding(
            bug_id="x", indicator="indicator2", report_kind="lockdep",
            message="m",
        )
        report = triage_finding(finding, PROFILES["patched"]())
        assert "(program unavailable)" in report.render()
