"""``benchmarks/check_baseline.py``: the committed work-count baseline
and the check that names every value a change moved."""

from __future__ import annotations

import copy
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_CHECK = (Path(__file__).resolve().parents[2] / "benchmarks"
          / "check_baseline.py")
UNIT = "fuzz-serial/1/0"


@pytest.fixture(scope="module")
def check():
    spec = importlib.util.spec_from_file_location("check_baseline", _CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def committed(check) -> dict:
    return json.loads(check.BASELINE.read_text())


@pytest.fixture
def baseline_copy(check, committed, tmp_path, monkeypatch) -> Path:
    """The check pointed at a temp baseline file, with the committed
    records standing in for this checkout's run."""
    path = tmp_path / "baseline.json"
    monkeypatch.setattr(check, "BASELINE", path)
    monkeypatch.setattr(check, "records", lambda: copy.deepcopy(committed))
    return path


def test_committed_baseline_matches_this_checkout():
    done = subprocess.run([sys.executable, str(_CHECK)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == (
        "5 units, 0 changed values against baseline.json")


def test_committed_baseline_covers_every_workload(committed):
    workloads = {key.split("/")[0] for key in committed}
    assert workloads == {"fuzz-serial", "fuzz-sharded-oracles",
                         "selftest-verify"}
    for key, record in committed.items():
        assert record["failures"] == 0, key
        assert ("reject_reasons" in record) == key.startswith("fuzz-"), key


def test_altered_counter_is_named_old_to_new(check, committed,
                                             baseline_copy, capsys):
    altered = copy.deepcopy(committed)
    programs = altered[UNIT]["counters"]["verifier.programs"]
    altered[UNIT]["counters"]["verifier.programs"] = programs + 1
    baseline_copy.write_text(json.dumps(altered))

    assert check.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [
        f"{UNIT} counters.verifier.programs: {programs + 1} -> {programs}"]
    assert lines[-1] == "5 units, 1 changed values against baseline.json"


def test_value_present_on_one_side_only_is_named(check, committed,
                                                 baseline_copy, capsys):
    altered = copy.deepcopy(committed)
    reasons = altered[UNIT]["reject_reasons"]
    reason, count = sorted(reasons.items())[0]
    del reasons[reason]
    reasons["NEW_REASON"] = 1
    baseline_copy.write_text(json.dumps(altered))

    assert check.main([]) == 1
    assert capsys.readouterr().out.splitlines()[:-1] == sorted([
        f"{UNIT} reject_reasons.NEW_REASON: 1 -> absent",
        f"{UNIT} reject_reasons.{reason}: absent -> {count}",
    ])


def test_missing_unit_fails(check, committed, baseline_copy, capsys):
    altered = copy.deepcopy(committed)
    del altered["selftest-verify/1/2"]
    baseline_copy.write_text(json.dumps(altered))

    assert check.main([]) == 1
    assert capsys.readouterr().out.splitlines()[:-1] == [
        "selftest-verify/1/2: run, not in the baseline"]


def test_extra_unit_fails(check, committed, baseline_copy, capsys):
    altered = copy.deepcopy(committed)
    altered["selftest-verify/1/3"] = altered["selftest-verify/1/2"]
    baseline_copy.write_text(json.dumps(altered))

    assert check.main([]) == 1
    assert capsys.readouterr().out.splitlines()[:-1] == [
        "selftest-verify/1/3: in the baseline, not run"]


def test_update_then_compares_clean(check, committed, baseline_copy):
    altered = copy.deepcopy(committed)
    altered[UNIT]["edges"] += 1
    del altered["selftest-verify/1/0"]
    baseline_copy.write_text(json.dumps(altered))
    assert check.main([]) == 1

    assert check.main(["--update"]) == 0
    assert json.loads(baseline_copy.read_text()) == committed
    assert check.main([]) == 0


# --------------------------------------------------------------------------
# What every committed record must hold, whatever the counts: a baseline
# rewritten from a checkout whose accounting broke fails here.
# --------------------------------------------------------------------------

UNITS = ["fuzz-serial/1/0", "fuzz-sharded-oracles/1/0",
         "selftest-verify/1/0", "selftest-verify/1/1", "selftest-verify/1/2"]
FUZZ_UNITS = UNITS[:2]


def test_committed_units(committed):
    assert sorted(committed) == UNITS


@pytest.fixture(scope="module")
def repeat_fields() -> set:
    """The fields of perfbench's ``Unit.repeat_key()``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        _CHECK.parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look it up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return set(workloads.Unit(0).repeat_key())


@pytest.mark.parametrize("unit", UNITS)
def test_record_is_the_repeat_key(committed, repeat_fields, unit):
    fields = set(repeat_fields)
    if unit in FUZZ_UNITS:
        fields.add("reject_reasons")
    assert set(committed[unit]) == fields


@pytest.mark.parametrize("unit", UNITS)
def test_verifier_verdicts_add_up(committed, unit):
    record = committed[unit]
    counters = record["counters"]
    assert counters["verifier.accepted"] + counters["verifier.rejected"] \
        == counters["verifier.programs"]
    assert 0 < record["accepted"] < record["programs"]


@pytest.mark.parametrize("unit", FUZZ_UNITS)
def test_campaign_totals_are_the_record(committed, unit):
    record = committed[unit]
    counters = record["counters"]
    assert counters["campaign.generated"] == record["programs"]
    assert counters["campaign.accepted"] == record["accepted"]
    assert counters["campaign.rejected"] \
        == record["programs"] - record["accepted"] \
        == sum(record["reject_reasons"].values())


@pytest.mark.parametrize("unit", FUZZ_UNITS)
def test_reject_reasons_are_taxonomy_codes(committed, unit):
    from repro.obs.taxonomy import REASON_CODES, UNCLASSIFIED

    reasons = committed[unit]["reject_reasons"]
    assert UNCLASSIFIED not in reasons
    assert set(reasons) <= set(REASON_CODES)
    assert min(reasons.values()) > 0


@pytest.mark.parametrize("unit", UNITS)
def test_findings_are_flaws_or_classified_divergences(committed, unit):
    from repro.kernel.config import Flaw

    record = committed[unit]
    assert record["findings"] == sorted(set(record["findings"]))
    assert record["divergences"] == sorted(set(record["divergences"]))
    keys = {hashlib.sha1(key.encode()).hexdigest()[:10]: key
            for key in record["divergences"]}
    for finding in record["findings"]:
        if finding in {flaw.value for flaw in Flaw}:
            continue
        origin, classification, pair, digest = finding.split(":")
        kind, profile_a, profile_b, key_class = keys[digest].split("|")[:4]
        assert (origin, classification, pair) == (
            "differential", key_class, f"{profile_a}-vs-{profile_b}")
        assert classification != "unexplained"


@pytest.mark.parametrize("unit", UNITS)
def test_repairs_are_the_campaign_counters(committed, unit):
    record = committed[unit]
    counters = record["counters"]
    attempted, verified = record["repairs"]
    assert attempted == counters.get("campaign.repair.attempted", 0)
    assert verified == counters.get("campaign.repair.verified", 0)
    assert verified <= attempted
    assert len(record["divergences"]) \
        <= counters.get("campaign.divergences", 0)


@pytest.mark.parametrize("old, new, lines", [
    ({UNIT: {"edges": 1}}, {UNIT: {"edges": 1}}, []),
    ({UNIT: {"counters": {"a.b": 1}}}, {UNIT: {"counters": {"a.b": 2}}},
     [f"{UNIT} counters.a.b: 1 -> 2"]),
    ({UNIT: {"findings": ["x"]}}, {UNIT: {"findings": ["x", "y"]}},
     [f"{UNIT} findings: ['x'] -> ['x', 'y']"]),
    ({"b/1/0": {}, "a/1/0": {"n": 1}}, {"c/1/0": {}, "a/1/0": {"n": 2}},
     ["a/1/0 n: 1 -> 2", "b/1/0: in the baseline, not run",
      "c/1/0: run, not in the baseline"]),
], ids=["equal", "nested-key", "list-value", "units-in-order"])
def test_differences(check, old, new, lines):
    assert check.differences(old, new) == lines
