"""CI bench-trajectory gate: regression detection and skip paths."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_CHECKER = (Path(__file__).resolve().parents[2] / "benchmarks"
            / "check_throughput_trajectory.py")


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("trajectory", _CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_bench(path: Path, programs_per_sec: float,
                observer_overhead: float | None = None,
                repair_rate: float | None = None,
                caches: dict | None = None) -> str:
    payload = {
        "parallel": {"programs_per_sec": programs_per_sec},
        "serial": {"programs_per_sec": programs_per_sec / 2},
    }
    if caches is not None:
        payload["caches"] = caches
    if observer_overhead is not None:
        payload["observer"] = {
            "overhead": observer_overhead,
            "overhead_budget": 0.05,
        }
    if repair_rate is not None:
        payload["repair_feedback"] = {"verified_rate": repair_rate}
    path.write_text(json.dumps(payload))
    return str(path)


def test_within_tolerance_passes(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 80.0)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


def test_large_regression_fails(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 60.0)
    assert checker.main(["--previous", prev, "--current", cur]) == 1


def test_missing_previous_skips(checker, tmp_path):
    cur = write_bench(tmp_path / "cur.json", 60.0)
    missing = str(tmp_path / "nope.json")
    assert checker.main(["--previous", missing, "--current", cur]) == 0


def test_missing_current_fails(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    missing = str(tmp_path / "nope.json")
    assert checker.main(["--previous", prev, "--current", missing]) == 1


def test_flat_payload_accepted(checker, tmp_path):
    # Older artifacts without the parallel/serial split still load.
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"programs_per_sec": 42.0}))
    value, _ = checker.load_programs_per_sec(str(flat))
    assert value == 42.0


def test_observer_overhead_within_budget_passes(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0, observer_overhead=0.03)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


def test_observer_overhead_over_budget_fails(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0, observer_overhead=0.08)
    assert checker.main(["--previous", prev, "--current", cur]) == 1


def test_observer_overhead_gate_needs_no_previous(checker, tmp_path):
    # The gate is absolute (in-process baseline), so it must fire even
    # on the first run of a branch, where the regression gate skips.
    missing = str(tmp_path / "nope.json")
    cur = write_bench(tmp_path / "cur.json", 100.0, observer_overhead=0.20)
    assert checker.main(["--previous", missing, "--current", cur]) == 1


def test_observer_overhead_missing_skips(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


def test_observer_overhead_custom_budget(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0, observer_overhead=0.08)
    assert checker.main(["--previous", prev, "--current", cur,
                         "--max-observer-overhead", "0.10"]) == 0


def test_observer_enabled_costs_are_not_gated(checker, tmp_path):
    # Real subscribers (profiler, flight recorder, ...) cost what they
    # cost: only the no-op observer's overhead is gated.
    prev = write_bench(tmp_path / "prev.json", 100.0)
    path = tmp_path / "cur.json"
    write_bench(path, 100.0, observer_overhead=0.01)
    payload = json.loads(path.read_text())
    payload["observer"]["enabled"] = {
        "profiler": {"programs_per_sec": 50.0, "overhead": 0.5},
        "repair_feedback": {"programs_per_sec": 40.0, "overhead": 0.6},
    }
    path.write_text(json.dumps(payload))
    assert checker.main(["--previous", prev, "--current", str(path)]) == 0


def test_subscriber_overheads_printed_not_gated(checker, tmp_path, capsys):
    # Each real subscriber's cost is reported previous -> current, and
    # even a large rise fails nothing.
    paths = []
    for name, enabled in (
        ("prev.json", {"flight_recorder": {"overhead": 0.3019},
                       "repair_feedback": {"overhead": 0.6737}}),
        ("cur.json", {"flight_recorder": {"overhead": 0.05},
                      "repair_feedback": {"overhead": 0.95},
                      "profiler": {"overhead": 0.12}}),
    ):
        path = tmp_path / name
        write_bench(path, 100.0, observer_overhead=0.01)
        payload = json.loads(path.read_text())
        payload["observer"]["enabled"] = enabled
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    prev, cur = paths
    assert checker.main(["--previous", prev, "--current", cur]) == 0
    out = capsys.readouterr().out
    assert "flight_recorder enabled overhead +30.2% -> +5.0%" in out
    assert "repair_feedback enabled overhead +67.4% -> +95.0%" in out
    assert "profiler enabled overhead absent -> +12.0%" in out


def test_repair_rate_small_drop_passes(checker, tmp_path):
    # 0.90 -> 0.80 is an 11% relative drop, inside the 20% default.
    prev = write_bench(tmp_path / "prev.json", 100.0, repair_rate=0.90)
    cur = write_bench(tmp_path / "cur.json", 100.0, repair_rate=0.80)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


def test_repair_rate_large_drop_fails(checker, tmp_path):
    # 0.90 -> 0.50 is a 44% relative drop.
    prev = write_bench(tmp_path / "prev.json", 100.0, repair_rate=0.90)
    cur = write_bench(tmp_path / "cur.json", 100.0, repair_rate=0.50)
    assert checker.main(["--previous", prev, "--current", cur]) == 1


def test_repair_rate_missing_skips(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0)
    cur = write_bench(tmp_path / "cur.json", 100.0)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


def test_repair_rate_custom_threshold(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0, repair_rate=0.90)
    cur = write_bench(tmp_path / "cur.json", 100.0, repair_rate=0.50)
    assert checker.main(["--previous", prev, "--current", cur,
                         "--max-repair-rate-drop", "0.50"]) == 0


def test_repair_rate_zero_previous_skips(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0, repair_rate=0.0)
    cur = write_bench(tmp_path / "cur.json", 100.0, repair_rate=0.0)
    assert checker.main(["--previous", prev, "--current", cur]) == 0


CACHES = {"tnum_memo_hit_rate": 0.8, "prune_index_hit_rate": 0.05}


def test_retired_cache_rate_not_gated(checker, tmp_path, capsys):
    prev = write_bench(tmp_path / "prev.json", 100.0, caches={
        **CACHES, "verdict_hit_rate": 0.01, "prune_exact_fraction": 0.7})
    cur = write_bench(tmp_path / "cur.json", 100.0, caches=CACHES)
    assert checker.main(["--previous", prev, "--current", cur]) == 0
    out = capsys.readouterr().out
    assert "verdict_hit_rate retired" in out
    assert "prune_exact_fraction retired" in out


def test_defined_cache_rate_missing_fails(checker, tmp_path):
    assert set(CACHES) == set(checker.DEFINED_RATES)
    prev = write_bench(tmp_path / "prev.json", 100.0, caches=CACHES)
    cur = write_bench(tmp_path / "cur.json", 100.0,
                      caches={"tnum_memo_hit_rate": 0.8})
    assert checker.main(["--previous", prev, "--current", cur]) == 1


def test_cache_rate_large_drop_fails(checker, tmp_path):
    prev = write_bench(tmp_path / "prev.json", 100.0, caches=CACHES)
    cur = write_bench(tmp_path / "cur.json", 100.0,
                      caches={**CACHES, "tnum_memo_hit_rate": 0.4})
    assert checker.main(["--previous", prev, "--current", cur]) == 1
