"""Campaign throughput: serial vs sharded-parallel programs/sec.

The paper's 48-hour campaigns get their throughput from a 40-core
server (Section 6.1); this benchmark measures how well the sharded
:class:`~repro.fuzz.parallel.ParallelCampaign` turns extra cores into
programs/sec, and — because worker count must never change *what* a
campaign computes — re-checks the serial/parallel equivalence contract
at benchmark scale.

Results land in ``BENCH_throughput.json`` next to the repo root so CI
can archive the trajectory across PRs.  Knobs:

- ``BVF_BENCH_BUDGET``   — programs per campaign (default 300);
- ``BVF_BENCH_WORKERS``  — parallel worker count (default 4);
- ``BVF_BENCH_MIN_SPEEDUP`` — required parallel speedup; defaults to
  2.0 on machines with >= 4 CPUs and is skipped (0) on smaller boxes,
  where fork-per-shard overhead cannot be amortised.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.analysis.stats import ThroughputStats
from repro.fuzz.campaign import CampaignConfig
from repro.fuzz.parallel import ParallelCampaign
from repro.obs.metrics import cache_hit_rates

BUDGET = int(os.environ.get("BVF_BENCH_BUDGET", "300"))
WORKERS = int(os.environ.get("BVF_BENCH_WORKERS", "4"))
_CPUS = os.cpu_count() or 1
MIN_SPEEDUP = float(
    os.environ.get("BVF_BENCH_MIN_SPEEDUP", "2.0" if _CPUS >= 4 else "0")
)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

CONFIG = CampaignConfig(
    tool="bvf", kernel_version="bpf-next", budget=BUDGET, seed=0
)

#: Disabled-mode budget for the VStateChecker: leaving the flag off may
#: cost at most this fraction of throughput versus an identical run.
INVARIANT_OVERHEAD_BUDGET = float(
    os.environ.get("BVF_BENCH_INVARIANT_BUDGET", "0.05")
)

#: Disabled-mode budget for the flight recorder (ISSUE 8: the decision
#: log must stay within 5% of baseline when the flag is off).
FLIGHT_OVERHEAD_BUDGET = float(
    os.environ.get("BVF_BENCH_FLIGHT_BUDGET", "0.05")
)

#: Disabled-mode budget for the hierarchical profiler (ISSUE 9: the
#: analytics layer must stay within 5% of baseline when the flag is
#: off).
PROFILE_OVERHEAD_BUDGET = float(
    os.environ.get("BVF_BENCH_PROFILE_BUDGET", "0.05")
)

#: Disabled-mode budget for the repair synthesizer (ISSUE 10: the
#: rejection-repair layer must stay within 5% of baseline when
#: ``--repair-feedback`` is off).
REPAIR_OVERHEAD_BUDGET = float(
    os.environ.get("BVF_BENCH_REPAIR_BUDGET", "0.05")
)

#: Where the flight-events sample trace lands (CI archives it next to
#: the throughput trajectory).
EVENTS_OUTPUT = OUTPUT.with_name("BENCH_events.jsonl")

#: Where the profile summary of the enabled-mode campaign lands (CI
#: archives it next to the throughput trajectory, so each PR carries a
#: per-check-family view of where verification time went).
PROFILE_OUTPUT = OUTPUT.with_name("BENCH_profile.json")


def _load_payload() -> dict:
    if OUTPUT.exists():
        try:
            return json.loads(OUTPUT.read_text())
        except ValueError:
            pass
    return {}


def _cache_rates(metrics: dict) -> dict:
    """Hit rates of the verifier fast-path caches, from one snapshot.

    Delegates to :func:`repro.obs.metrics.cache_hit_rates` so the
    benchmark, the ``repro report`` dashboard, and campaign heartbeats
    always agree on the definition of each rate.
    """
    return cache_hit_rates(metrics.get("counters", {}))


def test_parallel_throughput():
    serial = ParallelCampaign(CONFIG, workers=1).run()
    parallel = ParallelCampaign(CONFIG, workers=WORKERS).run()

    # The equivalence contract, at benchmark scale: worker count is a
    # throughput knob and must not change the merged science.
    assert sorted(serial.findings) == sorted(parallel.findings)
    assert serial.final_coverage == parallel.final_coverage
    assert serial.accepted == parallel.accepted

    serial_stats = ThroughputStats.from_result(serial)
    parallel_stats = ThroughputStats.from_result(parallel)
    speedup = (
        parallel_stats.programs_per_sec / serial_stats.programs_per_sec
        if serial_stats.programs_per_sec
        else 0.0
    )

    payload = _load_payload()
    payload.update({
        "budget": BUDGET,
        "workers": WORKERS,
        "cpus": _CPUS,
        "serial": serial_stats.as_dict(),
        "parallel": parallel_stats.as_dict(),
        "speedup": round(speedup, 2),
        "bugs_found": len(parallel.findings),
        "merged_coverage": parallel.final_coverage,
        # Fast-path cache effectiveness (serial run: one process, so
        # the process-global tnum memo numbers are self-contained).
        # check_throughput_trajectory.py gates these and the serial
        # verify_fraction across CI runs.
        "caches": _cache_rates(serial.metrics),
        # Rejection-reason distribution for the drift gate
        # (benchmarks/check_taxonomy_drift.py).  Deterministic for a
        # fixed (seed, budget, shards), so any change between CI runs
        # is a real behaviour change, not noise.
        "taxonomy": {
            "generated": serial.generated,
            "by_reason": dict(sorted(serial.reject_reasons.items())),
        },
    })
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print("\n=== Throughput (serial vs parallel) ===")
    print(f"budget {BUDGET}, {WORKERS} workers on {_CPUS} CPU(s)")
    print(f"serial:   {serial_stats.programs_per_sec:8.1f} programs/sec "
          f"({serial_stats.wall_seconds:.2f}s wall)")
    print(f"parallel: {parallel_stats.programs_per_sec:8.1f} programs/sec "
          f"({parallel_stats.wall_seconds:.2f}s wall, "
          f"{parallel_stats.parallelism:.1f}x effective parallelism)")
    print(f"speedup:  {speedup:.2f}x (required: {MIN_SPEEDUP or 'n/a'})")
    print(f"wrote {OUTPUT.name}")

    assert parallel_stats.programs_per_sec > 0
    if MIN_SPEEDUP:
        assert speedup >= MIN_SPEEDUP, (
            f"parallel speedup {speedup:.2f}x below the {MIN_SPEEDUP:.1f}x "
            f"floor on a {_CPUS}-CPU machine"
        )


def _write_profile(result, section: dict) -> None:
    """Profiler side output: the enabled run's profile snapshot.

    Campaigns are seed-deterministic, so every measured round's
    snapshot carries the same exact counts; the wall half is this
    host's timings for the last round.  The metrics schema tag makes
    the file renderable offline via ``repro profile``.
    """
    from repro.obs.artifact import SCHEMA
    from repro.obs.profile import render_profile

    PROFILE_OUTPUT.write_text(json.dumps({
        "schema": SCHEMA,
        "budget": BUDGET,
        "seed": 0,
        "profile": result.profile,
    }, indent=2) + "\n")
    print(f"wrote {PROFILE_OUTPUT.name}")
    print(render_profile(result.profile, top=5))


def _score_repairs(result, section: dict) -> None:
    """Repair side output: per-reason verified-repair rates.

    They land under ``repair_feedback.by_reason``;
    ``check_throughput_trajectory.py --max-repair-rate-drop`` fails CI
    when the overall verified rate collapses relative to the previous
    run — the earliest symptom of a patch template or provenance-pass
    regression, since campaigns are seed-deterministic (every measured
    round found the same repairs; the last is scored).
    """
    attempted = sum(result.repairs_attempted.values())
    verified = sum(result.repairs_verified.values())
    section.update({
        "attempted": attempted,
        "verified": verified,
        "verified_rate": verified / attempted if attempted else 0.0,
        "by_reason": {
            reason: {
                "attempted": result.repairs_attempted[reason],
                "verified": result.repairs_verified.get(reason, 0),
                "verified_rate": (
                    result.repairs_verified.get(reason, 0)
                    / result.repairs_attempted[reason]
                ),
            }
            for reason in sorted(result.repairs_attempted)
        },
    })
    print(f"verified repairs: {verified}/{attempted} "
          f"({verified / attempted if attempted else 0.0:.1%})")
    assert attempted > 0, "benchmark campaign produced no rejections"


@dataclass(frozen=True)
class OverheadBench:
    """One opt-in subsystem whose disabled mode must cost nothing."""

    #: ``BENCH_throughput.json`` section (the trajectory gate reads it)
    section: str
    #: the :class:`CampaignConfig` flag that turns the subsystem on
    flag: str
    title: str
    budget: float
    #: side output from the last measured enabled-mode campaign
    side_output: Callable[[object, dict], None] | None = None


OVERHEAD_BENCHES = (
    OverheadBench("invariant_checker", "check_invariants",
                  "VStateChecker", INVARIANT_OVERHEAD_BUDGET),
    OverheadBench("flight_recorder", "flight", "flight-recorder",
                  FLIGHT_OVERHEAD_BUDGET),
    OverheadBench("profiler", "profile", "profiler",
                  PROFILE_OVERHEAD_BUDGET, _write_profile),
    OverheadBench("repair_feedback", "repair_feedback", "repair",
                  REPAIR_OVERHEAD_BUDGET, _score_repairs),
)


@pytest.mark.parametrize("bench", OVERHEAD_BENCHES,
                         ids=[bench.section for bench in OVERHEAD_BENCHES])
def test_disabled_overhead(bench):
    """An opt-in subsystem's cost: disabled mode must stay within budget.

    Each subsystem (VStateChecker, flight recorder, profiler, repair
    synthesizer) is off by default, and its hooks then pay one
    ``is not None`` / ``.enabled`` / boolean test each.  Three modes run
    the same seeded campaign: ``baseline`` (flags defaulted),
    ``disabled`` (the flag explicitly ``False``) and ``enabled``.
    Baseline and disabled are the same configuration, so
    ``disabled_overhead`` measures run-to-run noise; the gate (checked
    here *and* by ``check_throughput_trajectory.py``) still catches a
    hot path that stops being free.  Enabled-mode cost is recorded for
    trend tracking but not gated — opt-in diagnostics may cost what
    they cost.

    Methodology: one **warm-up** campaign per mode first — the first
    campaigns of a process pay one-off costs (coverage-tracer build and
    attach, cold tnum memo, lazy imports) that would otherwise be
    attributed to whichever mode ran first — then 3 interleaved rounds
    (so a slow stretch of the host penalises all modes equally), scored
    by the **median** round, which a single descheduled outlier cannot
    drag the way best-of or mean-of can.
    """
    from statistics import median

    from repro.fuzz.campaign import Campaign

    enabled_results: list = []

    def run_pps(**flags) -> float:
        config = CampaignConfig(
            tool="bvf", kernel_version="bpf-next", budget=BUDGET,
            seed=0, **flags
        )
        result = Campaign(config).run()
        if flags.get(bench.flag):
            enabled_results.append(result)
        return ThroughputStats.from_result(result).programs_per_sec

    modes = {
        "baseline": {},
        "disabled": {bench.flag: False},
        "enabled": {bench.flag: True},
    }
    for flags in modes.values():  # warm-up, discarded
        run_pps(**flags)
    enabled_results.clear()  # keep only measured-round results
    rounds: dict[str, list[float]] = {mode: [] for mode in modes}
    for _ in range(3):
        for mode, flags in modes.items():
            rounds[mode].append(run_pps(**flags))
    samples = {mode: median(values) for mode, values in rounds.items()}

    disabled_overhead = 1.0 - samples["disabled"] / samples["baseline"]
    enabled_overhead = 1.0 - samples["enabled"] / samples["baseline"]

    section = {
        "budget": BUDGET,
        "baseline_programs_per_sec": round(samples["baseline"], 2),
        "disabled_programs_per_sec": round(samples["disabled"], 2),
        "enabled_programs_per_sec": round(samples["enabled"], 2),
        "disabled_overhead": round(disabled_overhead, 4),
        "enabled_overhead": round(enabled_overhead, 4),
        "disabled_overhead_budget": bench.budget,
    }
    print(f"\n=== {bench.title} overhead (serial) ===")
    for mode in ("baseline", "disabled", "enabled"):
        print(f"{mode:>9}: {samples[mode]:8.1f} programs/sec")
    print(f"disabled overhead: {disabled_overhead:+.1%} "
          f"(budget {bench.budget:.0%}); "
          f"enabled overhead: {enabled_overhead:+.1%}")
    if bench.side_output is not None:
        bench.side_output(enabled_results[-1], section)
    payload = _load_payload()
    payload[bench.section] = section
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    assert disabled_overhead <= bench.budget, (
        f"disabled-mode {bench.title} overhead {disabled_overhead:.1%} "
        f"exceeds the {bench.budget:.0%} budget"
    )


def test_coverage_backend_comparison():
    """Benchmark the coverage backends against the same verify workload.

    ROADMAP item 5: on Python 3.12+ the PEP 669 :mod:`sys.monitoring`
    backend should beat :func:`sys.settrace` because out-of-scope code
    objects disable their own events after the first hit, while
    settrace pays a call-event filter on every frame forever.  This
    benchmark verifies the two claims ``backend="auto"`` rests on:

    - every available backend produces a **bit-identical edge set** for
      the same workload (otherwise auto-selection would change the
      science, not just the speed);
    - the preference order ``ctrace > monitoring > settrace`` is
      recorded per host in ``BENCH_throughput.json`` so the trajectory
      shows which backend CI actually exercised and what the faster
      default buys.

    Methodology mirrors :func:`test_disabled_overhead`: a fixed
    pre-generated program batch, one warm-up pass per backend, then the
    median of 3 interleaved rounds.  The speed assertion (monitoring >= 0.9x
    settrace) only applies when monitoring exists (3.12+); it is a
    loose floor, not the expected win — CI hardware noise must not turn
    an improvement PR red.
    """
    import sys as _sys
    import time
    from statistics import median

    from repro.ebpf.program import BpfProgram
    from repro.errors import BpfError, VerifierReject
    from repro.fuzz.campaign import make_generator
    from repro.fuzz.coverage import VerifierCoverage, _MonitoringBackend
    from repro.fuzz.rng import FuzzRng
    from repro.kernel.config import PROFILES as _PROFILES
    from repro.kernel.syscall import Kernel

    # Fixed workload: one seeded generator, BUDGET-capped batch.
    batch_size = min(BUDGET, 150)
    rng = FuzzRng(0)
    generator = make_generator("bvf", None, rng)
    programs = []
    for i in range(batch_size):
        kernel = Kernel(_PROFILES["bpf-next"]())
        gp = generator.generate(kernel)
        programs.append(BpfProgram(
            insns=list(gp.insns), prog_type=gp.prog_type,
            name=f"bench_{i}", offload_dev=gp.offload_dev,
        ))

    def run_backend(name: str) -> tuple[float, frozenset[int]]:
        coverage = VerifierCoverage(backend=name)
        started = time.perf_counter()
        for prog in programs:
            kernel_run = Kernel(_PROFILES["bpf-next"]())
            with coverage.collect():
                try:
                    kernel_run.prog_load(prog, sanitize=True)
                except (VerifierReject, BpfError):
                    pass
        elapsed = time.perf_counter() - started
        return batch_size / elapsed, coverage.snapshot_edges()

    backends = ["settrace"]
    if _MonitoringBackend.available():
        backends.append("monitoring")
    try:
        VerifierCoverage(backend="ctrace")
    except ValueError:
        pass
    else:
        backends.append("ctrace")

    for name in backends:  # warm-up, discarded
        run_backend(name)
    rounds: dict[str, list[float]] = {name: [] for name in backends}
    edge_sets: dict[str, frozenset[int]] = {}
    for _ in range(3):
        for name in backends:
            pps, edges = run_backend(name)
            rounds[name].append(pps)
            edge_sets[name] = edges
    samples = {name: median(values) for name, values in rounds.items()}

    # Equivalence: backend choice must not change the measured edges.
    reference = edge_sets["settrace"]
    for name, edges in edge_sets.items():
        assert edges == reference, (
            f"backend {name} produced a different edge set than settrace "
            f"({len(edges)} vs {len(reference)} edges)"
        )

    auto_default = VerifierCoverage(backend="auto").backend_name
    payload = _load_payload()
    payload["coverage_backends"] = {
        "batch_size": batch_size,
        "python": f"{_sys.version_info.major}.{_sys.version_info.minor}",
        "auto_default": auto_default,
        "verifications_per_sec": {
            name: round(samples[name], 2) for name in backends
        },
        "monitoring_speedup_vs_settrace": (
            round(samples["monitoring"] / samples["settrace"], 3)
            if "monitoring" in samples else None
        ),
        "edges": len(reference),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print("\n=== Coverage backend comparison ===")
    for name in backends:
        marker = " (auto default)" if name == auto_default else ""
        print(f"{name:>11}: {samples[name]:8.1f} verifications/sec{marker}")
    if "monitoring" in samples:
        speedup = samples["monitoring"] / samples["settrace"]
        print(f"monitoring vs settrace: {speedup:.2f}x")
        assert speedup >= 0.9, (
            f"sys.monitoring backend ({samples['monitoring']:.1f}/s) fell "
            f"below 0.9x settrace ({samples['settrace']:.1f}/s); the auto "
            "preference order is no longer justified on this host"
        )
    else:
        print(f"sys.monitoring unavailable on Python "
              f"{_sys.version_info.major}.{_sys.version_info.minor}; "
              "recorded settrace baseline only")


def test_flight_events_artifact():
    """A small flight+trace campaign spills decision rings CI archives.

    The JSONL trace of a ``flight=True`` campaign must contain
    ``verifier.flight`` events — one spilled ring per interesting
    outcome — so the events artifact uploaded by the bench job is
    never silently empty.
    """
    from repro.fuzz.campaign import Campaign

    config = CampaignConfig(
        tool="bvf", kernel_version="bpf-next",
        budget=min(BUDGET, 60), seed=0,
        flight=True, trace_path=str(EVENTS_OUTPUT),
    )
    result = Campaign(config).run()

    spills = []
    with EVENTS_OUTPUT.open(encoding="utf-8") as fh:
        for line in fh:
            event = json.loads(line)
            if (event.get("kind") == "event"
                    and event.get("name") == "verifier.flight"):
                spills.append(event)

    rejected = result.generated - result.accepted
    print(f"\n{EVENTS_OUTPUT.name}: {len(spills)} spilled decision rings "
          f"for {rejected} rejections")
    assert rejected > 0, "benchmark campaign produced no rejections"
    assert len(spills) == rejected
    for spill in spills:
        assert spill["events"], "spilled ring must not be empty"
        kinds = {ev["kind"] for ev in spill["events"]}
        assert "verdict" in kinds
    assert result.reject_explanations, "flight campaign must explain rejects"
