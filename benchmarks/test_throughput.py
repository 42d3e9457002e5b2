"""Campaign throughput: serial vs sharded-parallel programs/sec.

The paper's 48-hour campaigns get their throughput from a 40-core
server (Section 6.1); this benchmark measures how well the sharded
:class:`~repro.fuzz.parallel.ParallelCampaign` turns extra cores into
programs/sec, and — because worker count must never change *what* a
campaign computes — re-checks the serial/parallel equivalence contract
at benchmark scale.

Results are printed, not kept: wall time is compared within one run
(serial vs parallel, no observer vs a no-op one), since across runs it
is host noise.  Across changes, wall time is perfbench's job and the
seed-determined work counts are ``benchmarks/check_baseline.py``'s.
One knob, ``BVF_BENCH_BUDGET``: programs per campaign (default 300; CI
sets 300).  The worker count, the speedup floor and the
observer-overhead gate are the constants below.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import obs
from repro.analysis.stats import ThroughputStats
from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.parallel import ParallelCampaign
from repro.obs.events import Observer

BUDGET = int(os.environ.get("BVF_BENCH_BUDGET", "300"))
#: parallel worker count
WORKERS = 4
_CPUS = os.cpu_count() or 1
#: required parallel speedup: 2.0 on machines with >= 4 CPUs, skipped
#: (0) on smaller boxes, where fork-per-shard overhead cannot be
#: amortised
MIN_SPEEDUP = 2.0 if _CPUS >= 4 else 0
REPO_ROOT = Path(__file__).resolve().parent.parent

CONFIG = CampaignConfig(
    tool="bvf", kernel_version="bpf-next", budget=BUDGET, seed=0
)

#: Budget for an installed do-nothing verifier observer: the event
#: hooks may cost at most this fraction of throughput versus no
#: observer at all.
OBSERVER_OVERHEAD_BUDGET = 0.05

#: Where the flight-events sample trace lands (CI archives it, so a
#: failed run's rejections can be explained post hoc).
EVENTS_OUTPUT = REPO_ROOT / "BENCH_events.jsonl"

#: Where the profile summary of the profiler-enabled campaign lands (CI
#: archives it, so each PR carries a per-check-family view of where
#: verification time went).
PROFILE_OUTPUT = REPO_ROOT / "BENCH_profile.json"


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

    print("\n=== Throughput (serial vs parallel) ===")
    print(f"budget {BUDGET}, {WORKERS} workers on {_CPUS} CPU(s)")
    print(f"serial:   {serial_stats.programs_per_sec:8.1f} programs/sec "
          f"({serial_stats.wall_seconds:.2f}s wall)")
    print(f"parallel: {parallel_stats.programs_per_sec:8.1f} programs/sec "
          f"({parallel_stats.wall_seconds:.2f}s wall, "
          f"{parallel_stats.parallelism:.1f}x effective parallelism)")
    print(f"speedup:  {speedup:.2f}x (required: {MIN_SPEEDUP or 'n/a'})")

    assert parallel_stats.programs_per_sec > 0
    if MIN_SPEEDUP:
        assert speedup >= MIN_SPEEDUP, (
            f"parallel speedup {speedup:.2f}x below the {MIN_SPEEDUP:.1f}x "
            f"floor on a {_CPUS}-CPU machine"
        )


def _write_profile(result) -> None:
    """Profiler side output: the enabled run's profile snapshot.

    Campaigns are seed-deterministic, so the snapshot's exact counts
    are the same on every host; the wall half is this host's timings.
    The metrics schema tag makes the file renderable offline via
    ``repro profile``.
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


class _NoopObservedCampaign(Campaign):
    """A campaign whose loads run under an installed do-nothing
    observer: every verifier hook calls through, nothing is kept."""

    _NOOP = Observer()

    def _load(self, kernel, prog):
        token = obs.install(obs.metrics(), obs.recorder(), self._NOOP)
        try:
            return super()._load(kernel, prog)
        finally:
            obs.restore(token)


def test_observer_overhead():
    """What the verifier's event hooks cost, gated.

    Two modes run the same seeded campaign: ``baseline`` (no observer:
    every hook site is one ``is not None`` test) and ``noop`` (a
    do-nothing :class:`~repro.obs.events.Observer` installed, so every
    hook calls through).  Their difference is the price of the hooks
    themselves, and is gated at ``OBSERVER_OVERHEAD_BUDGET``.  Then one
    profiler-enabled campaign writes ``BENCH_profile.json``.

    Methodology: one **warm-up** campaign per mode first — the first
    campaigns of a process pay one-off costs (coverage-probe install,
    lazy imports) that would otherwise be attributed to whichever mode
    ran first — then 3 interleaved rounds
    (so a slow stretch of the host penalises both modes equally), scored
    by the **median** round, which a single descheduled outlier cannot
    drag the way best-of or mean-of can.
    """
    from statistics import median

    def run(campaign_class=Campaign, **flags):
        config = CampaignConfig(
            tool="bvf", kernel_version="bpf-next", budget=BUDGET,
            seed=0, **flags
        )
        return campaign_class(config).run()

    modes = {"baseline": Campaign, "noop": _NoopObservedCampaign}
    for campaign_class in modes.values():  # warm-up, discarded
        run(campaign_class)
    rounds: dict[str, list[float]] = {mode: [] for mode in modes}
    for _ in range(3):
        for mode, campaign_class in modes.items():
            rounds[mode].append(ThroughputStats.from_result(
                run(campaign_class)).programs_per_sec)
    baseline = median(rounds["baseline"])
    noop = median(rounds["noop"])
    overhead = 1.0 - noop / baseline

    _write_profile(run(profile=True))

    print("\n=== verifier observer overhead (serial) ===")
    print(f" baseline: {baseline:8.1f} programs/sec")
    print(f"     noop: {noop:8.1f} programs/sec")
    print(f"no-op observer overhead: {overhead:+.1%} "
          f"(budget {OBSERVER_OVERHEAD_BUDGET:.0%})")

    assert overhead <= OBSERVER_OVERHEAD_BUDGET, (
        f"an installed no-op observer costs {overhead:.1%}, over the "
        f"{OBSERVER_OVERHEAD_BUDGET:.0%} budget"
    )


def test_coverage_cost():
    """Price the block probes against the same verify workload.

    A fixed batch of generated programs is verified inside
    ``VerifierCoverage.collect()`` windows and with no window open,
    where every probe is a global load and an ``is not None`` test.
    One warm-up per mode (the first window of the process installs the
    probes), then 3 interleaved rounds scored by their median, like
    ``test_observer_overhead``.  ``overhead`` is the extra verify time a
    window costs; ``edges`` is the batch's block-edge count, which must
    not vary from round to round.
    """
    import time
    from statistics import median

    from repro.ebpf.program import BpfProgram
    from repro.errors import BpfError
    from repro.fuzz.campaign import make_generator
    from repro.fuzz.coverage import VerifierCoverage
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

    def load(prog) -> None:
        try:
            Kernel(_PROFILES["bpf-next"]()).prog_load(prog, sanitize=True)
        except BpfError:
            pass

    def run(window: bool) -> tuple[float, frozenset[int]]:
        coverage = VerifierCoverage()
        started = time.perf_counter()
        for prog in programs:
            if window:
                with coverage.collect():
                    load(prog)
            else:
                load(prog)
        return time.perf_counter() - started, coverage.snapshot_edges()

    modes = (False, True)
    for window in modes:  # warm-up, discarded
        run(window)
    rounds: dict[bool, list[float]] = {window: [] for window in modes}
    edge_sets = set()
    for _ in range(3):
        for window in modes:
            elapsed, edges = run(window)
            rounds[window].append(elapsed)
            if window:
                edge_sets.add(edges)
    bare, covered = median(rounds[False]), median(rounds[True])
    overhead = covered / bare - 1.0
    assert len(edge_sets) == 1, "the same batch recorded different edges"
    (edges,) = edge_sets
    assert edges

    print("\n=== coverage cost (block probes) ===")
    print(f"no window: {batch_size / bare:8.1f} verifications/sec")
    print(f"   window: {batch_size / covered:8.1f} verifications/sec")
    print(f"window overhead: {overhead:+.1%}, {len(edges)} edges")


def test_flight_events_artifact():
    """A small flight+trace campaign spills decision rings CI archives.

    The JSONL trace of a ``flight=True`` campaign must contain
    ``verifier.flight`` events — one spilled ring per interesting
    outcome — so the events artifact uploaded by the bench job is
    never silently empty.
    """
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
