"""Per-layer metrics and the tail report, from one traced pass.

Self times come from the spans (:mod:`spans`); work counts come from
the counters the program already reports (``CampaignResult.metrics``,
or the registry the self-test loop installs), which are exact for a
given seed.  A layer a workload bypasses reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from spans import LAYERS, Tracer, layer_times, quantile

#: A program at least this slow belongs to the tail.
SLOW_MS = 150.0

#: (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("fuzz.coverage.self_share", "ratio", "lower"),
    ("fuzz.coverage.new_edge_ratio", "ratio", "higher"),
    ("verifier.self_share", "ratio", "lower"),
    ("verifier.prog_load_ms.p50", "ms", "lower"),
    ("verifier.prog_load_ms.p99", "ms", "lower"),
    ("verifier.prog_load_ms.max", "ms", "lower"),
    ("verifier.calls_per_program.primary", "calls/program", "lower"),
    ("verifier.calls_per_program.triage", "calls/program", "lower"),
    ("verifier.calls_per_program.differential", "calls/program", "lower"),
    ("verifier.calls_per_program.repair", "calls/program", "lower"),
    ("verifier.insns_processed", "count", "lower"),
    ("verifier.prune.hit_ratio", "ratio", "higher"),
    ("verifier.prune.visits", "count", "lower"),
    ("verifier.complexity_rejects", "count", "lower"),
    ("cache.tnum.hit_ratio", "ratio", "higher"),
    ("cache.verdict.hit_ratio", "ratio", "higher"),
    ("fuzz.generator.self_share", "ratio", "lower"),
    ("fuzz.generator.generate_ms.p50", "ms", "lower"),
    ("fuzz.generator.generate_ms.p99", "ms", "lower"),
    ("fuzz.generator.insns_per_program", "insns", "lower"),
    ("fuzz.mutator.self_share", "ratio", "lower"),
    ("fuzz.mutator.mutate_ms.p50", "ms", "lower"),
    ("fuzz.mutator.program_share", "ratio", "lower"),
    ("kernel.self_share", "ratio", "lower"),
    ("kernel.boot_ms.p50", "ms", "lower"),
    ("sanitizer.fixup_ms.p50", "ms", "lower"),
    ("sanitizer.sites", "count", "lower"),
    ("sanitizer.xlated_ratio", "ratio", "lower"),
    ("sanitizer.exec_slowdown", "ratio", "lower"),
    ("runtime.self_share", "ratio", "lower"),
    ("runtime.run_ms.p50", "ms", "lower"),
    ("runtime.run_ms.p99", "ms", "lower"),
    ("runtime.insns_executed", "count", "lower"),
    ("fuzz.oracle.self_share", "ratio", "lower"),
    ("fuzz.oracle.classify_ms.p99", "ms", "lower"),
    ("fuzz.oracle.triage_replays", "count", "lower"),
    ("analysis.differential.self_share", "ratio", "lower"),
    ("analysis.differential.run_ms.p50", "ms", "lower"),
    ("analysis.differential.run_ms.p99", "ms", "lower"),
    ("analysis.differential.verifications_per_program", "calls/program",
     "lower"),
    ("analysis.differential.divergence_ratio", "ratio", "higher"),
    ("analysis.repair.self_share", "ratio", "lower"),
    ("analysis.repair.synthesize_ms.p50", "ms", "lower"),
    ("analysis.repair.synthesize_ms.p99", "ms", "lower"),
    ("analysis.repair.verified_ratio", "ratio", "higher"),
    ("analysis.repair.verifications_per_rejection", "calls/rejection",
     "lower"),
    ("fuzz.parallel.bootstrap_s", "s", "lower"),
    ("fuzz.parallel.merge_ms", "ms", "lower"),
    ("fuzz.parallel.shard_s.max", "s", "lower"),
    ("fuzz.parallel.imbalance", "ratio", "lower"),
    ("fuzz.parallel.efficiency", "ratio", "higher"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def _ms(spans) -> list[float]:
    return [span.duration * 1e3 for span in spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum(units, key: str, field: str = "counters") -> float:
    return sum(getattr(unit, field).get(key, 0) for unit in units)


def per_layer(tracer: Tracer, untraced, traced, exec_rows,
              workers: int) -> dict:
    """Every per-layer metric (name -> value) for one traced pass.

    ``untraced`` is the same work run untraced just before; it gives the
    tnum memo's hit ratio (the traced pass finds the memo already warm
    with its own programs) and the sanitizer and shard timings.
    ``exec_rows`` are the sanitizer's (raw, sanitized) execution times.
    """
    times, wall, shadow = layer_times(tracer)
    wall = wall - shadow
    by_layer = defaultdict(list)
    for span in tracer.spans:
        by_layer[span.layer].append(span)
    programs = len(by_layer["program"])
    verifier = by_layer["verifier"]
    sites = defaultdict(int)
    for span in verifier:
        sites[span.attrs.get("site")] += 1
    loads = [s for s in verifier if s.attrs.get("call") == "prog_load"]
    runs = [s for s in by_layer["runtime"]
            if s.parent is None or s.parent.layer != "runtime"]
    differential = by_layer["analysis.differential"]
    repairs = by_layer["analysis.repair"]
    prune = {k: _sum(traced, f"verifier.prune.{k}")
             for k in ("exact_hits", "scan_hits", "misses")}
    tnum_hits = sum(unit.tnum[0] for unit in untraced)
    tnum_total = tnum_hits + sum(unit.tnum[1] for unit in untraced)
    verdict_hits = _sum(traced, "cache.verdict.hits")
    sanitizer = [row for unit in untraced for row in unit.sanitizer]
    shards = [shard for unit in untraced
              for shard in getattr(unit.result, "shard_results", None) or []]
    shard_walls = [shard.wall_seconds for shard in shards]
    parallel = bool(shards) and workers > 1

    def share(layer: str) -> float:
        return _ratio(times.get(layer, 0.0), wall)

    m = {
        "fuzz.coverage.self_share": share("fuzz.coverage"),
        "fuzz.coverage.new_edge_ratio": _ratio(
            sum(1 for s in by_layer["program"]
                if s.attrs.get("new_edges", 0) > 0), programs),
        "verifier.self_share": share("verifier"),
        "verifier.prog_load_ms.p50": quantile(_ms(loads), 0.5),
        "verifier.prog_load_ms.p99": quantile(_ms(loads), 0.99),
        "verifier.prog_load_ms.max": max(_ms(loads), default=0.0),
        "verifier.insns_processed": _sum(traced, "verifier.insns_processed",
                                         "sums"),
        "verifier.prune.hit_ratio": _ratio(
            prune["exact_hits"] + prune["scan_hits"], sum(prune.values())),
        "verifier.prune.visits": sum(prune.values()),
        "verifier.complexity_rejects": sum(
            1 for s in verifier
            if s.attrs.get("reason") == "COMPLEXITY_LIMIT"),
        "cache.tnum.hit_ratio": _ratio(tnum_hits, tnum_total),
        "cache.verdict.hit_ratio": _ratio(
            verdict_hits, verdict_hits + _sum(traced, "cache.verdict.misses")),
        "fuzz.generator.self_share": share("fuzz.generator"),
        "fuzz.generator.generate_ms.p50": quantile(
            _ms(by_layer["fuzz.generator"]), 0.5),
        "fuzz.generator.generate_ms.p99": quantile(
            _ms(by_layer["fuzz.generator"]), 0.99),
        "fuzz.generator.insns_per_program": _ratio(
            sum(s.attrs["insns"] for s in by_layer["fuzz.generator"]),
            len(by_layer["fuzz.generator"])),
        "fuzz.mutator.self_share": share("fuzz.mutator"),
        "fuzz.mutator.mutate_ms.p50": quantile(
            _ms(by_layer["fuzz.mutator"]), 0.5),
        "fuzz.mutator.program_share": _ratio(len(by_layer["fuzz.mutator"]),
                                             programs),
        "kernel.self_share": share("kernel"),
        "kernel.boot_ms.p50": quantile(_ms(by_layer["kernel"]), 0.5),
        "sanitizer.fixup_ms.p50": quantile(
            [(san - raw) * 1e3 for raw, san, *_ in sanitizer], 0.5),
        "sanitizer.sites": _sum(traced, "sanitizer.sites"),
        "sanitizer.xlated_ratio": _ratio(sum(r[3] for r in sanitizer),
                                         sum(r[2] for r in sanitizer)),
        "sanitizer.exec_slowdown": (
            _ratio(sum(san for _, san in exec_rows),
                   sum(raw for raw, _ in exec_rows)) - 1.0
            if exec_rows else 0.0),
        "runtime.self_share": share("runtime"),
        "runtime.run_ms.p50": quantile(_ms(runs), 0.5),
        "runtime.run_ms.p99": quantile(_ms(runs), 0.99),
        "runtime.insns_executed": _sum(traced, "interp.insns_executed"),
        "fuzz.oracle.self_share": share("fuzz.oracle"),
        "fuzz.oracle.classify_ms.p99": quantile(
            _ms(by_layer["fuzz.oracle"]), 0.99),
        "fuzz.oracle.triage_replays": _sum(traced, "oracle.triage_replays"),
        "analysis.differential.self_share": share("analysis.differential"),
        "analysis.differential.run_ms.p50": quantile(_ms(differential), 0.5),
        "analysis.differential.run_ms.p99": quantile(_ms(differential),
                                                     0.99),
        "analysis.differential.verifications_per_program": _ratio(
            sites["differential"], programs),
        "analysis.differential.divergence_ratio": _ratio(
            sum(1 for s in differential if s.attrs.get("divergences")),
            len(differential)),
        "analysis.repair.self_share": share("analysis.repair"),
        "analysis.repair.synthesize_ms.p50": quantile(_ms(repairs), 0.5),
        "analysis.repair.synthesize_ms.p99": quantile(_ms(repairs), 0.99),
        "analysis.repair.verified_ratio": _ratio(
            sum(1 for s in repairs if s.attrs.get("verified")), len(repairs)),
        "analysis.repair.verifications_per_rejection": _ratio(
            sites["repair"], len(repairs)),
        "fuzz.parallel.bootstrap_s": (
            _mean([s.bootstrap_seconds for s in shards
                   if s.bootstrap_seconds > 0]) if parallel else 0.0),
        "fuzz.parallel.merge_ms": (
            _mean(_ms(by_layer["fuzz.parallel"])) if parallel else 0.0),
        "fuzz.parallel.shard_s.max": max(shard_walls, default=0.0),
        "fuzz.parallel.imbalance": (
            _mean([_imbalance(unit) for unit in untraced])
            if parallel else 0.0),
        "fuzz.parallel.efficiency": (
            _ratio(sum(shard_walls),
                   workers * sum(unit.wall_s for unit in untraced))
            if parallel else 0.0),
        "trace.unattributed_share": 1.0 - _ratio(
            sum(times.get(layer, 0.0) for layer in LAYERS), wall),
    }
    for site in ("primary", "triage", "differential", "repair"):
        m[f"verifier.calls_per_program.{site}"] = _ratio(sites[site],
                                                        programs)
    if shards:
        traced_busy = sum(shard.wall_seconds for unit in traced
                          for shard in unit.result.shard_results)
        m["trace.overhead"] = _ratio(traced_busy - shadow,
                                     sum(shard_walls)) - 1.0
    else:
        m["trace.overhead"] = _ratio(
            sum(unit.wall_s for unit in traced) - shadow,
            sum(unit.wall_s for unit in untraced)) - 1.0
    return {name: m[name] for name, _, _ in METRICS}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _imbalance(unit) -> float:
    walls = [shard.wall_seconds for shard in unit.result.shard_results]
    return _ratio(max(walls), _mean(walls))


def tail_report(tracer: Tracer) -> list[str]:
    """The slowest program and the weight of the slow tail, as lines."""
    _, wall, shadow = layer_times(tracer)
    wall = wall - shadow
    shadow_in: dict[int, float] = defaultdict(float)
    loads: dict[object, list] = defaultdict(list)
    for span in tracer.spans:
        if span.layer == "shadow" and span.parent is not None:
            shadow_in[id(span.parent)] += span.duration
        elif span.layer == "verifier":
            loads[span.program].append(span)
    programs = [(span.duration - shadow_in[id(span)], span)
                for span in tracer.spans if span.layer == "program"]
    if not programs:
        return []
    programs.sort(key=lambda pair: pair[0], reverse=True)
    seconds, slowest = programs[0]
    mine = loads[slowest.program]
    primary = [s for s in mine if s.attrs.get("site") == "primary"]
    reason = next((s.attrs["reason"] for s in primary if "reason" in s.attrs),
                  "accepted")
    slow = [d for d, _ in programs if d * 1e3 >= SLOW_MS]
    load_ms = sorted(s.duration * 1e3 for s in tracer.spans
                     if s.layer == "verifier"
                     and s.attrs.get("call") == "prog_load")
    insns = sum(s.attrs.get("insns", 0) for s in primary)
    return [
        f"slowest program {slowest.program}: {seconds * 1e3:.1f} ms "
        f"({_ratio(seconds, wall):.1%} of traced wall), reject reason "
        f"{reason}, insns_processed {insns} primary / "
        f"{sum(s.attrs.get('insns', 0) for s in mine)} over "
        f"{len(mine)} verifications",
        f"programs >= {SLOW_MS:.0f} ms: {len(slow)} of {len(programs)} "
        f"({_ratio(len(slow), len(programs)):.1%}), "
        f"{_ratio(sum(slow), wall):.1%} of traced wall",
        f"prog_load_ms over {len(load_ms)} loads: "
        f"p50 {quantile(load_ms, 0.5):.2f}, "
        f"p90 {quantile(load_ms, 0.9):.2f}, "
        f"p99 {quantile(load_ms, 0.99):.2f}, "
        f"max {max(load_ms, default=0):.2f}",
    ]
