"""Bug-table and telemetry-dashboard rendering.

Two text reports live here: the reproduction of the paper's Table 2
(found/missed per published bug) and the ``python -m repro report``
dashboard, which renders a :mod:`repro.obs` metrics artifact —
acceptance by rejection reason and frame kind, phase-time histograms,
per-shard coverage/throughput, the coverage frontier, profiler
hotspots, and bug-indicator counts.

The dashboard is schema-tolerant: every section indexes the artifact
defensively, so an older ``repro-metrics-v*`` document renders with
the missing sections shown as "n/a" instead of raising ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.differential import DEFAULT_PROFILES
from repro.kernel.config import Flaw
from repro.fuzz.oracle import BugFinding
from repro.obs.frontier import render_frontier
from repro.obs.metrics import cache_hit_rates

__all__ = ["BugRow", "TABLE2_ROWS", "render_bug_table", "render_dashboard"]


@dataclass(frozen=True)
class BugRow:
    """One row of the paper's Table 2."""

    number: int
    flaw: Flaw
    component: str
    description: str
    status: str


TABLE2_ROWS = (
    BugRow(1, Flaw.NULLNESS_PROPAGATION, "Verifier",
           "Incorrect nullness propagation of pointer comparisons causes "
           "invalid memory access", "Fixed"),
    BugRow(2, Flaw.TASK_STRUCT_OOB, "Verifier",
           "Incorrect task struct access validation leads to out-of-bound "
           "access", "Confirmed"),
    BugRow(3, Flaw.KFUNC_BACKTRACK, "Verifier",
           "Incorrect check on kfunc call operations causes verifier "
           "backtracking bug", "Fixed"),
    BugRow(4, Flaw.TRACE_PRINTK_DEADLOCK, "Verifier",
           "Missing check on programs attached to bpf_trace_printk causes "
           "deadlock", "Fixed"),
    BugRow(5, Flaw.CONTENTION_BEGIN_LOCK, "Verifier",
           "Missing validation on contention_begin causes inconsistent "
           "lock state error", "Fixed"),
    BugRow(6, Flaw.SIGNAL_PANIC, "Verifier",
           "Missing strict checking on signal sending of programs causes "
           "kernel panic", "Fixed"),
    BugRow(7, Flaw.DISPATCHER_RACE, "Dispatcher",
           "Missing sync between dispatcher update and execution leads to "
           "null-ptr-deref", "Fixed"),
    BugRow(8, Flaw.KMEMDUP_LIMIT, "Syscall",
           "Incorrect using of kmemdup() leads to failure in duplicating "
           "xlated insts", "Fixed"),
    BugRow(9, Flaw.MAP_BUCKET_ITER, "Map",
           "Incorrect bucket iterating in the failure case of lock "
           "acquiring causes oob access", "Fixed"),
    BugRow(10, Flaw.IRQ_WORK_LOCK, "Helper",
           "Incorrect using of irq_work_queue in a helper function leads "
           "to lock bug", "Fixed"),
    BugRow(11, Flaw.XDP_DEV_HOST, "XDP",
           "Incorrect execution env, attempt to run device eBPF program "
           "on the host", "Confirmed"),
)

#: Table-2 numbering for the motivating CVE (not part of the 11).
CVE_ROW = BugRow(0, Flaw.CVE_2022_23222, "Verifier",
                 "CVE-2022-23222: ALU on nullable pointers causes "
                 "out-of-bounds access", "Fixed (upstream)")


def render_bug_table(findings: dict[str, BugFinding]) -> str:
    """Render found/missed status against the paper's Table 2."""
    lines = [
        f"{'#':>2}  {'Component':<10} {'Found':<6} Description",
        "-" * 78,
    ]
    for row in TABLE2_ROWS:
        found = "yes" if row.flaw.value in findings else "no"
        lines.append(
            f"{row.number:>2}  {row.component:<10} {found:<6} {row.description}"
        )
    extras = [
        bug_id
        for bug_id in findings
        if bug_id not in {row.flaw.value for row in TABLE2_ROWS}
    ]
    for bug_id in sorted(extras):
        lines.append(f" +  {'(other)':<10} {'yes':<6} {bug_id}")
    return "\n".join(lines)


# --------------------------------------------------------------- dashboard --


def _bar(fraction: float, width: int = 24) -> str:
    filled = round(max(0.0, min(1.0, fraction)) * width)
    return "#" * filled + "." * (width - filled)


def _render_histogram(name: str, hist: dict, lines: list[str]) -> None:
    total = hist["count"]
    if not total:
        return
    mean = hist["sum"] / total
    lines.append(f"  {name}  (n={total}, mean={mean:.4g})")
    bounds = hist["bounds"]
    peak = max(hist["counts"])
    for i, count in enumerate(hist["counts"]):
        if not count:
            continue
        label = f"<= {bounds[i]:g}" if i < len(bounds) else f"> {bounds[-1]:g}"
        lines.append(
            f"    {label:>12} {count:>8} {_bar(count / peak, 20)}"
        )


def render_dashboard(artifact: dict) -> str:
    """Render the telemetry dashboard for one metrics artifact."""
    config = artifact.get("config") or {}
    summary = artifact.get("summary") or {}
    taxonomy = artifact.get("taxonomy") or {}
    lines = [
        f"campaign: tool={config.get('tool', 'n/a')} "
        f"kernel={config.get('kernel', 'n/a')} "
        f"budget={config.get('budget', 'n/a')} "
        f"seed={config.get('seed', 'n/a')} "
        f"shards={config.get('shards', 'n/a')} "
        f"workers={config.get('workers', 1)}",
        "",
    ]
    if summary:
        lines.append(
            f"accepted {summary.get('accepted', 0)}"
            f"/{summary.get('generated', 0)} "
            f"({summary.get('acceptance_rate', 0.0):.1%}); "
            f"coverage {summary.get('final_coverage', 0)} edges; "
            f"corpus {summary.get('corpus_size', 0)}"
        )
    else:
        lines.append("summary: n/a (section missing from artifact)")

    lines += ["", "acceptance by rejection reason:"]
    by_reason = taxonomy.get("by_reason", {})
    generated = summary.get("generated", 0) or 1
    for reason, count in sorted(
        by_reason.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        lines.append(
            f"  {reason:<26} {count:>7} ({count / generated:.1%}) "
            f"{_bar(count / generated)}"
        )
    if not by_reason:
        lines.append("  (no rejections)")

    explanations = taxonomy.get("explanations", {})
    if explanations:
        lines += ["", "rejection explanations (flight recorder):"]
        for reason in sorted(explanations):
            entry = explanations[reason]
            insn = entry.get("insn_text") or f"insn {entry.get('insn_idx')}"
            lines.append(
                f"  {reason:<26} iter {entry.get('iteration', -1):>5}  "
                f"@{entry.get('insn_idx', 0):>3}  {insn}"
            )
            check = entry.get("check", "")
            if check:
                lines.append(f"  {'':<26} check: {check}")

    # Verified rejection repairs (artifact schema v3+; older artifacts
    # carry no repair section and skip the table).
    repair = artifact.get("repair") or {}
    if repair.get("enabled") or repair.get("attempted"):
        lines += [
            "",
            f"verified rejection repairs: {repair.get('verified', 0)}"
            f"/{repair.get('attempted', 0)} "
            f"({repair.get('verified_rate', 0.0):.1%} of rejects flip "
            "to accept)",
        ]
        by_reason = repair.get("by_reason", {})
        if by_reason:
            lines.append(
                f"  {'reason':<26} {'verified':>8}/{'attempted':<9} "
                f"{'rate':>6}  template"
            )
            for reason in sorted(by_reason):
                entry = by_reason[reason]
                example = entry.get("example") or {}
                template = example.get("template", "-")
                lines.append(
                    f"  {reason:<26} {entry.get('verified', 0):>8}"
                    f"/{entry.get('attempted', 0):<9} "
                    f"{entry.get('verified_rate', 0.0):>6.1%}  {template}"
                )
        else:
            lines.append("  (no rejections to repair)")

    frames = taxonomy.get("frames", {})
    if frames.get("generated"):
        lines += ["", "acceptance by frame kind:"]
        for kind in sorted(frames["generated"]):
            gen = frames["generated"][kind]
            acc = frames.get("accepted", {}).get(kind, 0)
            rate = acc / gen if gen else 0.0
            lines.append(
                f"  {kind:<14} {acc:>7}/{gen:<7} ({rate:.1%}) {_bar(rate)}"
            )

    metrics = artifact.get("metrics", {})
    wall_hists = metrics.get("wall", {}).get("histograms", {})
    phase_hists = {
        name: hist
        for name, hist in wall_hists.items()
        if name.startswith("phase.")
    }
    if phase_hists:
        lines += ["", "phase-time histograms (seconds):"]
        for name, hist in sorted(phase_hists.items()):
            _render_histogram(name, hist, lines)

    counters = metrics.get("counters", {})
    if any(key.startswith("verifier.prune.") for key in counters):
        rate = cache_hit_rates(counters)["prune_index_hit_rate"]
        hits = counters.get("verifier.prune.scan_hits", 0)
        misses = counters.get("verifier.prune.misses", 0)
        lines += [
            "", "verifier fast-path cache health:",
            f"  {'prune scan':<14} {rate:>6.1%}  "
            f"(hits={hits} misses={misses}) {_bar(rate)}",
        ]

    shards = artifact.get("shards", [])
    if shards:
        lines += [
            "",
            "per-shard coverage / throughput:",
            f"  {'shard':>5} {'generated':>9} {'accepted':>8} "
            f"{'edges':>7} {'wall s':>8} {'prog/s':>8} {'boot s':>7}",
        ]
        for shard in shards:
            wall = shard.get("wall", {})
            lines.append(
                f"  {shard.get('index', '?'):>5} "
                f"{shard.get('generated', 0):>9} "
                f"{shard.get('accepted', 0):>8} "
                f"{shard.get('coverage_edges', 0):>7} "
                f"{wall.get('wall_seconds', 0.0):>8.2f} "
                f"{wall.get('programs_per_sec', 0.0):>8.1f} "
                f"{wall.get('bootstrap_seconds', 0.0):>7.3f}"
            )

    # Coverage frontier (artifact schema v2+; renders "n/a" for older
    # artifacts that carry no frontier section).
    lines += [""]
    lines += render_frontier(artifact.get("frontier") or {})

    # Profiler hotspots (full tree via `repro profile ARTIFACT`).
    profile = artifact.get("profile") or {}
    wall_nodes = (profile.get("wall") or {}).get("nodes", {})
    if profile.get("enabled") and wall_nodes:
        total = sum(
            times.get("cum", 0.0)
            for path, times in wall_nodes.items()
            if "/" not in path
        )
        lines += ["", "verifier profile hotspots (self time; "
                      "full tree: repro profile ARTIFACT):"]
        ranked = sorted(
            wall_nodes.items(),
            key=lambda kv: (-kv[1].get("self", 0.0), kv[0]),
        )
        for path, times in ranked[:5]:
            self_s = times.get("self", 0.0)
            share = self_s / total if total else 0.0
            lines.append(f"  {path:<34} {self_s:>9.3f}s {share:>7.1%}")

    indicators = artifact.get("indicators", {})
    lines += [
        "",
        "bug indicators: "
        + "  ".join(
            f"{name}={indicators.get(name, 0)}"
            for name in (
                "indicator1",
                "indicator2",
                "component",
                "differential",
                "invariant",
            )
        ),
    ]
    findings = artifact.get("findings", {})
    for bug_id in sorted(findings):
        info = findings[bug_id]
        lines.append(
            f"  {bug_id:<34} {info.get('indicator', '?'):<10} "
            f"iteration {info.get('iteration', -1)}"
        )
    # Every indicator-#1 report is attributed by replays (DESIGN §5e).
    lines.append(
        f"  indicator-1 triage: {counters.get('oracle.triage_replays', 0)} "
        f"replays for {counters.get('oracle.indicator1', 0)} reports"
    )

    differential = artifact.get("differential", {})
    if differential.get("enabled") or differential.get("total"):
        by_cls = differential.get("by_classification", {})
        lines += [
            "",
            "cross-version divergences: "
            f"{differential.get('total', 0)} "
            + " ".join(
                f"{cls}={count}" for cls, count in sorted(by_cls.items())
            ),
        ]
        # Every program asks one outcome per profile plus one per
        # classification replay; each is verified, or answered from the
        # reads of the campaign's own load of the program or of an
        # earlier differential verification (DESIGN §5e).
        asked = (len(DEFAULT_PROFILES) * summary.get("generated", 0)
                 + counters.get("differential.replays", 0))
        primary = counters.get("differential.primary", 0)
        reused = counters.get("differential.reused", 0)
        lines.append(f"  verifications: {asked - primary - reused} run, "
                     f"{primary} answered by the primary load, "
                     f"{reused} from earlier reads")
        rows = differential.get("divergences", [])
        if rows:
            lines.append(
                f"  {'kind':<8} {'profiles':<20} {'class':<12} "
                f"{'iter':>5}  explanation"
            )
            for div in rows:
                profiles = (f"{div.get('profile_a', '?')} vs "
                            f"{div.get('profile_b', '?')}")
                lines.append(
                    f"  {div.get('kind', '?'):<8} {profiles:<20} "
                    f"{div.get('classification', '?'):<12} "
                    f"{div.get('iteration', -1):>5}  "
                    f"{div.get('explanation', '')}"
                )
        else:
            lines.append("  (no divergences)")
    return "\n".join(lines)
