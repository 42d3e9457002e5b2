"""Metrics artifact: the JSON document ``--metrics PATH`` emits.

One artifact captures everything ``python -m repro report`` renders:
the campaign summary, the rejection taxonomy with its per-frame-kind
acceptance breakdown, the merged metrics snapshot, per-shard
coverage/throughput rows, and bug-indicator counts.

Wall-clock data is **structurally segregated**: the top-level
``"wall"`` key, the ``"wall"`` key inside the metrics snapshot, and
the ``"wall"`` sub-dict of every shard row hold every field that
depends on how fast the host ran.  :func:`strip_wall` removes all
three, and the remainder is the worker-count-invariance contract: for
fixed ``(seed, budget, shards)``, ``strip_wall(artifact)`` is
bit-identical whether the campaign ran on 1 worker or 16.
"""

from __future__ import annotations

import copy
import json

from repro.analysis.stats import ThroughputStats
from repro.obs.metrics import empty_snapshot, strip_wall_fields
from repro.obs.profile import strip_profile_wall

__all__ = ["SCHEMA", "build_artifact", "strip_wall", "write_artifact"]

#: v2 added the ``profile`` (hierarchical profiler) and ``frontier``
#: (coverage-frontier attribution) sections; v3 added the ``repair``
#: section (verified rejection repairs per taxonomy reason, from
#: ``--repair-feedback`` campaigns); consumers accept any
#: ``repro-metrics-v*`` and render missing sections as "n/a".
SCHEMA = "repro-metrics-v3"


def _frame_breakdown(result) -> dict:
    generated = dict(sorted(result.frame_generated.items()))
    accepted = dict(sorted(result.frame_accepted.items()))
    acceptance = {
        kind: (accepted.get(kind, 0) / count if count else 0.0)
        for kind, count in generated.items()
    }
    return {
        "generated": generated,
        "accepted": accepted,
        "acceptance": acceptance,
    }


def build_artifact(result) -> dict:
    """Build the artifact dict from a (possibly merged) campaign result."""
    config = result.config
    throughput = ThroughputStats.from_result(result)

    # A shard's result carries its own config (index, shard budget);
    # its first global iteration is the budgets of the shards before it.
    shards = []
    start = 0
    for shard in getattr(result, "shard_results", []):
        busy = (shard.generate_seconds + shard.verify_seconds
                + shard.execute_seconds)
        shards.append(
            {
                "index": shard.config.shard_index,
                "start_iteration": start,
                "generated": shard.generated,
                "accepted": shard.accepted,
                "coverage_edges": len(shard.edges),
                "corpus_size": shard.corpus_size,
                "wall": {
                    "wall_seconds": shard.wall_seconds,
                    "busy_seconds": busy,
                    "programs_per_sec": (
                        shard.generated / shard.wall_seconds
                        if shard.wall_seconds else 0.0
                    ),
                    "bootstrap_seconds": shard.bootstrap_seconds,
                    "setup_seconds": shard.setup_seconds,
                },
            }
        )
        start += shard.config.budget

    indicators = {
        "indicator1": 0,
        "indicator2": 0,
        "component": 0,
        "differential": 0,
        "invariant": 0,
    }
    findings = {}
    for bug_id in sorted(result.findings):
        finding = result.findings[bug_id]
        indicators[finding.indicator] = indicators.get(finding.indicator, 0) + 1
        findings[bug_id] = {
            "indicator": finding.indicator,
            "report_kind": finding.report_kind,
            "iteration": finding.iteration,
        }

    divergences = dict(sorted(result.divergences.items()))
    by_classification: dict[str, int] = {}
    for div in divergences.values():
        cls = div.get("classification", "unexplained")
        by_classification[cls] = by_classification.get(cls, 0) + 1

    repair_by_reason = {}
    for reason in sorted(result.repairs_attempted):
        attempted = result.repairs_attempted[reason]
        verified = result.repairs_verified.get(reason, 0)
        repair_by_reason[reason] = {
            "attempted": attempted,
            "verified": verified,
            "verified_rate": verified / attempted if attempted else 0.0,
            "example": result.repair_examples.get(reason),
        }
    total_attempted = sum(result.repairs_attempted.values())
    total_verified = sum(result.repairs_verified.values())

    return {
        "schema": SCHEMA,
        "config": {
            "tool": config.tool,
            "kernel": config.kernel_version,
            "budget": config.budget,
            "seed": config.seed,
            "sanitize": config.sanitize,
            "differential": config.differential,
            "check_invariants": config.check_invariants,
            "flight": config.flight,
            "profile": config.profile,
            "repair_feedback": config.repair_feedback,
            "shards": getattr(result, "shards", 1),
            "workers": getattr(result, "workers", 1),
        },
        "summary": {
            "generated": result.generated,
            "accepted": result.accepted,
            "acceptance_rate": result.acceptance_rate,
            "final_coverage": result.final_coverage,
            "corpus_size": result.corpus_size,
        },
        "indicators": indicators,
        "findings": findings,
        "differential": {
            "enabled": config.differential,
            "total": len(divergences),
            "by_classification": dict(sorted(by_classification.items())),
            "divergences": list(divergences.values()),
        },
        "taxonomy": {
            "by_reason": dict(sorted(result.reject_reasons.items())),
            "by_errno": {
                str(errno): count
                for errno, count in sorted(result.reject_errnos.items())
            },
            "frames": _frame_breakdown(result),
            # One flight-recorder explanation per reason (earliest
            # global iteration); deterministic, so invariance-checked.
            "explanations": dict(sorted(result.reject_explanations.items())),
        },
        # Verified rejection repairs (v3).  Repairs are pure functions
        # of the deterministic rejection stream, so the whole section
        # is part of the worker-count-invariance contract (no wall
        # sub-section needed).
        "repair": {
            "enabled": config.repair_feedback,
            "attempted": total_attempted,
            "verified": total_verified,
            "verified_rate": (
                total_verified / total_attempted if total_attempted else 0.0
            ),
            "by_reason": repair_by_reason,
        },
        "metrics": result.metrics or empty_snapshot(),
        # Profiler snapshot: exact counts are deterministic, the
        # per-node wall times are host-speed-dependent — so the section
        # keeps the snapshot's own counts/wall split.
        "profile": {
            "enabled": config.profile,
            **result.profile,
        },
        # Frontier snapshot is iteration-indexed, hence fully
        # deterministic — no wall sub-section needed.
        "frontier": result.frontier,
        "shards": shards,
        "wall": {
            "throughput": throughput.as_dict(),
            "bootstrap_seconds": result.bootstrap_seconds,
            "setup_seconds": result.setup_seconds,
        },
    }


def strip_wall(artifact: dict) -> dict:
    """The artifact minus every non-invariant field (invariance form).

    Removes the three wall-clock sections, the ``workers`` knob, and
    the ``cache.`` metric family (see
    :func:`~repro.obs.metrics.strip_wall_fields` for why cache
    telemetry is excluded from the invariance contract).
    """
    stripped = copy.deepcopy(artifact)
    stripped.pop("wall", None)
    if "metrics" in stripped:
        stripped["metrics"] = strip_wall_fields(stripped["metrics"])
    # Profiler counts are invariant; per-node wall times are not.
    profile = stripped.get("profile")
    if profile:
        enabled = profile.get("enabled", False)
        stripped["profile"] = {"enabled": enabled,
                               **strip_profile_wall(profile)}
    # The workers knob itself is a throughput setting, not an outcome.
    stripped.get("config", {}).pop("workers", None)
    for shard in stripped.get("shards", []):
        shard.pop("wall", None)
    return stripped


def write_artifact(artifact: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
