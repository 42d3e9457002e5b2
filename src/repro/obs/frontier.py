"""Coverage-frontier attribution.

The coverage curve (Figure 6) says *whether* a campaign is still
finding new verifier behaviour; this module says *which programs* are
finding it.  Every iteration whose verification touched new coverage
edges is attributed to its generator frame composition (the sorted
``+``-joined frame kinds — e.g. ``basic+jump``), its ``prog_type``,
and its origin (generated vs mutated); ``repro report`` renders the
attribution as its frontier section.

Everything here is deterministic: attribution counters and curves
depend only on ``(seed, budget, shards)``.  Per-shard trackers run on
local iteration numbers; :func:`shift_frontier` remaps a snapshot to
global iterations and :func:`merge_frontiers` folds shards together
worker-count-invariantly (counters sum, curves interleave in
global-iteration order).  Note the attribution semantics under
sharding: "new" means new *to that shard* — shards are isolated, so
the merged ``new_edges`` total is the sum of per-shard discoveries,
not the global unique-edge count (which the coverage curve already
reports).
"""

from __future__ import annotations

from collections import Counter

__all__ = [
    "FrontierTracker",
    "shift_frontier",
    "merge_frontiers",
    "render_frontier",
]


class FrontierTracker:
    """Per-shard coverage-frontier bookkeeping (deterministic)."""

    def __init__(self) -> None:
        self.iterations = 0
        #: iterations that contributed at least one new edge
        self.contributing = 0
        #: sum of new-edge counts over contributing iterations
        self.new_edges = 0
        self.last_new_iteration = -1
        #: frame composition -> contributing iterations / edges found
        self.by_frame: Counter = Counter()
        self.edges_by_frame: Counter = Counter()
        self.by_prog_type: Counter = Counter()
        self.by_origin: Counter = Counter()
        #: (iteration, new_edges) for every contributing iteration
        self.curve: list[tuple[int, int]] = []

    def note(
        self,
        iteration: int,
        new_edges: int,
        *,
        frames,
        prog_type: str,
        origin: str,
    ) -> None:
        """Fold one iteration in.

        ``frames`` is the frame-kind set
        (:meth:`~repro.fuzz.campaign.Campaign._frame_kinds`); the
        composition key is its sorted ``+``-join, so attribution is
        independent of set iteration order.
        """
        self.iterations = iteration + 1
        if new_edges <= 0:
            return
        composition = "+".join(sorted(frames))
        self.contributing += 1
        self.new_edges += new_edges
        self.last_new_iteration = iteration
        self.by_frame[composition] += 1
        self.edges_by_frame[composition] += new_edges
        self.by_prog_type[prog_type] += 1
        self.by_origin[origin] += 1
        self.curve.append((iteration, new_edges))

    def snapshot(self) -> dict:
        """Plain-dict form (fully deterministic — no wall section)."""
        return {
            "iterations": self.iterations,
            "contributing": self.contributing,
            "new_edges": self.new_edges,
            "last_new_iteration": self.last_new_iteration,
            "by_frame": dict(sorted(self.by_frame.items())),
            "edges_by_frame": dict(sorted(self.edges_by_frame.items())),
            "by_prog_type": dict(sorted(self.by_prog_type.items())),
            "by_origin": dict(sorted(self.by_origin.items())),
            "curve": [list(point) for point in self.curve],
        }


def shift_frontier(snapshot: dict, offset: int) -> dict:
    """Remap a shard-local snapshot to global iteration numbers."""
    if not snapshot:
        return {}
    shifted = dict(snapshot)
    if shifted.get("last_new_iteration", -1) >= 0:
        shifted["last_new_iteration"] += offset
    shifted["curve"] = [
        [iteration + offset, new_edges]
        for iteration, new_edges in snapshot.get("curve", [])
    ]
    return shifted


_FRONTIER_COUNTERS = (
    "by_frame", "edges_by_frame", "by_prog_type", "by_origin",
)


def merge_frontiers(snapshots: list[dict]) -> dict:
    """Fold (already-shifted) shard snapshots into one frontier.

    Worker-count invariant: sums and sorted interleavings only, keyed
    by global iteration (ties impossible — shards own disjoint
    iteration ranges).
    """
    snapshots = [snap for snap in snapshots if snap]
    if not snapshots:
        return {}
    merged: dict = {
        "iterations": sum(snap.get("iterations", 0) for snap in snapshots),
        "contributing": sum(
            snap.get("contributing", 0) for snap in snapshots
        ),
        "new_edges": sum(snap.get("new_edges", 0) for snap in snapshots),
        "last_new_iteration": max(
            snap.get("last_new_iteration", -1) for snap in snapshots
        ),
    }
    for family in _FRONTIER_COUNTERS:
        counter: Counter = Counter()
        for snap in snapshots:
            counter.update(snap.get(family, {}))
        merged[family] = dict(sorted(counter.items()))
    merged["curve"] = sorted(
        list(point) for snap in snapshots for point in snap.get("curve", [])
    )
    return merged


def render_frontier(frontier: dict, top: int = 8) -> list[str]:
    """The report's frontier section, as lines (appended by the caller)."""
    lines = ["coverage frontier:"]
    if not frontier or not frontier.get("iterations"):
        lines.append("  n/a (no frontier data in this artifact)")
        return lines
    lines.append(
        f"  {frontier.get('contributing', 0)} of "
        f"{frontier.get('iterations', 0)} iterations contributed "
        f"{frontier.get('new_edges', 0)} new-edge discoveries; "
        f"last at iteration {frontier.get('last_new_iteration', -1)}"
    )
    by_frame = frontier.get("by_frame", {})
    edges_by_frame = frontier.get("edges_by_frame", {})
    if by_frame:
        lines.append("  new edges by frame composition:")
        ranked = sorted(
            edges_by_frame.items(), key=lambda kv: (-kv[1], kv[0])
        )
        for composition, edges in ranked[:top]:
            lines.append(
                f"    {composition:<24} {edges:>7} edges over "
                f"{by_frame.get(composition, 0)} iterations"
            )
    by_prog_type = frontier.get("by_prog_type", {})
    if by_prog_type:
        ranked = sorted(by_prog_type.items(), key=lambda kv: (-kv[1], kv[0]))
        lines.append(
            "  contributing prog types: "
            + " ".join(f"{name}={count}" for name, count in ranked[:top])
        )
    by_origin = frontier.get("by_origin", {})
    if by_origin:
        lines.append(
            "  contributing origins: "
            + " ".join(
                f"{name}={count}" for name, count in sorted(by_origin.items())
            )
        )
    return lines
