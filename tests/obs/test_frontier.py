"""Coverage-frontier tests: attribution, sharded merge, campaign
integration and the report section.

Covered here:

- every coverage-contributing iteration is attributed to its frame
  composition, prog type, and origin;
- per-shard snapshots shift to global iterations and merge
  worker-count invariantly;
- a campaign fills the snapshot ``repro report`` renders.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.parallel import ParallelCampaign
from repro.obs.frontier import (
    FrontierTracker,
    merge_frontiers,
    render_frontier,
    shift_frontier,
)


def note(tracker, iteration, edges, frames=("basic",), prog_type="XDP",
         origin="bvf"):
    return tracker.note(iteration, edges, frames=frames,
                        prog_type=prog_type, origin=origin)


class TestTracker:
    def test_attribution(self):
        tracker = FrontierTracker()
        note(tracker, 0, 3, frames={"jump", "basic"})
        note(tracker, 1, 0)
        note(tracker, 2, 2, frames={"basic"}, prog_type="KPROBE",
             origin="bvf-mut")
        snap = tracker.snapshot()
        assert snap["iterations"] == 3
        assert snap["contributing"] == 2
        assert snap["new_edges"] == 5
        assert snap["last_new_iteration"] == 2
        # Composition key is the sorted +-join of the frame set.
        assert snap["by_frame"] == {"basic": 1, "basic+jump": 1}
        assert snap["edges_by_frame"] == {"basic": 2, "basic+jump": 3}
        assert snap["by_prog_type"] == {"KPROBE": 1, "XDP": 1}
        assert snap["by_origin"] == {"bvf": 1, "bvf-mut": 1}
        assert snap["curve"] == [[0, 3], [2, 2]]

    def test_fresh_tracker_snapshot(self):
        snap = FrontierTracker().snapshot()
        assert snap["iterations"] == 0
        assert snap["contributing"] == 0
        assert snap["last_new_iteration"] == -1
        assert snap["curve"] == []
        assert render_frontier(snap)[1].strip().startswith("n/a")

    def test_non_contributing_iterations_only_count(self):
        tracker = FrontierTracker()
        note(tracker, 0, 0)
        note(tracker, 1, -1)
        snap = tracker.snapshot()
        assert snap["iterations"] == 2
        assert snap["contributing"] == 0
        assert snap["new_edges"] == 0
        assert snap["last_new_iteration"] == -1
        for family in ("by_frame", "edges_by_frame", "by_prog_type",
                       "by_origin"):
            assert snap[family] == {}

    def test_composition_independent_of_frame_order(self):
        tracker = FrontierTracker()
        note(tracker, 0, 1, frames=("loop", "basic", "call"))
        note(tracker, 1, 1, frames=["call", "loop", "basic"])
        note(tracker, 2, 1, frames={"basic", "call", "loop"})
        assert tracker.snapshot()["by_frame"] == {"basic+call+loop": 3}

    def test_snapshot_counters_sorted(self):
        tracker = FrontierTracker()
        note(tracker, 0, 1, frames={"mem"}, prog_type="XDP", origin="bvf")
        note(tracker, 1, 1, frames={"alu"}, prog_type="KPROBE",
             origin="bvf-mut")
        snap = tracker.snapshot()
        for family in ("by_frame", "edges_by_frame", "by_prog_type",
                       "by_origin"):
            assert list(snap[family]) == sorted(snap[family])


class TestShiftAndMerge:
    def _shard(self, offset=0):
        tracker = FrontierTracker()
        note(tracker, 0, 2)
        for i in range(1, 5):
            note(tracker, i, 0)
        return shift_frontier(tracker.snapshot(), offset)

    def test_shift_remaps_iterations(self):
        snap = self._shard(offset=100)
        assert snap["last_new_iteration"] == 100
        assert snap["curve"] == [[100, 2]]
        # Counters carry no iteration numbers: the shift leaves them.
        assert snap["iterations"] == 5
        assert snap["by_frame"] == {"basic": 1}

    def test_shift_empty(self):
        assert shift_frontier({}, 10) == {}

    def test_shift_keeps_no_contribution_marker(self):
        tracker = FrontierTracker()
        note(tracker, 0, 0)
        snap = shift_frontier(tracker.snapshot(), 50)
        assert snap["last_new_iteration"] == -1
        assert snap["curve"] == []

    def test_shift_leaves_input_unchanged(self):
        tracker = FrontierTracker()
        note(tracker, 0, 2)
        original = tracker.snapshot()
        shift_frontier(original, 7)
        assert original == tracker.snapshot()

    def test_merge_sums_and_interleaves(self):
        merged = merge_frontiers([self._shard(0), self._shard(5), {}])
        assert merged["iterations"] == 10
        assert merged["contributing"] == 2
        assert merged["new_edges"] == 4
        assert merged["last_new_iteration"] == 5
        assert merged["by_frame"] == {"basic": 2}
        assert merged["curve"] == [[0, 2], [5, 2]]

    def test_merge_order_independent(self):
        a, b = self._shard(0), self._shard(5)
        assert merge_frontiers([a, b]) == merge_frontiers([b, a])

    def test_merge_all_empty(self):
        assert merge_frontiers([{}, {}]) == {}


class TestCampaignIntegration:
    @pytest.fixture(scope="class")
    def result(self):
        config = CampaignConfig(budget=60, seed=2)
        return Campaign(config).run()

    def test_frontier_snapshot_populated(self, result):
        frontier = result.frontier
        assert frontier["iterations"] == result.generated
        assert set(frontier) == {
            "iterations", "contributing", "new_edges",
            "last_new_iteration", "by_frame", "edges_by_frame",
            "by_prog_type", "by_origin", "curve",
        }
        assert frontier["contributing"] > 0
        assert frontier["by_frame"]
        assert frontier["by_prog_type"]
        assert frontier["by_origin"]

    def test_no_frontier_without_coverage(self):
        config = CampaignConfig(budget=5, seed=0, collect_coverage=False)
        assert Campaign(config).run().frontier == {}

    def test_rejected_iterations_attributed(self):
        # Rejections reach the frontier too: coverage.collect() sets
        # last_new in its finally block, so contributing can exceed the
        # number of accepted programs when rejects discover edges.
        config = CampaignConfig(budget=60, seed=2, kernel_version="patched")
        result = Campaign(config).run()
        assert result.accepted < result.generated
        assert result.frontier["contributing"] > 0

    def test_counters_agree_with_totals(self, result):
        frontier = result.frontier
        for family in ("by_frame", "by_prog_type", "by_origin"):
            assert sum(frontier[family].values()) == frontier["contributing"]
        assert sum(frontier["edges_by_frame"].values()) == (
            frontier["new_edges"]
        )
        assert set(frontier["edges_by_frame"]) == set(frontier["by_frame"])

    def test_curve_agrees_with_totals(self, result):
        frontier = result.frontier
        curve = frontier["curve"]
        assert len(curve) == frontier["contributing"]
        assert sum(edges for _, edges in curve) == frontier["new_edges"]
        assert curve[-1][0] == frontier["last_new_iteration"]
        assert all(edges > 0 for _, edges in curve)

    def test_no_plateau_record(self):
        stream = io.StringIO()
        config = CampaignConfig(budget=20, seed=2, trace_path=stream)
        result = Campaign(config).run()
        names = {json.loads(line).get("name")
                 for line in stream.getvalue().splitlines()}
        assert "campaign.plateau" not in names
        assert "campaign.plateaus" not in result.metrics["counters"]
        assert "plateaus" not in result.frontier

    def test_sharded_curve_in_global_iterations(self):
        config = CampaignConfig(budget=30, seed=2)
        frontier = ParallelCampaign(config, workers=1, shards=3).run().frontier
        assert frontier["iterations"] == 30
        iterations = [iteration for iteration, _ in frontier["curve"]]
        assert iterations == sorted(set(iterations))
        assert 0 <= iterations[0] and iterations[-1] < 30
        assert iterations[-1] == frontier["last_new_iteration"]
        assert len(iterations) == frontier["contributing"]


class TestRender:
    def test_render_sections(self):
        tracker = FrontierTracker()
        note(tracker, 0, 4, frames={"basic", "call"})
        note(tracker, 1, 0)
        note(tracker, 2, 0)
        lines = render_frontier(tracker.snapshot())
        text = "\n".join(lines)
        assert "coverage frontier:" in text
        assert "1 of 3 iterations contributed 4 new-edge discoveries" in text
        assert "basic+call" in text
        assert "contributing prog types: XDP=1" in text
        assert "contributing origins: bvf=1" in text

    def test_render_ranks_compositions_by_edges(self):
        tracker = FrontierTracker()
        note(tracker, 0, 1, frames={"alu"})
        note(tracker, 1, 5, frames={"mem"})
        note(tracker, 2, 3, frames={"jump"})
        note(tracker, 3, 3, frames={"call"})
        lines = render_frontier(tracker.snapshot(), top=3)
        start = lines.index("  new edges by frame composition:") + 1
        ranked = [line.split()[0] for line in lines[start:start + 3]]
        # Most edges first; ties broken by composition name.
        assert ranked == ["mem", "call", "jump"]
        assert not any(line.split()[0] == "alu" for line in lines[start:])

    def test_render_top_limits_prog_types(self):
        tracker = FrontierTracker()
        for iteration, prog_type in enumerate(
            ["XDP", "KPROBE", "XDP", "SOCKET_FILTER", "KPROBE", "XDP"]
        ):
            note(tracker, iteration, 1, prog_type=prog_type)
        text = "\n".join(render_frontier(tracker.snapshot(), top=2))
        assert "contributing prog types: XDP=3 KPROBE=2\n" in text + "\n"
        assert "SOCKET_FILTER" not in text

    def test_render_empty_is_na(self):
        text = "\n".join(render_frontier({}))
        assert "n/a" in text
