"""Deterministic metrics registry: counters, gauges, histograms.

The registry is the aggregation half of the observability layer.  One
instance lives per campaign shard, components increment it through the
process-current holder in :mod:`repro.obs`, and the resulting
:meth:`MetricsRegistry.snapshot` travels back to the parent inside the
shard's ``CampaignResult``, where snapshots from every shard merge with
the same worker-count-invariance contract the rest of the merge obeys:

- **counters** sum;
- **gauges** join with ``max`` (the only order-independent join that
  keeps "high-water mark" semantics);
- **histograms** have *fixed* bucket boundaries declared at first
  observation, so merging is a per-bucket sum — no re-bucketing, no
  dependence on observation order;
- **wall-clock values are segregated** into their own ``wall`` section
  (sums and time histograms).  Everything outside ``wall`` is a pure
  function of ``(seed, budget, shards)``; everything inside it is
  expected to differ run-to-run and is excluded by
  :func:`strip_wall_fields` when artifacts are compared.

Snapshots are plain sorted dicts so they are picklable, JSON-able, and
stable under comparison.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter

__all__ = [
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "MetricsRegistry",
    "NullMetrics",
    "cache_hit_rates",
    "merge_snapshots",
    "strip_wall_fields",
]

#: Power-of-two-ish boundaries for size-like values (instruction
#: counts, states explored, sites instrumented).  A value lands in the
#: first bucket whose upper bound is >= value; the implicit last bucket
#: is +inf.
DEFAULT_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
                        4096, 16384, 65536)

#: Boundaries (seconds) for duration observations — spans from 100µs
#: to 10s, which covers per-program phase times and whole-shard laps.
DEFAULT_TIME_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                        0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                        5.0, 10.0)


class _Histogram:
    """Fixed-boundary histogram; counts[i] covers (bounds[i-1], bounds[i]]."""

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """One shard's metric state.  Not thread-safe; shards are serial."""

    def __init__(self) -> None:
        self._counters: Counter = Counter()
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}
        self._wall_sums: Counter = Counter()
        self._wall_histograms: dict[str, _Histogram] = {}

    # -------------------------------------------------- deterministic side --

    def counter(self, name: str, n: int = 1) -> None:
        self._counters[name] += n

    def gauge_max(self, name: str, value: float) -> None:
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value

    def observe(self, name: str, value: float,
                buckets: tuple[float, ...] = DEFAULT_SIZE_BUCKETS) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = _Histogram(buckets)
        hist.observe(value)

    # --------------------------------------------------- wall-clock side --

    def wall(self, name: str, seconds: float) -> None:
        """Accumulate a wall-clock duration (segregated from counters)."""
        self._wall_sums[name] += seconds

    def observe_time(self, name: str, seconds: float) -> None:
        """Record one duration into a wall-clock histogram."""
        hist = self._wall_histograms.get(name)
        if hist is None:
            hist = self._wall_histograms[name] = _Histogram(DEFAULT_TIME_BUCKETS)
        hist.observe(seconds)

    # ------------------------------------------------------------ output --

    def snapshot(self) -> dict:
        """Plain sorted-dict form, safe to pickle/JSON and to merge."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: hist.as_dict()
                for name, hist in sorted(self._histograms.items())
            },
            "wall": {
                "sums": dict(sorted(self._wall_sums.items())),
                "histograms": {
                    name: hist.as_dict()
                    for name, hist in sorted(self._wall_histograms.items())
                },
            },
        }


class NullMetrics:
    """Default sink: every method is a no-op.

    Installed when no campaign is running so library code can call
    ``obs.metrics().counter(...)`` unconditionally — the disabled cost
    is one attribute lookup and an empty call.
    """

    def counter(self, name: str, n: int = 1) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float,
                buckets: tuple[float, ...] = DEFAULT_SIZE_BUCKETS) -> None:
        pass

    def wall(self, name: str, seconds: float) -> None:
        pass

    def observe_time(self, name: str, seconds: float) -> None:
        pass

    def snapshot(self) -> dict:
        return empty_snapshot()


def empty_snapshot() -> dict:
    return {
        "counters": {},
        "gauges": {},
        "histograms": {},
        "wall": {"sums": {}, "histograms": {}},
    }


def _merge_hist(into: dict, hist: dict, name: str) -> None:
    kept = into.get(name)
    if kept is None:
        into[name] = {
            "bounds": list(hist["bounds"]),
            "counts": list(hist["counts"]),
            "count": hist["count"],
            "sum": hist["sum"],
        }
        return
    if kept["bounds"] != hist["bounds"]:
        raise ValueError(
            f"histogram {name!r}: bucket boundaries differ across shards "
            f"({kept['bounds']} vs {hist['bounds']})"
        )
    kept["counts"] = [a + b for a, b in zip(kept["counts"], hist["counts"])]
    kept["count"] += hist["count"]
    kept["sum"] += hist["sum"]


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Fold shard snapshots into one, shard-order-independent.

    Counters and histogram buckets sum, gauges take the max, wall-clock
    sections merge the same way but stay segregated.  The result is
    identical for any permutation of ``snapshots`` (sums and maxes are
    commutative), which is what makes the merged artifact
    worker-count-invariant.
    """
    merged = empty_snapshot()
    counters: Counter = Counter()
    wall_sums: Counter = Counter()
    for snap in snapshots:
        counters.update(snap.get("counters", {}))
        for name, value in snap.get("gauges", {}).items():
            if name not in merged["gauges"] or value > merged["gauges"][name]:
                merged["gauges"][name] = value
        for name, hist in snap.get("histograms", {}).items():
            _merge_hist(merged["histograms"], hist, name)
        wall = snap.get("wall", {})
        wall_sums.update(wall.get("sums", {}))
        for name, hist in wall.get("histograms", {}).items():
            _merge_hist(merged["wall"]["histograms"], hist, name)
    merged["counters"] = dict(sorted(counters.items()))
    merged["gauges"] = dict(sorted(merged["gauges"].items()))
    merged["histograms"] = dict(sorted(merged["histograms"].items()))
    merged["wall"]["sums"] = dict(sorted(wall_sums.items()))
    merged["wall"]["histograms"] = dict(
        sorted(merged["wall"]["histograms"].items())
    )
    return merged


def strip_wall_fields(snapshot: dict) -> dict:
    """A snapshot without its ``wall`` section.

    This is the comparison form for the worker-invariance contract:
    two campaigns with the same ``(seed, budget, shards)`` must produce
    equal stripped snapshots regardless of ``workers``.  Wall-clock
    time is run-to-run noise; every counter, gauge and histogram
    outside ``wall`` is compared.
    """
    return {section: value for section, value in snapshot.items()
            if section != "wall"}


def _hit_rate(counters: dict, hits_key: str, misses_key: str) -> float:
    hits = counters.get(hits_key, 0)
    total = hits + counters.get(misses_key, 0)
    return round(hits / total, 4) if total else 0.0


def cache_hit_rates(counters: dict) -> dict:
    """Hit rate of the verifier's prune index, from one counter map.

    Read by the ``repro report`` dashboard.  The counts are exact and
    are compared by ``benchmarks/check_baseline.py``.
    """
    return {
        "prune_index_hit_rate": _hit_rate(
            counters, "verifier.prune.scan_hits", "verifier.prune.misses"),
    }


def histogram_quantile(hist: dict, q: float) -> float:
    """Approximate quantile from bucket counts (upper bound of bucket)."""
    if not hist["count"]:
        return 0.0
    target = math.ceil(hist["count"] * q)
    seen = 0
    bounds = hist["bounds"]
    for i, c in enumerate(hist["counts"]):
        seen += c
        if seen >= target:
            return bounds[i] if i < len(bounds) else float("inf")
    return float("inf")
