"""``repro.obs`` — campaign observability: metrics, traces, taxonomy.

The subsystem has three layers (see DESIGN.md "Observability"):

- :mod:`repro.obs.metrics` — a deterministic metrics registry
  (counters / gauges / fixed-bucket histograms, wall-clock values
  segregated) whose snapshots merge worker-count-invariantly;
- :mod:`repro.obs.trace` — JSONL trace events and spans with a no-op
  recorder as the disabled default, plus :class:`PhaseClock`, the
  single phase timer the campaign loop runs on;
- :mod:`repro.obs.taxonomy` — stable reason codes for every verifier
  rejection;
- :mod:`repro.obs.events` — the verifier flight recorder: a bounded
  ring of typed decision events per verification, spilled on
  interesting outcomes and consumed by :mod:`repro.obs.explain`;
- :mod:`repro.obs.profile` — the hierarchical verifier profiler:
  deterministic frame/op counts with wall-segregated self/cumulative
  times, rendered by ``repro profile``;
- :mod:`repro.obs.frontier` — coverage-frontier attribution and
  plateau detection over campaign iterations.

Instrumented components (verifier, generator, sanitizer, interpreter,
oracle) do not take recorder arguments — they read the
**process-current sinks** held here.  A :class:`~repro.fuzz.campaign.
Campaign` installs its per-shard registry/recorder at the top of
``run()`` and restores the previous sinks on exit.  Shards either run
sequentially in-process or one-per-fork, so a process-global holder is
race-free and keeps the per-shard attribution exact.  Outside a
campaign the sinks are no-ops: the disabled cost on a hot path is one
module-attribute read and an empty method call.
"""

from __future__ import annotations

from repro.obs.events import (
    NULL_FLIGHT,
    FlightRecorder,
    NullFlightRecorder,
)
from repro.obs.metrics import (
    MetricsRegistry,
    NullMetrics,
    merge_snapshots,
    strip_wall_fields,
)
from repro.obs.profile import (
    NULL_PROFILER,
    NullProfiler,
    VerifierProfiler,
)
from repro.obs.taxonomy import UNCLASSIFIED, classify
from repro.obs.trace import (
    NULL_RECORDER,
    JsonlTraceRecorder,
    NullRecorder,
    PhaseClock,
)

__all__ = [
    "MetricsRegistry",
    "NullMetrics",
    "NullRecorder",
    "JsonlTraceRecorder",
    "FlightRecorder",
    "NullFlightRecorder",
    "VerifierProfiler",
    "NullProfiler",
    "PhaseClock",
    "NULL_RECORDER",
    "NULL_FLIGHT",
    "NULL_PROFILER",
    "UNCLASSIFIED",
    "classify",
    "merge_snapshots",
    "strip_wall_fields",
    "metrics",
    "recorder",
    "flight",
    "profiler",
    "install",
    "restore",
]

_NULL_METRICS = NullMetrics()

_current_metrics = _NULL_METRICS
_current_recorder = NULL_RECORDER
_current_flight = NULL_FLIGHT
_current_profiler = NULL_PROFILER


def metrics():
    """The process-current metrics sink (a no-op outside campaigns)."""
    return _current_metrics


def recorder():
    """The process-current trace recorder (``enabled`` is the gate)."""
    return _current_recorder


def flight():
    """The process-current flight recorder (``enabled`` is the gate)."""
    return _current_flight


def profiler():
    """The process-current verifier profiler (``enabled`` is the gate)."""
    return _current_profiler


def install(
    registry=None,
    trace_recorder=None,
    flight_recorder=None,
    profiler=None,
) -> tuple:
    """Make the given sinks current; returns the previous sinks.

    Pass the returned token to :func:`restore` (in a ``finally``) so
    nested campaigns — e.g. the oracle's differential replay spinning
    up inner kernels — compose instead of clobbering each other.  The
    token is opaque; callers must not depend on its shape.
    """
    global _current_metrics, _current_recorder, _current_flight
    global _current_profiler
    token = (
        _current_metrics,
        _current_recorder,
        _current_flight,
        _current_profiler,
    )
    _current_metrics = registry if registry is not None else _NULL_METRICS
    _current_recorder = (
        trace_recorder if trace_recorder is not None else NULL_RECORDER
    )
    _current_flight = (
        flight_recorder if flight_recorder is not None else NULL_FLIGHT
    )
    _current_profiler = profiler if profiler is not None else NULL_PROFILER
    return token


def restore(token: tuple) -> None:
    """Reinstate the sinks that were current before :func:`install`."""
    global _current_metrics, _current_recorder, _current_flight
    global _current_profiler
    (_current_metrics, _current_recorder, _current_flight,
     _current_profiler) = token
