"""``repro.obs`` — campaign observability: metrics, traces, taxonomy.

The subsystem has these layers (see DESIGN.md "Observability"):

- :mod:`repro.obs.metrics` — a deterministic metrics registry
  (counters / gauges / fixed-bucket histograms, wall-clock values
  segregated) whose snapshots merge worker-count-invariantly;
- :mod:`repro.obs.trace` — JSONL trace events and spans with a no-op
  recorder as the disabled default, plus :class:`PhaseClock`, the
  single phase timer the campaign loop runs on;
- :mod:`repro.obs.taxonomy` — stable reason codes for every verifier
  rejection;
- :mod:`repro.obs.events` — the verifier's event stream: the
  :class:`Observer` protocol its subscribers implement, the fan-out,
  and the flight recorder (a bounded ring of decision events per
  verification, consumed by :mod:`repro.obs.explain`);
- :mod:`repro.obs.profile` — the hierarchical verifier profiler, a
  subscriber: deterministic frame/op counts with wall-segregated
  self/cumulative times, rendered by ``repro profile``;
- :mod:`repro.obs.frontier` — coverage-frontier attribution over
  campaign iterations.

Instrumented components do not take sink arguments — they read the
**process-current sinks** held here: the metrics registry, the trace
recorder (campaign-level events from the generator, oracle and
interpreter), and the verifier's one **observer** — ``None`` when
nothing subscribes, else one subscriber or a fan-out
(:func:`repro.obs.events.compose`), which each ``Verifier`` reads once.
A :class:`~repro.fuzz.campaign.Campaign` installs its per-shard sinks
at the top of ``run()`` and restores the previous ones on exit.  Shards
either run sequentially in-process or one-per-fork, so a process-global
holder is race-free and keeps the per-shard attribution exact.
"""

from __future__ import annotations

from repro.obs.events import FlightRecorder, Observer, compose
from repro.obs.metrics import (
    MetricsRegistry,
    NullMetrics,
    merge_snapshots,
    strip_wall_fields,
)
from repro.obs.profile import VerifierProfiler
from repro.obs.taxonomy import UNCLASSIFIED, classify
from repro.obs.trace import (
    NULL_RECORDER,
    JsonlTraceRecorder,
    NullRecorder,
    PhaseClock,
    VerifierTrace,
)

__all__ = [
    "MetricsRegistry",
    "NullMetrics",
    "NullRecorder",
    "JsonlTraceRecorder",
    "FlightRecorder",
    "Observer",
    "VerifierProfiler",
    "VerifierTrace",
    "PhaseClock",
    "NULL_RECORDER",
    "UNCLASSIFIED",
    "classify",
    "compose",
    "merge_snapshots",
    "strip_wall_fields",
    "metrics",
    "recorder",
    "observer",
    "install",
    "restore",
]

_NULL_METRICS = NullMetrics()

_current_metrics = _NULL_METRICS
_current_recorder = NULL_RECORDER
_current_observer = None


def metrics():
    """The process-current metrics sink (a no-op outside campaigns)."""
    return _current_metrics


def recorder():
    """The process-current trace recorder (``enabled`` is the gate)."""
    return _current_recorder


def observer():
    """The process-current verifier observer (``None`` = unobserved)."""
    return _current_observer


def install(registry=None, trace_recorder=None, observer=None) -> tuple:
    """Make the given sinks current; returns the previous sinks.

    Pass the returned token to :func:`restore` (in a ``finally``) so
    nested campaigns — e.g. the oracle's differential replay spinning
    up inner kernels — compose instead of clobbering each other.  The
    token is opaque; callers must not depend on its shape.
    """
    global _current_metrics, _current_recorder, _current_observer
    token = (_current_metrics, _current_recorder, _current_observer)
    _current_metrics = registry if registry is not None else _NULL_METRICS
    _current_recorder = (
        trace_recorder if trace_recorder is not None else NULL_RECORDER
    )
    _current_observer = observer
    return token


def restore(token: tuple) -> None:
    """Reinstate the sinks that were current before :func:`install`."""
    global _current_metrics, _current_recorder, _current_observer
    _current_metrics, _current_recorder, _current_observer = token
