"""Span tracer for the benchmark's traced run.

The tracer measures every layer from outside the program: while
:func:`instrument` is active, the public entry points of each layer are
replaced by thin wrappers that record a span (layer, start, end, parent
span, program id) around the call.  Spans are kept in memory and
written out as JSON lines when the run ends.  A span's self time is its
duration minus the time its child spans cover, so nested calls — the
oracle's triage replays, the repair candidates' re-verification — land
in the layer that did the work (the verifier), not in their caller.

Coverage tracing cannot be isolated by nesting: the tracer slows down
the very ``prog_load`` it watches.  Its cost is measured the way the
layer's definition suggests: after each collection window closes, the
same program is loaded again outside any window (a *shadow* load, on a
fresh kernel holding the same maps, with the program's metrics sinks
swapped out), and the difference between the traced and the untraced
load is moved from the verifier to ``fuzz.coverage``.  Shadow spans are
excluded from every layer and from the wall time.  The shadow load runs
after the traced one, so it sees a slightly warmer tnum memo; the
coverage share is, if anything, a little overstated.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

#: Layers whose self time counts as attributed.  Everything else
#: (``round``, ``campaign``, ``program``: the loops around the layers)
#: is the unattributed remainder, and ``shadow`` is measurement cost.
LAYERS = (
    "fuzz.coverage",
    "fuzz.generator",
    "fuzz.mutator",
    "fuzz.oracle",
    "fuzz.parallel",
    "verifier",
    "kernel",
    "runtime",
    "analysis.differential",
    "analysis.repair",
)

#: Verifier call sites, keyed by the layer of the span that made the call.
_SITES = {
    "fuzz.oracle": "triage",
    "analysis.repair": "repair",
    "analysis.differential": "differential",
}


class Span:
    __slots__ = ("layer", "start", "end", "parent", "program", "child",
                 "attrs")

    def __init__(self, layer, start, parent, program, attrs) -> None:
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.program = program
        self.child = 0.0
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """In-memory span store for one traced pass (single thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        #: id of the program the current spans belong to
        self.program = None
        #: >0 while a shadow load runs: wrappers pass straight through
        self.suspended = 0

    def begin(self, layer: str, **attrs) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(layer, time.perf_counter(), parent, self.program, attrs)
        self.spans.append(span)
        self._open.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._open.pop()
        assert popped is span, "spans must nest"
        if span.parent is not None:
            span.parent.child += span.end - span.start

    @contextmanager
    def span(self, layer: str, **attrs):
        span = self.begin(layer, **attrs)
        try:
            yield span
        finally:
            self.finish(span)

    def current_layer(self) -> str | None:
        return self._open[-1].layer if self._open else None

    def enclosing(self, layer: str) -> Span | None:
        for span in reversed(self._open):
            if span.layer == layer:
                return span
        return None

    def dump(self, path) -> None:
        """Write every span as one JSON line (parent as a span index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.layer,
                    "start": span.start,
                    "end": span.end,
                    "parent": (index[id(span.parent)]
                               if span.parent is not None else None),
                    "program": span.program,
                    "self": span.self_time,
                    "attrs": span.attrs,
                }, default=str) + "\n")


# --------------------------------------------------------------------------
# Instrumentation
# --------------------------------------------------------------------------


def _wrap(tracer: Tracer, fn, layer: str, note=None):
    """Record a ``layer`` span around ``fn``; ``note(span, result)``
    may annotate the span from the call's result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.suspended:
            return fn(*args, **kwargs)
        span = tracer.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(span)
        if note is not None:
            note(span, result)
        return result

    return wrapper


def _shadow_kernel(kernel):
    """A fresh kernel holding the same maps at the same fds."""
    from repro.kernel.syscall import Kernel

    shadow = Kernel(kernel.config)
    fd = 3
    while (bpf_map := kernel.map_by_fd(fd)) is not None:
        shadow.map_create(bpf_map.map_type, bpf_map.key_size,
                          bpf_map.value_size, bpf_map.max_entries,
                          has_spin_lock=bpf_map.has_spin_lock)
        fd += 1
    return shadow


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer's public entry points for the ``with`` block."""
    from repro.analysis import differential, repair
    from repro.errors import BpfError
    from repro.fuzz import campaign, parallel
    from repro.fuzz.coverage import VerifierCoverage
    from repro.fuzz.generator import StructuredGenerator
    from repro.fuzz.oracle import Oracle
    from repro.kernel.syscall import Kernel
    from repro.obs.taxonomy import classify
    from repro.runtime.executor import Executor
    from repro.verifier.core import Verifier

    saved: list[tuple[object, str, object]] = []

    def patch(owner, name, replacement) -> None:
        saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    # --- verifier: every Kernel.prog_load, plus the differential oracle's
    # direct Verifier runs.
    prog_load = Kernel.prog_load

    @functools.wraps(prog_load)
    def traced_prog_load(kernel, prog, *args, **kwargs):
        if tracer.suspended:
            return prog_load(kernel, prog, *args, **kwargs)
        parent = tracer.current_layer()
        span = tracer.begin(
            "verifier", call="prog_load",
            site=_SITES.get(parent, "primary"),
            sanitize=bool(kwargs.get("sanitize")),
        )
        if parent == "fuzz.coverage":
            # Priced by a shadow load once the collection window closes.
            window = tracer.enclosing("fuzz.coverage")
            window.attrs["load"] = (span, kernel, prog, args, kwargs)
        try:
            return prog_load(kernel, prog, *args, **kwargs)
        except BpfError as exc:
            span.attrs["reason"] = classify(exc.message)
            raise
        finally:
            tracer.finish(span)

    patch(Kernel, "prog_load", traced_prog_load)

    verify = Verifier.verify

    @functools.wraps(verify)
    def counted_verify(self):
        try:
            return verify(self)
        finally:
            span = None if tracer.suspended else tracer.enclosing("verifier")
            if span is not None:
                span.attrs["insns"] = (span.attrs.get("insns", 0)
                                       + self.env.insns_processed)

    patch(Verifier, "verify", counted_verify)

    def note_outcome(span, outcome) -> None:
        span.attrs["reason"] = outcome.reason

    patch(differential.DifferentialOracle, "verify_under",
          _sited(tracer, differential.DifferentialOracle.verify_under,
                 "differential", note_outcome))

    # --- fuzz.coverage: the collection window, plus the shadow load.
    collect = VerifierCoverage.collect

    @contextmanager
    def traced_collect(self):
        if tracer.suspended:
            with collect(self) as window:
                yield window
            return
        span = tracer.begin("fuzz.coverage")
        try:
            with collect(self) as window:
                yield window
        finally:
            tracer.finish(span)
            _note_new_edges(tracer, self.last_new)
            load = span.attrs.pop("load", None)
            if load is not None:
                _shadow_load(tracer, load, prog_load)

    patch(VerifierCoverage, "collect", traced_collect)

    replay = VerifierCoverage.replay

    @functools.wraps(replay)
    def traced_replay(self, window):
        replay(self, window)
        if not tracer.suspended:
            _note_new_edges(tracer, self.last_new)

    patch(VerifierCoverage, "replay", traced_replay)

    # --- the remaining layers: plain spans around their entry points.
    def note_insns(span, gp) -> None:
        span.attrs["insns"] = len(gp.insns)

    def note_divergences(span, divergences) -> None:
        span.attrs["divergences"] = len(divergences)

    def note_repair(span, found) -> None:
        span.attrs["verified"] = found is not None

    patch(StructuredGenerator, "generate",
          _wrap(tracer, StructuredGenerator.generate, "fuzz.generator",
                note_insns))
    patch(campaign, "mutate", _wrap(tracer, campaign.mutate, "fuzz.mutator"))
    patch(Kernel, "__init__", _wrap(tracer, Kernel.__init__, "kernel"))
    for name in ("run", "trigger_tracepoint", "run_xdp_via_dispatcher"):
        patch(Executor, name,
              _wrap(tracer, Executor.__dict__[name], "runtime"))
    for name in ("classify_report", "classify_syscall_error",
                 "classify_divergence", "classify_invariant"):
        patch(Oracle, name, _wrap(tracer, Oracle.__dict__[name],
                                  "fuzz.oracle"))
    patch(differential.DifferentialOracle, "run",
          _wrap(tracer, differential.DifferentialOracle.run,
                "analysis.differential", note_divergences))
    patch(repair, "synthesize_repair",
          _wrap(tracer, repair.synthesize_repair, "analysis.repair",
                note_repair))
    patch(parallel, "merge_shards",
          _wrap(tracer, parallel.merge_shards, "fuzz.parallel"))

    # --- program and campaign boundaries (the unattributed loops).
    run = campaign.Campaign.run

    @functools.wraps(run)
    def traced_run(self):
        with tracer.span("campaign", shard=self.config.shard_index):
            return run(self)

    iteration = campaign.Campaign._iteration

    @functools.wraps(iteration)
    def traced_iteration(self, result, index):
        tracer.program = (self.config.shard_index, index)
        reasons = sum(result.reject_reasons.values())
        try:
            with tracer.span("program") as span:
                iteration(self, result, index)
        finally:
            tracer.program = None
        span.attrs["rejected"] = sum(result.reject_reasons.values()) > reasons

    patch(campaign.Campaign, "run", traced_run)
    patch(campaign.Campaign, "_iteration", traced_iteration)

    try:
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _sited(tracer: Tracer, fn, site: str, note):
    """A verifier span with a fixed call site (the differential oracle
    verifies through :class:`Verifier` directly, not ``prog_load``)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.suspended:
            return fn(*args, **kwargs)
        span = tracer.begin("verifier", call="verify_under", site=site)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(span)
        note(span, result)
        return result

    return wrapper


def _note_new_edges(tracer: Tracer, new_edges: int) -> None:
    program = tracer.enclosing("program")
    if program is not None:
        program.attrs["new_edges"] = new_edges


def _shadow_load(tracer: Tracer, load, prog_load) -> None:
    """Time the traced window's load again, untraced and unobserved."""
    from repro import obs
    from repro.errors import BpfError, InvariantViolation
    from repro.obs.metrics import MetricsRegistry

    span_of_load, kernel, prog, args, kwargs = load
    with tracer.span("shadow"):
        tracer.suspended += 1
        token = obs.install(MetricsRegistry())
        try:
            shadow = _shadow_kernel(kernel)
            started = time.perf_counter()
            try:
                prog_load(shadow, prog, *args, **kwargs)
            except (BpfError, InvariantViolation):
                pass
            span_of_load.attrs["shadow_s"] = time.perf_counter() - started
        finally:
            obs.restore(token)
            tracer.suspended -= 1


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def layer_times(tracer: Tracer) -> tuple[dict[str, float], float, float]:
    """Self seconds per layer, traced wall and shadow seconds.

    The wall is the summed duration of the root spans; the coverage
    tracer's share of each traced load (traced minus shadow time) moves
    from ``verifier`` to ``fuzz.coverage``.
    """
    self_time: dict[str, float] = defaultdict(float)
    wall = 0.0
    for span in tracer.spans:
        self_time[span.layer] += span.self_time
        if span.parent is None:
            wall += span.duration
        shadow_s = span.attrs.get("shadow_s")
        if shadow_s is not None:
            moved = max(0.0, span.duration - shadow_s)
            self_time["verifier"] -= moved
            self_time["fuzz.coverage"] += moved
    return dict(self_time), wall, self_time.get("shadow", 0.0)
