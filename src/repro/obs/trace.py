"""Structured trace events: JSONL spans with monotonic timestamps.

Tracing answers the *where did the time go* questions the metrics
registry's aggregates cannot: one line per event or span, written as it
happens, with timestamps from :func:`time.monotonic` relative to the
recorder's creation (so traces from different shards are each
internally ordered, and never pretend to share a clock).

Two recorders implement the same duck-typed interface:

- :class:`NullRecorder` — the default.  ``enabled`` is ``False``,
  ``event`` is a no-op, ``span`` hands back a shared do-nothing context
  manager.  Hot paths either skip work behind ``if rec.enabled`` or
  just call through; the disabled cost is one method call.
- :class:`JsonlTraceRecorder` — appends one JSON object per line:
  ``{"v": 1, "ts": ..., "kind": "event"|"span", "name": ..., ...attrs}``
  with ``"dur"`` added on spans.  Keys are sorted so the output is
  stable, and every record carries the ``"v"`` schema version so
  consumers can evolve the format without sniffing.  Path-backed
  recorders rotate: once a file exceeds the byte cap
  (``DEFAULT_MAX_BYTES``, 64 MiB) it is renamed to
  ``<path>.1`` (replacing any previous rotation) and a fresh file is
  started, so an unattended campaign cannot fill the disk unboundedly.

:class:`VerifierTrace` is the verifier's side of tracing: a subscriber
of the verifier's event stream (:mod:`repro.obs.events`) that turns it
into the ``verifier.*`` spans and events.

:class:`PhaseClock` is the single phase timer the campaign loop runs
on.  Each ``with clock.phase("verify"):`` block accumulates its
duration exactly once — in the ``finally`` of the context manager — no
matter how the block exits (return, ``VerifierReject``, any other
exception), which fixes the triple-increment paths the old inline
timers had.  The same exit point feeds the wall-clock histogram in the
metrics registry and, when tracing is on, emits the phase as a span.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager

from repro.obs.events import Observer

__all__ = [
    "NullRecorder",
    "JsonlTraceRecorder",
    "PhaseClock",
    "VerifierTrace",
    "NULL_RECORDER",
    "RECORD_VERSION",
    "DEFAULT_MAX_BYTES",
]

#: Schema version stamped on every trace record as ``"v"``.
RECORD_VERSION = 1

#: Default per-file byte cap before a path-backed recorder rotates.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recording disabled: every operation is a no-op."""

    enabled = False

    def event(self, name: str, **attrs) -> None:
        pass

    def span(self, name: str, **attrs):
        return _NULL_SPAN

    def close(self) -> None:
        pass


NULL_RECORDER = NullRecorder()


class _Span:
    """Times a block and writes it as one line on exit."""

    __slots__ = ("recorder", "name", "attrs", "started")

    def __init__(self, recorder: "JsonlTraceRecorder", name: str, attrs: dict):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        now = time.monotonic()
        record = dict(self.attrs)
        record.update(
            ts=self.started - self.recorder._t0,
            kind="span",
            name=self.name,
            dur=now - self.started,
            error=exc_type.__name__ if exc_type is not None else None,
        )
        self.recorder._write(record)
        return False


class JsonlTraceRecorder:
    """Writes trace events to a JSONL file (or any text stream)."""

    enabled = True

    def __init__(self, path_or_stream,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self._max_bytes = max_bytes
        if hasattr(path_or_stream, "write"):
            self._stream = path_or_stream
            self._owns = False
            self._path = None
        else:
            self._stream = open(path_or_stream, "w", encoding="utf-8")
            self._owns = True
            self._path = os.fspath(path_or_stream)
        self._written = 0
        self._t0 = time.monotonic()

    def _write(self, fields: dict) -> None:
        # Reserved keys (ts/kind/name/dur) are merged over attrs, so a
        # colliding attribute never shadows the record structure.
        record = {k: v for k, v in fields.items() if v is not None}
        record["v"] = RECORD_VERSION
        record["ts"] = round(record["ts"], 6)
        if "dur" in record:
            record["dur"] = round(record["dur"], 6)
        line = json.dumps(record, sort_keys=True) + "\n"
        self._stream.write(line)
        if self._path is not None and self._max_bytes > 0:
            self._written += len(line)
            if self._written >= self._max_bytes:
                self._rotate()

    def _rotate(self) -> None:
        """Size-capped rotation: ``<path>`` becomes ``<path>.1``
        (replacing the previous rotation) and a fresh file starts, so a
        long campaign keeps at most ``2 * max_bytes`` of trace."""
        self._stream.close()
        os.replace(self._path, f"{self._path}.1")
        self._stream = open(self._path, "w", encoding="utf-8")
        self._written = 0

    def event(self, name: str, **attrs) -> None:
        record = dict(attrs)
        record.update(ts=time.monotonic() - self._t0, kind="event", name=name)
        self._write(record)

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def close(self) -> None:
        self._stream.flush()
        if self._owns:
            self._stream.close()


#: verifier pipeline stage -> its span name (unlisted stages get none)
_STAGE_SPANS = {
    "structure": "verifier.check_structure",
    "resolve": "verifier.resolve_pseudo",
    "do_check": "verifier.do_check",
    "fixup": "verifier.fixup",
}


class VerifierTrace(Observer):
    """The verifier's events as trace records: a ``verifier.verify``
    span per verification, a span per pipeline stage, and the
    ``verifier.reject`` / ``sanitizer.instrument`` events."""

    def __init__(self, recorder: "JsonlTraceRecorder") -> None:
        self.recorder = recorder
        #: open spans, outermost first (None for an unspanned stage)
        self._spans: list = []

    def _open(self, name, **attrs) -> None:
        span = None if name is None else self.recorder.span(name, **attrs)
        if span is not None:
            span.__enter__()
        self._spans.append(span)

    def _close(self, exc_type=None) -> None:
        span = self._spans.pop()
        if span is not None:
            span.__exit__(exc_type, None, None)

    def begin(self, program, n_insns) -> None:
        self._spans.clear()
        self._open("verifier.verify", insns=n_insns, prog=program)

    def enter(self, stage) -> None:
        self._open(_STAGE_SPANS.get(stage))

    def leave(self, stage) -> None:
        self._close()

    def sanitize(self, sites, skipped_r10, n_insns) -> None:
        self.recorder.event("sanitizer.instrument", sites=sites,
                            skipped_r10=skipped_r10, insns=n_insns)

    def verdict(self, verdict, errno=None, insn=-1, message="") -> None:
        exc_type = None
        if verdict == "reject":
            from repro.errors import VerifierReject

            exc_type = VerifierReject
            self.recorder.event("verifier.reject", errno=errno, insn=insn,
                                message=message)
        while self._spans:
            self._close(exc_type)

    def abort(self, exc) -> None:
        while self._spans:
            self._close(type(exc))


class PhaseClock:
    """Accumulates named phase durations, once per phase exit.

    ``seconds`` maps phase name to total accumulated time.  A metrics
    registry (or anything with ``observe_time``) and a recorder can be
    attached; both are fed from the same single exit point.
    """

    def __init__(self, metrics=None, recorder: NullRecorder | None = None):
        self.seconds: Counter = Counter()
        self.metrics = metrics
        self.recorder = recorder or NULL_RECORDER

    @contextmanager
    def phase(self, name: str, **attrs):
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.seconds[name] += elapsed
            if self.metrics is not None:
                self.metrics.observe_time(f"phase.{name}.seconds", elapsed)
            if self.recorder.enabled:
                self.recorder.event(f"phase.{name}", dur=round(elapsed, 6),
                                    **attrs)
