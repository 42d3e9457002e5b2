"""Trace-recorder tests: JSONL shape, null overhead, PhaseClock timing."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.trace import (
    DEFAULT_MAX_BYTES,
    NULL_RECORDER,
    RECORD_VERSION,
    JsonlTraceRecorder,
    NullRecorder,
    PhaseClock,
)


def parse_lines(stream: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestNullRecorder:
    def test_disabled_and_inert(self):
        rec = NullRecorder()
        assert rec.enabled is False
        rec.event("x", a=1)
        with rec.span("y", b=2):
            pass
        rec.close()

    def test_null_span_swallows_nothing(self):
        with pytest.raises(RuntimeError):
            with NULL_RECORDER.span("s"):
                raise RuntimeError("propagates")


class TestJsonlRecorder:
    def test_event_line_shape(self):
        stream = io.StringIO()
        rec = JsonlTraceRecorder(stream)
        rec.event("generator.program", insns=12, origin="bvf")
        (record,) = parse_lines(stream)
        assert record["kind"] == "event"
        assert record["name"] == "generator.program"
        assert record["insns"] == 12
        assert record["ts"] >= 0

    def test_span_records_duration_and_error(self):
        stream = io.StringIO()
        rec = JsonlTraceRecorder(stream)
        with rec.span("ok"):
            pass
        with pytest.raises(ValueError):
            with rec.span("bad"):
                raise ValueError("boom")
        ok, bad = parse_lines(stream)
        assert ok["kind"] == "span" and ok["dur"] >= 0
        assert "error" not in ok
        assert bad["error"] == "ValueError"

    def test_timestamps_monotonic(self):
        stream = io.StringIO()
        rec = JsonlTraceRecorder(stream)
        for i in range(5):
            rec.event("tick", i=i)
        stamps = [r["ts"] for r in parse_lines(stream)]
        assert stamps == sorted(stamps)

    def test_reserved_keys_win_over_attrs(self):
        # An attribute named like a reserved record field must not be
        # able to corrupt the record structure (regression: the oracle
        # once passed kind=<report kind> and corrupted the line).
        stream = io.StringIO()
        rec = JsonlTraceRecorder(stream)
        rec.event("e", kind="report-kind", ts=-123)
        (record,) = parse_lines(stream)
        assert record["kind"] == "event"
        assert record["ts"] >= 0

    def test_keys_sorted(self):
        stream = io.StringIO()
        rec = JsonlTraceRecorder(stream)
        rec.event("e", zebra=1, apple=2)
        line = stream.getvalue().splitlines()[0]
        assert line.index('"apple"') < line.index('"zebra"')

    def test_file_backed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = JsonlTraceRecorder(str(path))
        rec.event("e")
        rec.close()
        assert json.loads(path.read_text().splitlines()[0])["name"] == "e"

    def test_every_record_carries_schema_version(self):
        stream = io.StringIO()
        rec = JsonlTraceRecorder(stream)
        rec.event("e")
        with rec.span("s"):
            pass
        for record in parse_lines(stream):
            assert record["v"] == RECORD_VERSION

    def test_rotation_caps_file_size(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = JsonlTraceRecorder(str(path), max_bytes=200)
        for i in range(50):
            rec.event("tick", i=i)
        rec.close()
        rotated = tmp_path / "trace.jsonl.1"
        assert rotated.exists()
        assert len(rotated.read_bytes()) < 400
        # The live file picks up where the rotation left off; every
        # line in both files is valid JSON with the schema version.
        for p in (path, rotated):
            for line in p.read_text().splitlines():
                assert json.loads(line)["v"] == RECORD_VERSION

    def test_rotation_replaces_previous_backup(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = JsonlTraceRecorder(str(path), max_bytes=100)
        for i in range(100):
            rec.event("tick", i=i)
        rec.close()
        # Exactly one backup, no .2/.3... accumulation.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "trace.jsonl", "trace.jsonl.1",
        ]

    def test_stream_backed_never_rotates(self):
        stream = io.StringIO()
        rec = JsonlTraceRecorder(stream, max_bytes=10)
        for i in range(20):
            rec.event("tick", i=i)
        assert len(parse_lines(stream)) == 20

    def test_max_bytes_ignores_env(self, tmp_path, monkeypatch):
        # The cap is the DEFAULT_MAX_BYTES constant or the max_bytes
        # argument; no environment variable overrides it.
        monkeypatch.setenv("REPRO_TRACE_MAX_BYTES", "123")
        rec = JsonlTraceRecorder(str(tmp_path / "t.jsonl"))
        assert rec._max_bytes == DEFAULT_MAX_BYTES
        rec.close()


class TestPhaseClock:
    def test_accumulates_across_blocks(self):
        clock = PhaseClock()
        with clock.phase("verify"):
            pass
        with clock.phase("verify"):
            pass
        with clock.phase("generate"):
            pass
        assert clock.seconds["verify"] >= 0
        assert set(clock.seconds) == {"verify", "generate"}

    def test_counts_exactly_once_on_exception(self):
        # Regression guard for the verify-timer triple-count: a phase
        # that exits via an exception must be charged exactly once.
        from collections import Counter

        clock = PhaseClock()
        marks = []

        class Spy(Counter):
            def __setitem__(self, key, value):
                marks.append(key)
                super().__setitem__(key, value)

        clock.seconds = Spy()
        with pytest.raises(RuntimeError):
            with clock.phase("verify"):
                raise RuntimeError("rejected")
        assert marks == ["verify"]

    def test_feeds_metrics_and_recorder(self):
        stream = io.StringIO()
        reg = MetricsRegistry()
        clock = PhaseClock(metrics=reg, recorder=JsonlTraceRecorder(stream))
        with clock.phase("execute", run=3):
            pass
        snap = reg.snapshot()
        assert snap["wall"]["histograms"]["phase.execute.seconds"]["count"] == 1
        (record,) = parse_lines(stream)
        assert record["name"] == "phase.execute"
        assert record["run"] == 3
        assert record["dur"] >= 0
