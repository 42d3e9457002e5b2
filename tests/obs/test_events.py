"""Flight recorder unit tests: ring buffer, levels, null sink."""

from repro import obs
from repro.obs.events import (
    DEFAULT_CAPACITY,
    NULL_FLIGHT,
    FlightRecorder,
    NullFlightRecorder,
)


class TestNullFlightRecorder:
    def test_disabled_and_silent(self):
        assert NULL_FLIGHT.enabled is False
        assert NULL_FLIGHT.level == 0
        NULL_FLIGHT.begin("p", 3)
        NULL_FLIGHT.step(0, None)
        NULL_FLIGHT.prune(1, "prune", "miss")
        NULL_FLIGHT.refine(1, "R0", "detail")
        NULL_FLIGHT.patch(1, "probe_mem", "detail")
        NULL_FLIGHT.verdict("reject", errno=13, insn=1, message="m")
        assert NULL_FLIGHT.snapshot() == []

    def test_enabled_is_class_attribute(self):
        # The hot path reads `.enabled` on the shared instance; a class
        # attribute keeps the disabled check one dict lookup, no slots.
        assert NullFlightRecorder.enabled is False
        assert NULL_FLIGHT.__slots__ == ()


class TestFlightRecorder:
    def test_begin_resets_ring_and_seq(self):
        fr = FlightRecorder(level=1)
        fr.begin("first", 2)
        fr.step(0, None)
        fr.begin("second", 5)
        events = fr.snapshot()
        assert [e["kind"] for e in events] == ["begin"]
        assert events[0]["program"] == "second"
        assert events[0]["insns"] == 5
        assert events[0]["seq"] == 0

    def test_sequence_is_deterministic_and_monotonic(self):
        fr = FlightRecorder()
        fr.begin("p", 1)
        fr.prune(3, "prune", "miss")
        fr.refine(3, "R1", "ADD -> 7")
        fr.verdict("accept", insn=3)
        seqs = [e["seq"] for e in fr.snapshot()]
        assert seqs == list(range(len(seqs)))
        # No wall-clock fields anywhere: determinism is what makes the
        # first-per-reason explanation worker-count invariant.
        for event in fr.snapshot():
            assert "ts" not in event
            assert "time" not in event

    def test_ring_is_bounded(self):
        fr = FlightRecorder(capacity=4, level=1)
        fr.begin("p", 100)
        for i in range(100):
            fr.step(i, None)
        events = fr.snapshot()
        assert len(events) == 4
        # Oldest events fall off; seq keeps counting.
        assert [e["insn"] for e in events] == [96, 97, 98, 99]
        assert events[-1]["seq"] == 100  # begin + 100 steps

    def test_default_capacity(self):
        fr = FlightRecorder(level=1)
        fr.begin("p", 1)
        for i in range(2 * DEFAULT_CAPACITY):
            fr.step(i, None)
        assert len(fr.snapshot()) == DEFAULT_CAPACITY

    def test_level_1_omits_register_snapshots(self):
        fr = FlightRecorder(level=1)
        fr.begin("p", 1)
        fr.step(0, None)
        (begin, step) = fr.snapshot()
        assert "regs" not in step

    def test_snapshot_returns_copies(self):
        fr = FlightRecorder()
        fr.begin("p", 1)
        snap = fr.snapshot()
        snap[0]["kind"] = "mutated"
        assert fr.snapshot()[0]["kind"] == "begin"

    def test_event_shapes(self):
        fr = FlightRecorder(level=1)
        fr.begin("p", 9)
        fr.prune(4, "loop", "scan-hit")
        fr.refine(5, "R2", "JGT taken:6 else:None")
        fr.patch(6, "alu_limit", "limit=3 op=ADD")
        fr.verdict("reject", errno=13, insn=6, message="bad access")
        by_kind = {e["kind"]: e for e in fr.snapshot()}
        assert by_kind["prune"] == {
            "kind": "prune", "seq": 1, "insn": 4,
            "point": "loop", "outcome": "scan-hit",
        }
        assert by_kind["refine"]["reg"] == "R2"
        assert by_kind["patch"]["patch"] == "alu_limit"
        assert by_kind["verdict"]["errno"] == 13
        assert by_kind["verdict"]["insn"] == 6
        assert by_kind["verdict"]["program"] == "p"


class TestObsHolder:
    def test_default_flight_is_null(self):
        assert obs.flight() is NULL_FLIGHT

    def test_install_and_restore_flight(self):
        fr = FlightRecorder()
        token = obs.install(obs.metrics(), obs.recorder(), fr)
        try:
            assert obs.flight() is fr
        finally:
            obs.restore(token)
        assert obs.flight() is NULL_FLIGHT


class TestVerifierIntegration:
    def _verify(self, recorder, sanitize=False):
        from repro.errors import BpfError, VerifierReject
        from repro.kernel.config import PROFILES
        from repro.kernel.syscall import Kernel
        from repro.testsuite import all_selftests_extended

        selftest = next(iter(all_selftests_extended()))
        kernel = Kernel(PROFILES["patched"]())
        prog = selftest.build(kernel)
        token = obs.install(obs.metrics(), obs.recorder(), recorder)
        try:
            kernel.prog_load(prog, sanitize=sanitize)
        except (VerifierReject, BpfError):
            pass
        finally:
            obs.restore(token)

    def test_verifier_emits_begin_steps_verdict(self):
        fr = FlightRecorder(level=2)
        self._verify(fr)
        kinds = [e["kind"] for e in fr.snapshot()]
        assert kinds[0] == "begin"
        assert "step" in kinds
        assert kinds[-1] == "verdict"

    def test_level2_steps_carry_register_summaries(self):
        fr = FlightRecorder(level=2)
        self._verify(fr)
        steps = [e for e in fr.snapshot() if e["kind"] == "step"]
        assert steps
        assert all("regs" in s for s in steps)
        # R10 (frame pointer) is always initialised.
        assert any("R10" in s["regs"] for s in steps)

    def test_level1_steps_skip_register_summaries(self):
        fr = FlightRecorder(level=1)
        self._verify(fr)
        steps = [e for e in fr.snapshot() if e["kind"] == "step"]
        assert steps
        assert all("regs" not in s for s in steps)
