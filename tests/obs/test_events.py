"""Event-stream unit tests: the observer protocol, the fan-out, and the
flight recorder's ring buffer."""

from repro import obs
from repro.ebpf import asm
from repro.ebpf.opcodes import AluOp, JmpOp, Reg
from repro.obs.events import (
    DEFAULT_CAPACITY,
    EVENTS,
    FanOut,
    FlightRecorder,
    Observer,
    compose,
)
from repro.verifier.env import FuncFrame, VerifierState
from repro.verifier.state import RegState, RegType


def _state() -> VerifierState:
    ctx = RegState.pointer(RegType.PTR_TO_CTX)
    return VerifierState(frames=[FuncFrame.entry(ctx)], insn_idx=0)


class _Log(Observer):
    """Records every event it receives as ``(tag, name, args)``."""

    def __init__(self, log: list, tag: str) -> None:
        for name in EVENTS:
            setattr(self, name,
                    lambda *args, _n=name: log.append((tag, _n, args)))


class TestObserver:
    def test_noop_subscriber_ignores_every_event(self):
        noop = Observer()
        noop.begin("p", 3)
        noop.enter("do_check")
        noop.step(0, None, None)
        noop.checkpoint("prune", 0, None)
        noop.prune(1, "prune", "miss")
        noop.branch(1, None, None, None)
        noop.refine(1, None, None)
        noop.call(1, None)
        noop.patch(1, "probe_mem", None)
        noop.sanitize(0, 0, 3)
        noop.leave("do_check")
        noop.verdict("reject", 13, 1, "m")
        noop.abort(RuntimeError())

    def test_compose(self):
        a, b, c = Observer(), Observer(), Observer()
        assert compose() is None
        assert compose(None, None) is None
        assert compose(None, a) is a
        pair = compose(a, None, b)
        assert isinstance(pair, FanOut)
        assert pair.subscribers == (a, b)
        # Nested fan-outs flatten: one level of dispatch, always.
        assert compose(pair, c).subscribers == (a, b, c)

    def test_fan_out_delivers_every_event_in_order(self):
        log: list = []
        fan = compose(_Log(log, "first"), _Log(log, "second"))
        for name in EVENTS:
            getattr(fan, name)(name)
        assert log == [
            (tag, name, (name,))
            for name in EVENTS
            for tag in ("first", "second")
        ]


class TestFlightRecorder:
    def test_begin_resets_ring_and_seq(self):
        fr = FlightRecorder()
        fr.begin("first", 2)
        fr.step(0, None, _state())
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
        fr.refine(3, asm.alu64_imm(AluOp.ADD, Reg.R1, 7),
                  RegState.const_scalar(7))
        fr.verdict("accept", insn=3)
        seqs = [e["seq"] for e in fr.snapshot()]
        assert seqs == list(range(len(seqs)))
        # No wall-clock fields anywhere: determinism is what makes the
        # first-per-reason explanation worker-count invariant.
        for event in fr.snapshot():
            assert "ts" not in event
            assert "time" not in event

    def test_ring_is_bounded(self):
        fr = FlightRecorder(capacity=4)
        fr.begin("p", 100)
        state = _state()
        for i in range(100):
            fr.step(i, None, state)
        events = fr.snapshot()
        assert len(events) == 4
        # Oldest events fall off; seq keeps counting.
        assert [e["insn"] for e in events] == [96, 97, 98, 99]
        assert events[-1]["seq"] == 100  # begin + 100 steps

    def test_default_capacity(self):
        fr = FlightRecorder()
        fr.begin("p", 1)
        state = _state()
        for i in range(2 * DEFAULT_CAPACITY):
            fr.step(i, None, state)
        assert len(fr.snapshot()) == DEFAULT_CAPACITY

    def test_snapshot_returns_copies(self):
        fr = FlightRecorder()
        fr.begin("p", 1)
        snap = fr.snapshot()
        snap[0]["kind"] = "mutated"
        assert fr.snapshot()[0]["kind"] == "begin"

    def test_event_shapes(self):
        fr = FlightRecorder()
        fr.begin("p", 9)
        fr.prune(4, "loop", "scan-hit")
        jgt = asm.jmp_imm(JmpOp.JGT, Reg.R2, 5, 1)
        # A decided branch is not a refinement; a fork is.
        fr.branch(5, jgt, None, None)
        fr.branch(5, jgt, RegState.const_scalar(6), RegState.const_scalar(5))
        fr.patch(6, "alu_limit", (3, AluOp.ADD))
        fr.verdict("reject", 13, 6, "bad access")
        by_kind = {e["kind"]: e for e in fr.snapshot()}
        assert len(fr.snapshot()) == 5
        assert by_kind["prune"] == {
            "kind": "prune", "seq": 1, "insn": 4,
            "point": "loop", "outcome": "scan-hit",
        }
        assert by_kind["refine"]["reg"] == "R2"
        assert by_kind["refine"]["detail"].startswith("JGT taken:")
        assert by_kind["patch"]["patch"] == "alu_limit"
        assert by_kind["patch"]["detail"] == "limit=3 op=ADD"
        assert by_kind["verdict"]["errno"] == 13
        assert by_kind["verdict"]["insn"] == 6
        assert by_kind["verdict"]["program"] == "p"


class TestObsHolder:
    def test_default_observer_is_none(self):
        assert obs.observer() is None

    def test_default_flight_is_null(self):
        # With nothing installed a verifier records no flight: its
        # observer is None, so every hook site is one `is not None`.
        from repro.ebpf.program import BpfProgram
        from repro.kernel.config import PROFILES
        from repro.kernel.syscall import Kernel
        from repro.verifier.core import Verifier

        kernel = Kernel(PROFILES["patched"]())
        prog = BpfProgram(insns=[asm.mov64_imm(Reg.R0, 0), asm.exit_insn()])
        verifier = Verifier(kernel, prog)
        assert verifier.observer is None
        assert verifier.env.observer is None

    def test_install_and_restore_flight(self):
        fr = FlightRecorder()
        token = obs.install(obs.metrics(), obs.recorder(), fr)
        try:
            assert obs.observer() is fr
        finally:
            obs.restore(token)
        assert obs.observer() is None


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
        fr = FlightRecorder()
        self._verify(fr)
        kinds = [e["kind"] for e in fr.snapshot()]
        assert kinds[0] == "begin"
        assert "step" in kinds
        assert kinds[-1] == "verdict"

    def test_level2_steps_carry_register_summaries(self):
        fr = FlightRecorder()
        self._verify(fr)
        steps = [e for e in fr.snapshot() if e["kind"] == "step"]
        assert steps
        assert all("regs" in s for s in steps)
        # R10 (frame pointer) is always initialised.
        assert any("R10" in s["regs"] for s in steps)

    def test_every_begin_closes_with_one_verdict(self):
        log: list = []
        self._verify(_Log(log, "only"), sanitize=True)
        names = [name for _, name, _ in log]
        assert names[0] == "begin"
        assert names.count("verdict") + names.count("abort") == 1
        assert names[-1] in ("verdict", "abort")
        # Stage marks nest: every leave matches the latest open enter.
        open_stages: list = []
        for _, name, args in log:
            if name == "enter":
                open_stages.append(args[0])
            elif name == "leave":
                assert open_stages.pop() == args[0]
