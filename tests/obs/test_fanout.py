"""Subscribers are independent: a fan-out changes nothing they record.

Every selftest (on ``patched``) and a fixed stream of generated
programs (on ``bpf-next``) is verified three ways — under the flight
recorder alone, under the profiler alone, and under both plus the
abstract-state checker through a :class:`~repro.obs.events.FanOut`.
Per program, the flight recorder's events must be equal event for
event, the profiler's ``counts`` must be equal, and the verdict must be
the same all three ways.

The flight recorder renders registers only when its ring is read, so
the same programs also run under a reference recorder that renders
them when each event arrives: the two rings must be equal event for
event, which holds only while the recorder keeps the verifier from
writing a register it recorded.
"""

from __future__ import annotations

import functools

from repro import obs
from repro.ebpf.program import BpfProgram
from repro.errors import BpfError
from repro.fuzz.generator import StructuredGenerator
from repro.fuzz.rng import FuzzRng
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.obs.events import FanOut, FlightRecorder, reg_summary
from repro.obs.profile import VerifierProfiler, strip_profile_wall
from repro.testsuite import all_selftests_extended
from repro.verifier.sanity import VStateChecker

N_GENERATED = 300
GENERATOR_SEED = 11


@functools.cache
def _programs() -> list[tuple[Kernel, BpfProgram]]:
    programs = []
    for selftest in all_selftests_extended():
        kernel = Kernel(PROFILES["patched"]())
        programs.append((kernel, selftest.build(kernel)))
    rng = FuzzRng(GENERATOR_SEED)
    for _ in range(N_GENERATED):
        kernel = Kernel(PROFILES["bpf-next"]())
        gp = StructuredGenerator(kernel, rng).generate()
        programs.append((kernel, BpfProgram(
            insns=gp.insns, prog_type=gp.prog_type,
            offload_dev=gp.offload_dev,
        )))
    return programs


def _run(flight, profiler, check_invariants=False):
    """Load every program under the given subscribers: the verdicts,
    the flight events per program, and the profile counts."""
    observer = obs.compose(flight, profiler)
    verdicts, rings = [], []
    for kernel, prog in _programs():
        token = obs.install(None, None, observer)
        try:
            kernel.prog_load(prog, sanitize=kernel.config.sanitizer_available,
                             check_invariants=check_invariants)
            verdicts.append(("accept",))
        except BpfError as error:
            verdicts.append(("reject", error.errno, error.message))
        finally:
            obs.restore(token)
        if flight is not None:
            rings.append(flight.snapshot())
    counts = strip_profile_wall(profiler.snapshot()) if profiler else None
    return verdicts, rings, counts


@functools.cache
def _three_ways():
    flight_alone = _run(FlightRecorder(), None)
    profiler_alone = _run(None, VerifierProfiler())
    fanned = _run(FlightRecorder(), VerifierProfiler(),
                  check_invariants=True)
    return flight_alone, profiler_alone, fanned


def test_fan_out_keeps_every_verdict():
    flight_alone, profiler_alone, fanned = _three_ways()
    assert flight_alone[0] == profiler_alone[0] == fanned[0]
    assert any(verdict[0] == "reject" for verdict in fanned[0])


def test_fan_out_keeps_flight_events():
    flight_alone, _, fanned = _three_ways()
    assert len(fanned[1]) == len(_programs())
    for alone, shared in zip(flight_alone[1], fanned[1]):
        assert alone == shared


def test_fan_out_keeps_profile_counts():
    _, profiler_alone, fanned = _three_ways()
    assert profiler_alone[2]["counts"]["nodes"]
    assert profiler_alone[2] == fanned[2]


def test_checker_joins_the_installed_observer():
    kernel, prog = _programs()[0]
    flight, profiler = FlightRecorder(), VerifierProfiler()
    token = obs.install(None, None, obs.compose(flight, profiler))
    try:
        from repro.verifier.core import Verifier

        verifier = Verifier(kernel, prog, check_invariants=True)
    finally:
        obs.restore(token)
    assert isinstance(verifier.observer, FanOut)
    first, second, checker = verifier.observer.subscribers
    assert (first, second) == (flight, profiler)
    assert isinstance(checker, VStateChecker)


class _EagerRecorder(FlightRecorder):
    """The reference: renders registers when each event arrives, and
    marks nothing ``shared``."""

    def step(self, idx, insn, state) -> None:
        self._push({"kind": "step", "insn": idx,
                    "regs": reg_summary(state.regs),
                    "frames": len(state.frames)})

    def branch(self, idx, insn, taken_dst, else_dst) -> None:
        if taken_dst is not None:
            self._push({"kind": "refine", "insn": idx, "reg": f"R{insn.dst}",
                        "detail": f"{insn.jmp_op.name} taken:{taken_dst} "
                                  f"else:{else_dst}"})

    def refine(self, idx, insn, dst) -> None:
        self._push({"kind": "refine", "insn": idx, "reg": f"R{insn.dst}",
                    "detail": f"{insn.alu_op.name} -> {dst}"})

    def snapshot(self) -> list[dict]:
        return [dict(event) for event in self._ring]


def test_snapshot_renders_what_the_step_saw():
    lazy, eager = FlightRecorder(), _EagerRecorder()
    token = obs.install(None, None, obs.compose(lazy, eager))
    kinds = set()
    try:
        for kernel, prog in _programs():
            try:
                kernel.prog_load(
                    prog, sanitize=kernel.config.sanitizer_available)
            except BpfError:
                pass
            expected = eager.snapshot()
            assert lazy.snapshot() == expected, prog.name
            kinds.update(event["kind"] for event in expected)
    finally:
        obs.restore(token)
    assert {"step", "refine", "verdict"} <= kinds
