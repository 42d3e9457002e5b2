"""Arbitrary bytecode never escapes as anything but a ``ReproError``.

The verifier must answer every input with a verdict: an accepted
program, a ``VerifierReject``/``BpfError``, or — before the verifier
even runs — an ``EncodingError`` for bytes that do not decode.  The
contract is therefore ``ReproError``, not ``BpfError``:
``EncodingError`` is a ``ReproError`` but not a ``BpfError``.  Any
other exception (``IndexError``, ``KeyError``, ``AttributeError``...)
is a crash of the reproduction itself.

Two input streams:

- random instruction streams (raw 8-byte slots), loaded on ``patched``
  and ``bpf-next``;
- generated programs with one to three bytes flipped, loaded sanitized
  on ``patched`` and, when accepted, executed: ``patched`` has no
  injected flaw, so any runtime report there is a verifier that
  accepted something unsafe.

Examples are derandomized so tier-1 stays reproducible.
"""

from __future__ import annotations

import struct

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ebpf.insn import decode_program, encode_program
from repro.ebpf.program import BpfProgram, ProgType
from repro.errors import ReproError
from repro.fuzz.generator import StructuredGenerator
from repro.fuzz.rng import FuzzRng
from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.runtime.executor import Executor
from repro.verifier.core import _STRUCT_STATIC

#: one instruction slot: opcode, registers, offset, immediate
_ENCODING = struct.Struct("<BBhi")


def _examples(n: int) -> settings:
    return settings(max_examples=n, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


#: opcode bytes the structural pass accepts, so that most streams get
#: past it into ``do_check``; the rest are drawn from all 256 bytes
_VALID_OPCODES = [op for op in range(256) if _STRUCT_STATIC[op] is None]

_slot = st.builds(
    _ENCODING.pack,
    st.one_of(st.sampled_from(_VALID_OPCODES), st.integers(0, 255)),
    # dst in the low nibble, src in the high one: mostly R0-R10
    st.one_of(st.builds(lambda dst, src: dst | src << 4,
                        st.integers(0, 10), st.integers(0, 10)),
              st.integers(0, 255)),
    st.one_of(st.integers(-4, 4), st.integers(-(2**15), 2**15 - 1)),
    st.one_of(st.integers(-16, 16), st.integers(-(2**31), 2**31 - 1)),
)
_EXIT = _ENCODING.pack(0x95, 0, 0, 0)
#: up to 24 random slots, usually closed by an exit
_slots = st.builds(
    lambda body, close: b"".join(body) + (_EXIT if close else b""),
    st.lists(_slot, min_size=1, max_size=24),
    st.integers(0, 3).map(bool),
)


@_examples(400)
@given(data=_slots, prog_type=st.sampled_from(ProgType),
       profile=st.sampled_from(["patched", "bpf-next"]))
def test_random_streams_raise_only_repro_errors(data, prog_type, profile):
    kernel = Kernel(PROFILES[profile]())
    try:
        prog = BpfProgram(insns=decode_program(data), prog_type=prog_type)
        kernel.prog_load(prog, sanitize=True)
    except ReproError:
        pass


@_examples(400)
@given(seed=st.integers(0, 2**32 - 1),
       flips=st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 255)),
                      min_size=1, max_size=3))
def test_flipped_programs_raise_only_repro_errors(seed, flips):
    kernel = Kernel(PROFILES["patched"]())
    gp = StructuredGenerator(kernel, FuzzRng(seed)).generate()
    data = bytearray(encode_program(gp.insns))
    for position, mask in flips:
        data[position % len(data)] ^= mask
    try:
        prog = BpfProgram(insns=decode_program(bytes(data)),
                          prog_type=gp.prog_type)
        verified = kernel.prog_load(prog, sanitize=True)
        run = Executor(kernel).run(verified)
    except ReproError:
        return
    assert run.report is None, f"runtime report on patched: {run.report}"
