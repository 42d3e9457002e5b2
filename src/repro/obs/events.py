"""The verifier's event stream, its subscribers, and the flight recorder.

The verifier reports its decisions, stage marks and checkpoints to
**one optional observer**: ``Verifier.observer`` is ``None`` when
nothing subscribes (each hook site then pays one ``is not None``
test), the subscriber itself when one is on, and a :class:`FanOut`
only when two or more are.  :func:`compose` builds that value and
``repro.obs.install`` makes it process-current.  Payloads are raw
values — registers, instructions, op enums, protos — so a subscriber
renders only what it keeps, and one that ignores an event pays only
the call.  The events (:data:`EVENTS`), in emission order:

- ``begin(program, n_insns)`` — a verification starts;
- ``enter(stage)`` / ``leave(stage)`` — pipeline stage marks:
  ``structure``, ``resolve``, ``do_check``, ``fixup`` and, inside
  ``fixup``, ``sanitize.instrument``;
- ``step(idx, insn, state)`` — ``do_check`` reached an instruction;
- ``checkpoint(site, idx, state)`` — the verifier commits to a state:
  ``prune`` (before each prune-point decision), ``branch`` (each
  surviving side of a fork), ``helper-return``, ``kfunc-return``;
- ``prune(idx, point, outcome)`` — ``point`` ``prune`` | ``loop``,
  ``outcome`` ``scan-hit`` | ``miss``;
- ``branch(idx, insn, taken_dst, else_dst)`` — a conditional jump was
  decided; the refined destination of each side when it forks, else
  ``None``;
- ``refine(idx, insn, dst)`` — scalar ALU produced ``dst``;
- ``call(idx, proto)`` — a helper or kfunc call passed its checks;
- ``patch(idx, kind, value)`` — ``probe_mem`` (``None``) or
  ``alu_limit`` (``(limit, op)``) rewrite scheduled;
- ``sanitize(sites, skipped_r10, n_insns)`` — sanitizer plan made;
- ``verdict(verdict, errno, insn, message)`` — ``accept`` | ``reject``;
- ``abort(exc)`` — ended by an exception that is not a verdict.

Every ``begin`` is closed by exactly one ``verdict`` or ``abort``.
Events are delivered positionally.

The **flight recorder** keeps the last N decisions as plain dicts in a
ring reset per verification, so an interesting outcome (reject,
invariant violation) can spill its decision history into the trace and
:mod:`repro.obs.explain` can reconstruct *why*.  Records hold the raw
registers and are rendered only by :meth:`FlightRecorder.snapshot`,
so a verification whose ring nobody reads pays no rendering.  Records
carry a per-verification ``seq`` and no timestamps, and registers
render via their stable ``str`` form, so identical inputs record
identical events — what makes explanations worker-count invariant.

This module must stay dependency-free (stdlib only): it is imported by
``repro.obs.__init__``, which the verifier itself imports.
"""

from __future__ import annotations

from collections import deque

__all__ = [
    "DEFAULT_CAPACITY",
    "EVENTS",
    "FanOut",
    "FlightRecorder",
    "Observer",
    "compose",
    "reg_summary",
]

#: Ring capacity: enough to hold the full decision history of typical
#: generated programs (tens of instructions) and the meaningful tail
#: of pathological ones.
DEFAULT_CAPACITY = 256


#: the event names, in emission order
EVENTS = (
    "begin", "enter", "leave", "step", "checkpoint", "prune", "branch",
    "refine", "call", "patch", "sanitize", "verdict", "abort",
)


def _ignore(self, *args) -> None:
    pass


class Observer:
    """A verifier subscriber that ignores every event.

    Subscribers derive from it and override the events they consume;
    installed as is, it is the do-nothing subscriber the overhead
    benchmark prices.
    """


for _name in EVENTS:
    setattr(Observer, _name, _ignore)


class FanOut:
    """Delivers every event to each subscriber, in order."""

    def __init__(self, subscribers) -> None:
        self.subscribers = tuple(subscribers)
        for name in EVENTS:
            setattr(self, name, _broadcast(
                tuple(getattr(sub, name) for sub in self.subscribers)
            ))


def _broadcast(handlers):
    def emit(*args):
        for handler in handlers:
            handler(*args)

    return emit


def compose(*subscribers):
    """The observer for ``subscribers``: ``None`` when there are none,
    the subscriber itself when there is one, else a :class:`FanOut`.
    ``None`` entries are skipped and nested fan-outs flattened."""
    flat = []
    for sub in subscribers:
        if isinstance(sub, FanOut):
            flat.extend(sub.subscribers)
        elif sub is not None:
            flat.append(sub)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return FanOut(flat)


def reg_summary(regs) -> dict[str, str]:
    """Stable text rendering of the initialised registers R0-R10.

    Uses ``RegState.__str__`` (the same form the level-2 verifier log
    prints), so snapshots are deterministic and diffable.
    """
    return {
        f"R{i}": str(regs[i])
        for i in range(11)
        if regs[i].type.value != "not_init"
    }


def _render(record: dict) -> dict:
    """A copy of one ring record with its raw registers rendered."""
    event = dict(record)
    kind = event["kind"]
    if kind == "step":
        event["regs"] = reg_summary(event["regs"])
    elif kind == "refine":
        event["detail"] = "".join(map(str, event["detail"]))
    return event


class FlightRecorder(Observer):
    """Bounded per-verification decision log.

    Record kinds: ``begin``, ``step`` (with the register file the
    explainer shows), ``prune``, ``refine`` (ALU results and forks),
    ``patch`` and ``verdict`` (DESIGN.md §5g has the fields).

    ``step`` and ``refine`` records keep the register objects
    themselves, marked ``shared`` — the copy-on-write discipline of
    ``FuncFrame.clone`` — so the verifier clones a recorded register
    before it next writes it instead of changing what was recorded.
    :meth:`snapshot` renders them.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        self.program: str | None = None

    # -- lifecycle ----------------------------------------------------------

    def begin(self, program, n_insns=0) -> None:
        """Start a fresh verification: reset the ring and the sequence."""
        self._ring.clear()
        self._seq = 0
        self.program = program
        self._push({"kind": "begin", "program": program, "insns": n_insns})

    def _push(self, event: dict) -> None:
        event["seq"] = self._seq
        self._seq += 1
        self._ring.append(event)

    # -- event kinds --------------------------------------------------------

    def step(self, idx, insn, state) -> None:
        frames = state.frames
        regs = frames[-1].regs[:11]
        for reg in regs:
            reg.shared = True
        self._push({"kind": "step", "insn": idx, "regs": regs,
                    "frames": len(frames)})

    def prune(self, idx, point, outcome) -> None:
        self._push(
            {"kind": "prune", "insn": idx, "point": point, "outcome": outcome}
        )

    def branch(self, idx, insn, taken_dst, else_dst) -> None:
        if taken_dst is not None:
            taken_dst.shared = else_dst.shared = True
            self._refine(idx, insn, (insn.jmp_op.name, " taken:", taken_dst,
                                     " else:", else_dst))

    def refine(self, idx, insn, dst) -> None:
        dst.shared = True
        self._refine(idx, insn, (insn.alu_op.name, " -> ", dst))

    def _refine(self, idx: int, insn, detail: tuple) -> None:
        self._push({"kind": "refine", "insn": idx, "reg": f"R{insn.dst}",
                    "detail": detail})

    def patch(self, idx, kind, value) -> None:
        if kind == "alu_limit":
            limit, op = value
            detail = f"limit={limit} op={op.name}"
        else:
            detail = "load rewritten as fault-handled PROBE_MEM"
        self._push(
            {"kind": "patch", "insn": idx, "patch": kind, "detail": detail}
        )

    def verdict(self, verdict, errno=None, insn=-1, message="") -> None:
        self._push(
            {
                "kind": "verdict",
                "verdict": verdict,
                "errno": errno,
                "insn": insn,
                "message": message,
                "program": self.program,
            }
        )

    # -- output -------------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """The recorded events, oldest first, registers rendered
        (copies, safe to keep)."""
        return [_render(event) for event in self._ring]

    def rejected_at(self) -> int | None:
        """The ``insn`` of the last non-accept ``verdict`` record, read
        without rendering anything; ``None`` when the ring has none."""
        for event in reversed(self._ring):
            if event["kind"] == "verdict" and event["verdict"] != "accept":
                return event["insn"]
        return None
