"""Hierarchical verifier profiler: where does verification time go?

The phase clock shows that verification dominates campaign wall time,
but it only reports the total.  This module decomposes it: a path-keyed tree of **frames** (``verify`` →
``do_check`` → per-instruction-family nodes, the prune machinery, the
sanitizer pass) with self/cumulative accounting, plus flat exact
counters for ALU op kinds, JMP op kinds, helper calls, and prune
outcomes.

Determinism contract (mirrors :mod:`repro.obs.metrics`):

- everything under ``"counts"`` is exact and **worker-count
  invariant** — frame hit counts and op counters depend only on the
  programs verified, never on the host or worker packing;
- everything under ``"wall"`` is host-dependent timing and is dropped
  by :func:`strip_profile_wall` (and by the artifact's ``strip_wall``)
  before any invariance comparison.

Accounting algebra: each frame records ``cum`` (time between push and
pop) and ``self`` (``cum`` minus the time spent in child frames).  At
every node ``self = cum - Σ children.cum``, so the sum of *all* self
times telescopes to exactly the cumulative time of the root frames —
which is why the campaign wraps the whole load path in one ``verify``
root: per-family self times then account for (nearly) the entire
measured verify phase.

The profiler is a subscriber of the verifier's event stream
(:mod:`repro.obs.events`).  Stage marks become frames; between two
``step`` events the time belongs to one per-instruction leaf frame —
the prune decision when a ``prune`` event arrives, else the
instruction's check family — so consecutive leaves tile ``do_check``
with no gaps.  The exact counters come from the same events: the
instruction of a closed ``alu`` leaf, ``branch``, ``call``, ``prune``
and ``sanitize``.  ``push``/``pop`` stay public for the campaign's
``verify`` root frame.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.ebpf.opcodes import InsnClass, JmpOp, Mode
from repro.obs.events import Observer

__all__ = [
    "VerifierProfiler",
    "merge_profiles",
    "strip_profile_wall",
    "render_profile",
]


def _family(insn) -> str:
    """The check-family leaf frame one instruction's step runs under."""
    cls = insn.insn_class
    if cls in (InsnClass.ALU, InsnClass.ALU64):
        return "alu"
    if cls == InsnClass.LD:
        return "ld_imm64"
    if cls == InsnClass.LDX:
        return "mem.load"
    if cls == InsnClass.ST:
        return "mem.store"
    if cls == InsnClass.STX:
        return "mem.atomic" if insn.mode == Mode.ATOMIC else "mem.store"
    op = insn.jmp_op
    if op == JmpOp.JA:
        return "jump.ja"
    if op == JmpOp.EXIT:
        return "exit"
    if op == JmpOp.CALL:
        if insn.is_pseudo_call():
            return "call.bpf2bpf"
        if insn.is_kfunc_call():
            return "call.kfunc"
        return "call.helper"
    return "jump.cond"


class VerifierProfiler(Observer):
    """Path-keyed frame tree plus flat exact counters.

    ``push``/``pop`` are the frame primitives; the event handlers below
    drive them.  Counter attributes (``alu_ops``/``jmp_ops``/
    ``helpers``/``ops``) are plain Counters.
    """

    def __init__(self) -> None:
        #: frame path -> [hit count, cumulative seconds, self seconds]
        self.nodes: dict[str, list] = {}
        #: ALU op name (with width suffix) -> instruction count
        self.alu_ops: Counter = Counter()
        #: conditional-jump op name -> instruction count
        self.jmp_ops: Counter = Counter()
        #: helper/kfunc name -> call-check count
        self.helpers: Counter = Counter()
        #: miscellaneous exact counters (prune outcomes, sanitizer sites)
        self.ops: Counter = Counter()
        #: open frames: [path, started, child seconds]
        self._stack: list[list] = []
        #: stack depth when the current verification began
        self._base = 0
        #: the open per-instruction leaf (None between leaves), the
        #: instruction it belongs to, and when it started
        self._leaf: str | None = None
        self._insn = None
        self._lap = 0.0

    def push(self, name: str) -> None:
        stack = self._stack
        path = f"{stack[-1][0]}/{name}" if stack else name
        stack.append([path, time.perf_counter(), 0.0])

    def pop(self) -> None:
        path, started, child_seconds = self._stack.pop()
        elapsed = time.perf_counter() - started
        self._account(path, elapsed, elapsed - child_seconds)

    def _account(self, path: str, elapsed: float, own: float) -> None:
        node = self.nodes.get(path)
        if node is None:
            node = self.nodes[path] = [0, 0.0, 0.0]
        node[0] += 1
        node[1] += elapsed
        node[2] += own
        if self._stack:
            self._stack[-1][2] += elapsed

    def _close(self, name: str, now: float) -> None:
        """Account the leaf ``name`` that ran from ``_lap`` to ``now``."""
        stack = self._stack
        path = f"{stack[-1][0]}/{name}" if stack else name
        elapsed = now - self._lap
        self._account(path, elapsed, elapsed)
        if name == "alu":
            insn = self._insn
            width = "64" if insn.insn_class == InsnClass.ALU64 else "32"
            self.alu_ops[f"{insn.alu_op.name}{width}"] += 1

    def _close_leaf(self) -> None:
        if self._leaf is not None:
            self._close(self._leaf, time.perf_counter())
            self._leaf = None

    # -- events -------------------------------------------------------------

    def begin(self, program, n_insns) -> None:
        self._base = len(self._stack)

    def enter(self, stage) -> None:
        self._close_leaf()
        self.push(stage)

    def leave(self, stage) -> None:
        self._close_leaf()
        self.pop()

    def step(self, idx, insn, state) -> None:
        now = time.perf_counter()
        if self._leaf is not None:
            self._close(self._leaf, now)
        self._leaf = _family(insn)
        self._insn = insn
        self._lap = now

    def checkpoint(self, site, idx, state) -> None:
        if site == "prune":
            # A prune decision follows; until its event the time is
            # the decision's, and an abort in between opens no leaf.
            self._leaf = None

    def prune(self, idx, point, outcome) -> None:
        now = time.perf_counter()
        self._close("prune", now)
        self.ops[f"{point}.{outcome}"] += 1
        # A scan hit either prunes the path or rejects an infinite
        # loop: the instruction's step never runs.
        self._leaf = None if outcome == "scan-hit" else _family(self._insn)
        self._lap = now

    def branch(self, idx, insn, taken_dst, else_dst) -> None:
        suffix = "" if insn.insn_class == InsnClass.JMP else "32"
        self.jmp_ops[f"{insn.jmp_op.name}{suffix}"] += 1

    def call(self, idx, proto) -> None:
        name = proto.name if hasattr(proto, "name") else f"kfunc#{proto.btf_id}"
        self.helpers[name] += 1

    def sanitize(self, sites, skipped_r10, n_insns) -> None:
        self.ops["sanitizer.sites"] += sites
        self.ops["sanitizer.skipped_r10"] += skipped_r10

    def verdict(self, verdict, errno=None, insn=-1, message="") -> None:
        self._unwind()

    def abort(self, exc) -> None:
        self._unwind()

    def _unwind(self) -> None:
        """Close the leaf and every frame the verification opened."""
        self._close_leaf()
        while len(self._stack) > self._base:
            self.pop()

    def snapshot(self) -> dict:
        """Plain-dict form: exact counts and wall times segregated."""
        ordered = sorted(self.nodes)
        return {
            "counts": {
                "nodes": {path: self.nodes[path][0] for path in ordered},
                "alu_ops": dict(sorted(self.alu_ops.items())),
                "jmp_ops": dict(sorted(self.jmp_ops.items())),
                "helpers": dict(sorted(self.helpers.items())),
                "ops": dict(sorted(self.ops.items())),
            },
            "wall": {
                "nodes": {
                    path: {
                        "cum": self.nodes[path][1],
                        "self": self.nodes[path][2],
                    }
                    for path in ordered
                },
            },
        }


_COUNT_FAMILIES = ("nodes", "alu_ops", "jmp_ops", "helpers", "ops")


def merge_profiles(snapshots: list[dict]) -> dict:
    """Sum profile snapshots (shard merge); worker-count invariant.

    Counts sum exactly; wall node times sum per path and stay under
    ``"wall"``.  Empty/missing snapshots contribute nothing, and an
    all-empty input merges to ``{}`` (profiling was off).
    """
    snapshots = [snap for snap in snapshots if snap]
    if not snapshots:
        return {}
    counts = {family: Counter() for family in _COUNT_FAMILIES}
    wall_nodes: dict[str, dict] = {}
    for snap in snapshots:
        snap_counts = snap.get("counts", {})
        for family in _COUNT_FAMILIES:
            counts[family].update(snap_counts.get(family, {}))
        for path, times in snap.get("wall", {}).get("nodes", {}).items():
            entry = wall_nodes.setdefault(path, {"cum": 0.0, "self": 0.0})
            entry["cum"] += times.get("cum", 0.0)
            entry["self"] += times.get("self", 0.0)
    return {
        "counts": {
            family: dict(sorted(counts[family].items()))
            for family in _COUNT_FAMILIES
        },
        "wall": {
            "nodes": {path: wall_nodes[path] for path in sorted(wall_nodes)},
        },
    }


def strip_profile_wall(profile: dict) -> dict:
    """The invariant half of a snapshot (wall timings removed)."""
    if not profile:
        return {}
    return {"counts": profile.get("counts", {})}


# ----------------------------------------------------------------- render --


def _total_root_cum(wall_nodes: dict) -> float:
    return sum(
        times.get("cum", 0.0)
        for path, times in wall_nodes.items()
        if "/" not in path
    )


def _render_counter(
    lines: list[str], title: str, counter: dict, top: int
) -> None:
    if not counter:
        return
    total = sum(counter.values())
    lines += ["", f"{title} ({total} events):"]
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    for name, count in ranked[:top]:
        lines.append(f"  {name:<28} {count:>10} ({count / total:.1%})")
    if len(ranked) > top:
        rest = sum(count for _, count in ranked[top:])
        lines.append(f"  {'(other)':<28} {rest:>10} ({rest / total:.1%})")


def render_profile(profile: dict, top: int = 10) -> str:
    """Human-readable form: frame tree, hotspots, op/helper tables.

    Works on both full and wall-stripped snapshots — timing columns
    degrade to counts-only when ``"wall"`` is absent.
    """
    if not profile or not profile.get("counts"):
        return "(no profile data — run with --profile)"
    counts = profile.get("counts", {})
    node_counts = counts.get("nodes", {})
    wall_nodes = profile.get("wall", {}).get("nodes", {})
    total = _total_root_cum(wall_nodes)

    lines = ["verifier profile:"]
    if node_counts:
        header = f"  {'frame':<34} {'count':>10}"
        if wall_nodes:
            header += f" {'cum s':>9} {'self s':>9} {'self %':>7}"
        lines.append(header)
        for path in sorted(node_counts):
            depth = path.count("/")
            label = "  " * depth + path.rsplit("/", 1)[-1]
            row = f"  {label:<34} {node_counts[path]:>10}"
            times = wall_nodes.get(path)
            if times is not None:
                share = times["self"] / total if total else 0.0
                row += (f" {times['cum']:>9.3f} {times['self']:>9.3f}"
                        f" {share:>7.1%}")
            lines.append(row)
    else:
        lines.append("  (no frames recorded)")

    if wall_nodes:
        lines += ["", f"hotspots (self time, total {total:.3f}s):"]
        ranked = sorted(
            wall_nodes.items(), key=lambda kv: (-kv[1]["self"], kv[0])
        )
        for path, times in ranked[:top]:
            share = times["self"] / total if total else 0.0
            lines.append(
                f"  {path:<34} {times['self']:>9.3f}s {share:>7.1%}"
                f"  (n={node_counts.get(path, 0)})"
            )

    _render_counter(lines, "ALU ops", counts.get("alu_ops", {}), top)
    _render_counter(lines, "JMP ops", counts.get("jmp_ops", {}), top)
    _render_counter(lines, "helper calls", counts.get("helpers", {}), top)
    _render_counter(
        lines, "prune / sanitizer events", counts.get("ops", {}), top
    )
    return "\n".join(lines)
