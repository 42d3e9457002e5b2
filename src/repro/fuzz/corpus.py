"""Coverage-guided corpus management.

Programs that exercise new verifier edges are preserved (with the map
specs needed to replay them in a fresh kernel) and fed back into the
campaign as mutation seeds — the feedback loop the paper inherits from
Syzkaller but pointed at the verifier's code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ebpf.insn import Insn
from repro.ebpf.maps import MapType
from repro.ebpf.program import ProgType
from repro.fuzz.structure import ExecutionPlan, GeneratedProgram

__all__ = ["MapSpec", "CorpusEntry", "Corpus"]


@dataclass(frozen=True)
class MapSpec:
    """Enough of a map's shape to recreate it in a replay kernel.

    ``has_spin_lock`` is part of the shape: the verifier checks every
    ``bpf_spin_lock`` call against the map it names, so a lock-less
    re-creation turns an accepted program into a reject.
    """

    map_type: MapType
    key_size: int
    value_size: int
    max_entries: int
    has_spin_lock: bool = False


@dataclass
class CorpusEntry:
    """One preserved program."""

    insns: list[Insn]
    prog_type: ProgType
    map_specs: tuple[MapSpec, ...]
    plan: ExecutionPlan
    new_edges: int = 0
    origin: str = "bvf"


def specs_of(gp: GeneratedProgram) -> tuple[MapSpec, ...]:
    return tuple(
        MapSpec(m.map_type, m.key_size, m.value_size, m.max_entries,
                m.has_spin_lock)
        for m in gp.maps
    )


class Corpus:
    """Bounded pool of coverage-contributing programs."""

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self.entries: list[CorpusEntry] = []
        self.total_added = 0

    def add(self, gp: GeneratedProgram, new_edges: int) -> None:
        entry = CorpusEntry(
            insns=list(gp.insns),
            prog_type=gp.prog_type,
            map_specs=specs_of(gp),
            plan=gp.plan,
            new_edges=new_edges,
            origin=gp.origin,
        )
        self.total_added += 1
        if len(self.entries) < self.capacity:
            self.entries.append(entry)
            return
        # Evict the least-contributing entry.
        weakest = min(range(len(self.entries)), key=lambda i: self.entries[i].new_edges)
        if self.entries[weakest].new_edges < new_edges:
            self.entries[weakest] = entry

    def __len__(self) -> int:
        return len(self.entries)

    def pick(self, rng) -> CorpusEntry:
        return rng.pick(self.entries)
