"""Corpus management and coverage-tracer tests."""

from __future__ import annotations

import pytest

from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.ebpf import asm
from repro.ebpf.maps import MapType
from repro.ebpf.opcodes import Reg
from repro.ebpf.program import BpfProgram, ProgType
from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.corpus import Corpus, MapSpec, specs_of
from repro.fuzz.coverage import CoverageReentryError, VerifierCoverage
from repro.fuzz.rng import FuzzRng
from repro.fuzz.structure import ExecutionPlan, GeneratedProgram


def dummy_gp(kernel=None, n_maps=1, value_size=8, has_spin_lock=False):
    kernel = kernel or Kernel(PROFILES["patched"]())
    maps = []
    for _ in range(n_maps):
        fd = kernel.map_create(MapType.HASH, 8, value_size, 4,
                               has_spin_lock=has_spin_lock)
        maps.append(kernel.map_by_fd(fd))
    return GeneratedProgram(
        insns=[asm.mov64_imm(Reg.R0, 0), asm.exit_insn()],
        prog_type=ProgType.KPROBE,
        maps=maps,
        plan=ExecutionPlan(),
    )


class TestCorpus:
    def test_add_and_pick(self):
        corpus = Corpus()
        corpus.add(dummy_gp(), new_edges=5)
        assert len(corpus) == 1
        entry = corpus.pick(FuzzRng(0))
        assert entry.prog_type == ProgType.KPROBE
        assert entry.map_specs[0].map_type == MapType.HASH

    def test_capacity_eviction_prefers_contributors(self):
        corpus = Corpus(capacity=2)
        corpus.add(dummy_gp(), new_edges=1)
        corpus.add(dummy_gp(), new_edges=10)
        corpus.add(dummy_gp(), new_edges=5)
        assert len(corpus) == 2
        assert sorted(e.new_edges for e in corpus.entries) == [5, 10]

    def test_weak_entry_not_inserted(self):
        corpus = Corpus(capacity=1)
        corpus.add(dummy_gp(), new_edges=10)
        corpus.add(dummy_gp(), new_edges=1)
        assert corpus.entries[0].new_edges == 10

    def test_specs_of(self):
        gp = dummy_gp(n_maps=2)
        specs = specs_of(gp)
        assert specs == (MapSpec(MapType.HASH, 8, 8, 4),) * 2

    def test_locked_entry_recreates_locked_map(self):
        gp = dummy_gp(value_size=16, has_spin_lock=True)
        assert specs_of(gp) == (MapSpec(MapType.HASH, 8, 16, 4, True),)
        campaign = Campaign(CampaignConfig(tool="bvf", mutate_rate=1.0))
        campaign.corpus.add(gp, new_edges=1)
        mutated = campaign._next_program(Kernel(PROFILES["patched"]()))
        assert mutated.origin == "bvf-mut"
        assert [m.has_spin_lock for m in mutated.maps] == [True]


class TestCoverage:
    def _verify_once(self, cov, insns=None):
        kernel = Kernel(PROFILES["patched"]())
        prog = BpfProgram(
            insns=insns or [asm.mov64_imm(Reg.R0, 0), asm.exit_insn()]
        )
        with cov.collect():
            kernel.prog_load(prog)

    def test_collect_records_edges(self):
        cov = VerifierCoverage()
        self._verify_once(cov)
        assert cov.edge_count > 0
        assert cov.last_new == cov.edge_count

    def test_repeat_contributes_nothing(self):
        cov = VerifierCoverage()
        self._verify_once(cov)
        first = cov.edge_count
        self._verify_once(cov)
        assert cov.edge_count == first
        assert cov.last_new == 0

    def test_new_behaviour_adds_edges(self):
        cov = VerifierCoverage()
        self._verify_once(cov)
        first = cov.edge_count
        self._verify_once(
            cov,
            insns=[
                asm.st_mem(asm.Size.DW, Reg.R10, -8, 1),
                asm.ldx_mem(asm.Size.DW, Reg.R0, Reg.R10, -8),
                asm.exit_insn(),
            ],
        )
        assert cov.edge_count > first
        assert cov.last_new > 0

    def test_tracing_scoped_to_verifier(self):
        cov = VerifierCoverage()
        with cov.collect():
            sum(range(1000))  # non-verifier code
        assert cov.edge_count == 0

    def test_nested_collect_raises(self):
        """Re-entry would clobber the active window; it must fail loudly."""
        cov = VerifierCoverage()
        with cov.collect():
            with pytest.raises(CoverageReentryError):
                with cov.collect():
                    pass  # pragma: no cover

    def test_collect_usable_after_reentry_error(self):
        cov = VerifierCoverage()
        with cov.collect():
            with pytest.raises(CoverageReentryError):
                cov.collect().__enter__()
        self._verify_once(cov)
        assert cov.edge_count > 0

    def test_backend_selection(self):
        import sys

        assert VerifierCoverage().backend_name in (
            "ctrace",
            "settrace",
            "monitoring",
        )
        assert VerifierCoverage(backend="settrace").backend_name == "settrace"
        if hasattr(sys, "monitoring"):
            cov = VerifierCoverage(backend="monitoring")
            assert cov.backend_name == "monitoring"
            self._verify_once(cov)
            assert cov.edge_count > 0
        else:
            with pytest.raises(ValueError):
                VerifierCoverage(backend="monitoring")
        with pytest.raises(ValueError):
            VerifierCoverage(backend="dtrace")

    def test_ctrace_settrace_parity(self):
        """The C tracer must report bit-identical edges to settrace."""
        from repro.fuzz.coverage import _load_ctrace

        if not _load_ctrace():
            pytest.skip("C tracer extension unavailable")
        fast = VerifierCoverage(backend="ctrace")
        slow = VerifierCoverage(backend="settrace")
        for cov in (fast, slow):
            self._verify_once(cov)
        assert fast.snapshot_edges() == slow.snapshot_edges()
        assert fast.edge_count > 0

    def test_replay_marks_new_edges(self):
        cov = VerifierCoverage()
        self._verify_once(cov)
        window = cov.snapshot_edges()
        fresh = VerifierCoverage()
        fresh.replay(window)
        assert fresh.last_new == len(window)
        assert fresh.snapshot_edges() == window
        fresh.replay(window)  # replaying the same window adds nothing
        assert fresh.last_new == 0

    def test_snapshot_edges_is_picklable_copy(self):
        import pickle

        cov = VerifierCoverage()
        self._verify_once(cov)
        snap = cov.snapshot_edges()
        assert snap == frozenset(cov.edges)
        assert pickle.loads(pickle.dumps(snap)) == snap
        self._verify_once(
            cov,
            insns=[
                asm.st_mem(asm.Size.DW, Reg.R10, -8, 1),
                asm.ldx_mem(asm.Size.DW, Reg.R0, Reg.R10, -8),
                asm.exit_insn(),
            ],
        )
        assert snap < cov.snapshot_edges()  # snapshot didn't alias

    def test_merge_counts_new_edges_only(self):
        a = VerifierCoverage()
        b = VerifierCoverage()
        self._verify_once(a)
        self._verify_once(b)
        self._verify_once(
            b,
            insns=[
                asm.st_mem(asm.Size.DW, Reg.R10, -8, 1),
                asm.ldx_mem(asm.Size.DW, Reg.R0, Reg.R10, -8),
                asm.exit_insn(),
            ],
        )
        extra = b.edge_count - a.edge_count
        assert extra > 0
        assert a.merge(b) == extra
        assert a.edge_count == b.edge_count
        assert a.merge(b.snapshot_edges()) == 0  # iterable form, idempotent

    def test_edge_keys_stable_across_processes(self):
        """Same verification in a child process yields the same edges.

        This is what makes unioning shard edge sets in the parallel
        campaign meaningful: keys must not depend on per-process hash
        salting or allocation order.
        """
        import multiprocessing

        cov = VerifierCoverage()
        self._verify_once(cov)
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        with ctx.Pool(1) as pool:
            child = pool.apply(_collect_edges_in_child)
        assert child == cov.snapshot_edges()


def _collect_edges_in_child():
    kernel = Kernel(PROFILES["patched"]())
    cov = VerifierCoverage()
    with cov.collect():
        kernel.prog_load(
            BpfProgram(insns=[asm.mov64_imm(Reg.R0, 0), asm.exit_insn()])
        )
    return cov.snapshot_edges()
