"""Corpus management and verifier-coverage tests."""

from __future__ import annotations

import importlib
import inspect
import linecache
from types import CodeType, FunctionType

import pytest

from repro.kernel.config import PROFILES
from repro.kernel.syscall import Kernel
from repro.ebpf import asm
from repro.ebpf.maps import MapType
from repro.ebpf.opcodes import Reg
from repro.ebpf.program import BpfProgram, ProgType
from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.corpus import Corpus, MapSpec, specs_of
from repro.errors import VerifierReject
from repro.fuzz.coverage import (
    CoverageReentryError,
    VerifierCoverage,
    install_probes,
)
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

    def test_scope_modules_carry_probes(self):
        """Every function of the decision modules is instrumented, and no
        function of the data-structure modules is, so the value types and
        the copy-on-write clones stay invisible to coverage."""
        install_probes()
        for name in ("branches", "calls", "checks", "core"):
            codes = _function_codes(importlib.import_module(
                f"repro.verifier.{name}"))
            assert codes
            bare = [c.co_qualname for c in codes if not _has_probes(c)]
            assert bare == [], f"{name}: uninstrumented {bare}"
        for name in ("tnum", "state", "stack", "env"):
            codes = _function_codes(importlib.import_module(
                f"repro.verifier.{name}"))
            assert codes
            assert not any(_has_probes(c) for c in codes), name

    def test_load_outside_window_records_nothing(self):
        insns = [
            asm.st_mem(asm.Size.DW, Reg.R10, -8, 1),
            asm.ldx_mem(asm.Size.DW, Reg.R0, Reg.R10, -8),
            asm.exit_insn(),
        ]
        cov = VerifierCoverage()
        with cov.collect() as window:
            Kernel(PROFILES["patched"]()).prog_load(BpfProgram(insns=insns))
        before = cov.snapshot_edges()
        assert window == before
        kernel = Kernel(PROFILES["patched"]())
        kernel.prog_load(BpfProgram(insns=insns))
        kernel.prog_load(BpfProgram(insns=[asm.mov64_imm(Reg.R0, 0),
                                           asm.exit_insn()]))
        assert window == before
        assert cov.snapshot_edges() == before
        again = VerifierCoverage()
        self._verify_once(again, insns)
        assert again.snapshot_edges() == before

    def test_exception_reports_original_line(self):
        """Probes carry their statement's location: a rejection raised
        inside an instrumented method points at its ``raise``."""
        from repro.verifier.core import Verifier

        cov = VerifierCoverage()
        with pytest.raises(VerifierReject) as info:
            self._verify_once(cov, insns=[asm.exit_insn()])
        code = Verifier.reject.__code__
        assert _has_probes(code)
        frames = [tb for tb in _tracebacks(info.value.__traceback__)
                  if tb.tb_frame.f_code is code]
        assert frames
        raised = linecache.getline(code.co_filename, frames[-1].tb_lineno)
        assert raised.strip().startswith("raise VerifierReject(")
        source, _ = inspect.findsource(Verifier)
        def_line = next(i + 1 for i, text in enumerate(source)
                        if text.strip().startswith("def reject("))
        assert code.co_firstlineno == def_line
        body, start = inspect.getsourcelines(Verifier.reject)
        lines = {line for _, _, line in code.co_lines() if line is not None}
        assert lines <= set(range(start, start + len(body)))

    def test_install_twice_is_noop(self):
        from repro.verifier import core

        install_probes()
        codes = _function_codes(core)
        cov = VerifierCoverage()
        self._verify_once(cov)
        install_probes()
        after = _function_codes(core)
        assert len(after) == len(codes)
        assert all(a is b for a, b in zip(codes, after))
        again = VerifierCoverage()
        self._verify_once(again)
        assert again.snapshot_edges() == cov.snapshot_edges()

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


def _has_probes(code: CodeType) -> bool:
    return "_bvf_cov_window" in code.co_names


def _function_codes(module) -> list[CodeType]:
    """Codes of every function defined in ``module``, nested ones too:
    module functions, methods, properties, static and class methods.
    Comprehensions and lambdas hold no statements, so no probes."""
    found: list[CodeType] = []

    def add(obj) -> None:
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            for accessor in (obj.fget, obj.fset, obj.fdel):
                add(accessor)
        elif isinstance(obj, type) and obj.__module__ == module.__name__:
            for attr in vars(obj).values():
                add(attr)
        elif (isinstance(obj, FunctionType)
              and obj.__code__.co_filename == module.__file__):
            nested(obj.__code__)

    def nested(code: CodeType) -> None:
        found.append(code)
        for const in code.co_consts:
            if isinstance(const, CodeType) and not const.co_name.startswith("<"):
                nested(const)

    for obj in vars(module).values():
        add(obj)
    return found


def _tracebacks(tb):
    while tb is not None:
        yield tb
        tb = tb.tb_next
