"""kcov-style coverage over the verifier's code.

The paper instruments only the eBPF source with kcov and uses branch
coverage both as the fuzzer's feedback signal and as the evaluation
metric (Figure 6 / Table 3).  Our "kernel source" is the Python
verifier, so we instrument *it*, the way kcov and SanitizerCoverage
do: at compile time, one probe per basic block.

**Block probes.**  The source of each decision module is parsed, a
probe statement is inserted at every basic-block start, and the tree
is compiled again.  A block starts at

- a function's entry (after its docstring);
- the first statement of every ``body``/``orelse``/``handlers``/
  ``finalbody``/``case``;
- the statement after each compound statement (``if``, loops,
  ``try``, ``with``, ``match``).

Module and class bodies get no probes: they ran once, at import.
Each probe owns a dense site id ``1..n`` assigned in deterministic
AST order over the modules, and records the *block edge* it closes::

    if _bvf_cov_window is not None:
        _bvf_cov_window.add(_bvf_cov_prev + SITE)
        _bvf_cov_prev = SITE * N

``_bvf_cov_window`` is a module global holding the open window's edge
set, or ``None``; ``_bvf_cov_prev`` is a frame local holding the
previous site times ``N = n + 1``.  An edge key is therefore
``prev_site * N + site`` (``prev_site`` is 0 at function entry): dense
small ints, collision-free, and a pure function of the source, so
edge sets from different worker processes union soundly (see
:mod:`repro.fuzz.parallel`).  With no window open a probe costs one
global load and an ``is not None`` test, and the interpreter never
leaves its fast path: no trace hook is ever installed.  The entry
probe also stores ``_bvf_cov_prev`` unconditionally, so a frame is
never left without one.

**Installation.**  :func:`install_probes` compiles the instrumented
modules once per process, at the first :meth:`VerifierCoverage.collect`
(``ParallelCampaign.run`` calls it before forking its workers, which
inherit it).  It swaps ``__code__`` on every existing function object
of the modules — module functions, methods, properties, static and
class methods, wherever they are referenced — so names other modules
took with ``from ... import`` see the probes too.  Nested functions
come along as constants of their parent's code.  A probe carries the
source location of the statement it precedes, so tracebacks and
``co_firstlineno`` are unchanged.  A process that never collects
(``repro selftest``, uncovered runs) compiles nothing and pays nothing.

**Scope.**  Helper implementations, maps and the interpreter are not
instrumented, mirroring the paper's setup where only the eBPF
subsystem is, so all tools compete on the same measurement range.
Within ``repro/verifier`` the scope is narrowed further to the
*decision* modules (:data:`_SCOPE_MODULES` — the instruction walker,
ALU/memory checks, branch reasoning, and call checking), where control
flow corresponds to verifier verdicts.  The data-structure modules
(``tnum``/``state``/``stack``/``env``) are arithmetic and
book-keeping plumbing whose edges carry no feedback signal — and
keeping them out of scope is also what makes the tnum memoization and
copy-on-write clone machinery they host *coverage-transparent*: a
cache hit or miss can never change which edges a program contributes.
"""

from __future__ import annotations

import ast
import gc
import importlib
from contextlib import contextmanager
from types import CodeType, FunctionType
from typing import Iterable

__all__ = ["VerifierCoverage", "CoverageReentryError", "install_probes"]

#: Decision modules of ``repro/verifier`` that carry probes, in the
#: order their sites are numbered.
_SCOPE_MODULES = (
    "repro.verifier.branches",
    "repro.verifier.calls",
    "repro.verifier.checks",
    "repro.verifier.core",
)

#: Module global holding the open window's edge set (``None`` when
#: closed), and the frame local holding the previous site's stride.
_WINDOW = "_bvf_cov_window"
_PREV = "_bvf_cov_prev"

#: Statements after which a new basic block starts.
_COMPOUND = (
    ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try, ast.TryStar,
    ast.With, ast.AsyncWith, ast.Match,
)

#: Globals dicts of the instrumented modules once probes are installed.
_NAMESPACES: list[dict] = []
#: Whether a collection window is open in this process.
_WINDOW_OPEN = False


class _Probes:
    """Inserts block probes into function bodies, numbering the sites.

    With ``stride=None`` it only counts the sites, which is how
    :func:`install_probes` learns ``N`` before it builds any probe.
    """

    def __init__(self, stride: int | None) -> None:
        self.stride = stride
        self.n_sites = 0

    def module(self, tree: ast.Module) -> None:
        tree.body = self._block(tree.body, in_function=False)

    def _block(self, body: list[ast.stmt], in_function: bool,
               entry: bool = False) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        block_start = in_function
        for stmt in body:
            if block_start:
                out.extend(self._probe(stmt, entry))
                entry = False
            self._descend(stmt, in_function)
            out.append(stmt)
            block_start = in_function and isinstance(stmt, _COMPOUND)
        return out

    def _descend(self, stmt: ast.stmt, in_function: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = stmt.body[:1] if ast.get_docstring(stmt, clean=False) else []
            rest = stmt.body[len(doc):]
            stmt.body = doc + (self._block(rest, True, entry=True) if rest
                               else self._probe(doc[0], entry=True))
        elif isinstance(stmt, ast.ClassDef):
            stmt.body = self._block(stmt.body, in_function=False)
        elif isinstance(stmt, ast.Match):
            for case in stmt.cases:
                case.body = self._block(case.body, in_function)
        else:
            for field in ("body", "orelse", "finalbody"):
                block = getattr(stmt, field, None)
                if block:
                    setattr(stmt, field, self._block(block, in_function))
            for handler in getattr(stmt, "handlers", ()):
                handler.body = self._block(handler.body, in_function)

    def _probe(self, at: ast.stmt, entry: bool) -> list[ast.stmt]:
        """The probe of a new site, located at the statement it precedes."""
        self.n_sites += 1
        site = self.n_sites
        if self.stride is None:
            return []
        loc = {"lineno": at.lineno, "col_offset": at.col_offset,
               "end_lineno": at.end_lineno, "end_col_offset": at.end_col_offset}

        def name(id_, ctx):
            return ast.Name(id_, ctx, **loc)

        def const(value):
            return ast.Constant(value, **loc)

        set_prev = ast.Assign([name(_PREV, ast.Store())],
                              const(site * self.stride), **loc)
        key = (const(site) if entry else
               ast.BinOp(name(_PREV, ast.Load()), ast.Add(), const(site), **loc))
        record = ast.Expr(ast.Call(
            ast.Attribute(name(_WINDOW, ast.Load()), "add", ast.Load(), **loc),
            [key], [], **loc), **loc)
        window_open = ast.Compare(name(_WINDOW, ast.Load()), [ast.IsNot()],
                                  [const(None)], **loc)
        if entry:
            return [set_prev, ast.If(window_open, [record], [], **loc)]
        return [ast.If(window_open, [record, set_prev], [], **loc)]


def _code_index(code: CodeType, index: dict) -> None:
    """Map ``(qualname, firstlineno)`` of every code nested in ``code``."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            index[(const.co_qualname, const.co_firstlineno)] = const
            _code_index(const, index)


def _parse(module) -> ast.Module:
    with open(module.__file__, encoding="utf-8") as source:
        return ast.parse(source.read(), module.__file__)


def install_probes() -> None:
    """Instrument the decision modules; a no-op after the first call.

    Parses and compiles the modules again with block probes, then
    swaps ``__code__`` on every function object whose code came from
    them.  Costs ~0.15 s, once per process.
    """
    if _NAMESPACES:
        return
    modules = [importlib.import_module(name) for name in _SCOPE_MODULES]
    # Two passes, one tree alive at a time: the trees of all four
    # modules at once would raise the process's peak RSS by ~7 MB.
    counter = _Probes(stride=None)
    for module in modules:
        counter.module(_parse(module))
    probes = _Probes(stride=counter.n_sites + 1)
    index: dict[str, dict] = {}
    for module in modules:
        tree = _parse(module)
        probes.module(tree)
        _code_index(compile(tree, module.__file__, "exec", dont_inherit=True),
                    index.setdefault(module.__file__, {}))
        setattr(module, _WINDOW, None)
    for obj in gc.get_objects():
        if type(obj) is FunctionType and obj.__code__.co_filename in index:
            code = obj.__code__
            new = index[code.co_filename].get(
                (code.co_qualname, code.co_firstlineno))
            if new is not None:
                obj.__code__ = new
    _NAMESPACES.extend(vars(module) for module in modules)


def _set_window(window: set[int] | None) -> None:
    for namespace in _NAMESPACES:
        namespace[_WINDOW] = window


class CoverageReentryError(RuntimeError):
    """Raised when a collection window opens inside another one.

    Probes write to the one window open in the process, so a nested
    window would clobber the active window's edge set and silently
    corrupt ``last_new`` (the corpus feedback signal); re-entry is
    rejected loudly instead.
    """


class VerifierCoverage:
    """Accumulates edge coverage of the verifier across many runs."""

    def __init__(self) -> None:
        #: all unique edges ever observed
        self.edges: set[int] = set()
        #: edges the most recent window newly contributed
        self.last_new = 0

    # --- collection API ----------------------------------------------------------

    @contextmanager
    def collect(self):
        """Record the verifier's block edges inside the ``with`` block.

        Yields the per-window edge set; new edges are merged into the
        cumulative set on exit.  Opening a window while one is open
        raises :class:`CoverageReentryError`.  The first window of a
        process installs the probes (:func:`install_probes`).
        """
        global _WINDOW_OPEN
        if _WINDOW_OPEN:
            raise CoverageReentryError(
                "VerifierCoverage.collect() is not re-entrant: a "
                "collection window is already open in this process"
            )
        install_probes()
        window: set[int] = set()
        _WINDOW_OPEN = True
        _set_window(window)
        try:
            yield window
        finally:
            _set_window(None)
            _WINDOW_OPEN = False
            self.last_new = len(window - self.edges)
            self.edges |= window

    def replay(self, window: Iterable[int]) -> None:
        """Apply a previously recorded collection window without probes.

        Updates ``last_new`` — the corpus feedback signal — and the
        cumulative edge set exactly as a :meth:`collect` block that
        recorded the same edges would.  The benchmark's span tracer
        (``perfbench/spans.py``) wraps this method by name.
        """
        if _WINDOW_OPEN:
            raise CoverageReentryError(
                "VerifierCoverage.replay() inside an active collection "
                "window would corrupt the window's last_new accounting"
            )
        window = set(window)
        self.last_new = len(window - self.edges)
        self.edges |= window

    # --- accumulation / merge API ------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def snapshot(self) -> int:
        return len(self.edges)

    def snapshot_edges(self) -> frozenset[int]:
        """An immutable, picklable copy of the cumulative edge set.

        Edge keys are stable across processes, so snapshots taken in
        campaign shard workers can be unioned in the parent.
        """
        return frozenset(self.edges)

    def merge(self, other: "VerifierCoverage | Iterable[int]") -> int:
        """Fold another coverage accumulation into this one.

        Accepts either a :class:`VerifierCoverage` or any iterable of
        edge keys (e.g. a :meth:`snapshot_edges` result shipped back
        from a worker process).  Returns the number of edges that were
        new to this accumulator.
        """
        if isinstance(other, VerifierCoverage):
            incoming = other.edges
        else:
            incoming = set(other)
        before = len(self.edges)
        self.edges |= incoming
        return len(self.edges) - before
