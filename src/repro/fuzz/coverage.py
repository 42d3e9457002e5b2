"""kcov-style coverage over the verifier's code.

The paper instruments only the eBPF source with kcov and uses branch
coverage both as the fuzzer's feedback signal and as the evaluation
metric (Figure 6 / Table 3).  Our "kernel source" is the Python
verifier, so we trace *it*: a tracing hook, enabled only while the
verifier runs, records line-to-line edges within the modules under
``repro/verifier``.  Unique ``(code object, prev line, line)`` edges
are the branch-coverage analogue.

Three tracing backends are available:

- ``ctrace`` — a C trace callback (:mod:`_bvf_ctrace`, compiled on
  demand from ``_native/ctrace.c`` via :func:`PyEval_SetTrace`), which
  replaces the interpreter-level per-line dispatch with a C call and a
  hash-set insert; it produces bit-identical edge keys to the Python
  backends and is preferred whenever a C compiler or a prebuilt
  extension is available;
- ``monitoring`` — the PEP 669 :mod:`sys.monitoring` API (Python
  3.12+), which dispatches per-line events without the per-call
  closure allocation ``sys.settrace`` needs and lets out-of-scope code
  disable its own events after the first hit;
- ``settrace`` — the classic :func:`sys.settrace` hook, the portable
  fallback that works on every interpreter.

``backend="auto"`` (the default) picks the fastest available one in
the order above.

Edge keys are **stable across processes**: they are composed from a
CRC32 of the code object's file/qualname/first-line identity plus the
line pair, never from :func:`hash` (whose string hashing is salted per
process).  That is what makes :meth:`merge`/:meth:`snapshot_edges`
sound for the sharded parallel campaigns in
:mod:`repro.fuzz.parallel`: a union of edge sets collected in
different worker processes counts each distinct verifier edge exactly
once.

The tracer is deliberately scoped: helper implementations, maps, and
the interpreter are not traced, mirroring the paper's setup where only
the eBPF subsystem is instrumented so all tools compete on the same
measurement range.  Within ``repro/verifier`` the scope is narrowed
further to the *decision* modules (:data:`_SCOPE_BASENAMES` — the
instruction walker, ALU/memory checks, branch reasoning, and call
checking), where control flow corresponds to verifier verdicts.  The
data-structure modules (``tnum``/``state``/``stack``/``env``) are
arithmetic and book-keeping plumbing whose edges carry no feedback
signal — and keeping them out of scope is also what makes the tnum
memoization and copy-on-write clone machinery they host
*coverage-transparent*: a cache hit or miss can never change which
edges a program contributes.
"""

from __future__ import annotations

import os
import sys
import zlib
from contextlib import contextmanager
from typing import Iterable

import repro.verifier as _verifier_pkg

__all__ = ["VerifierCoverage", "CoverageReentryError"]

_VERIFIER_DIR = os.path.dirname(os.path.abspath(_verifier_pkg.__file__))


def _preload_verifier_modules() -> None:
    """Import every ``repro.verifier`` submodule eagerly.

    A submodule imported lazily during a traced verifier run would
    contribute its module-body lines as coverage edges — but only in
    the first collection window of whichever process happens to import
    it first.  That would make edge sets depend on process history
    (a forked shard worker inherits its parent's warm import state and
    never records them), breaking the worker-count invariance of
    parallel campaign merges.  Importing everything up front keeps
    edge sets a pure function of what the verifier executes.
    """
    import importlib
    import pkgutil

    for module in pkgutil.iter_modules(_verifier_pkg.__path__):
        importlib.import_module(f"{_verifier_pkg.__name__}.{module.name}")


_preload_verifier_modules()

#: Bits reserved for each line number inside an edge key.  Verifier
#: modules are a few thousand lines; 15 bits (32767) is ample.
_LINE_BITS = 15
_LINE_MASK = (1 << _LINE_BITS) - 1


#: Decision modules inside ``repro/verifier`` that contribute edges.
_SCOPE_BASENAMES = frozenset(
    {"core.py", "checks.py", "branches.py", "calls.py"}
)


def _in_scope(filename: str) -> bool:
    return (
        filename.startswith(_VERIFIER_DIR)
        and os.path.basename(filename) in _SCOPE_BASENAMES
    )


def _stable_code_id(code) -> int:
    """A per-process-independent 32-bit identity for a code object.

    ``hash(code)`` mixes in salted string hashes (PYTHONHASHSEED), so
    edge sets built in different worker processes would not compare or
    union correctly.  CRC32 over the stable identity triple does.
    """
    qualname = getattr(code, "co_qualname", code.co_name)
    key = f"{os.path.basename(code.co_filename)}:{qualname}:{code.co_firstlineno}"
    return zlib.crc32(key.encode())


def _edge_key(code_id: int, prev: int, line: int) -> int:
    return (
        (code_id << (2 * _LINE_BITS))
        | ((prev & _LINE_MASK) << _LINE_BITS)
        | (line & _LINE_MASK)
    )


class CoverageReentryError(RuntimeError):
    """Raised when :meth:`VerifierCoverage.collect` is nested.

    A nested window would clobber the active window's edge set and
    silently corrupt ``last_new`` (the corpus feedback signal), so
    re-entry is rejected loudly instead.
    """


#: Cached ``_bvf_ctrace`` module, or ``False`` after a failed attempt
#: (so a missing compiler is probed exactly once per process).
_CTRACE_MODULE: object = None


def _load_ctrace():
    """Import the C tracer, compiling it on first use if possible.

    Returns the module or ``None``.  Failures (no compiler, no
    ``Python.h``, exotic platform) are cached and silent: the Python
    backends are always available as fallbacks, so a build problem
    must never break a campaign, only slow it down.
    """
    global _CTRACE_MODULE
    if _CTRACE_MODULE is not None:
        return _CTRACE_MODULE or None

    import importlib.util
    import shutil
    import subprocess
    import sysconfig

    native_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "_native")
    source = os.path.join(native_dir, "ctrace.c")
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = os.path.join(native_dir, f"_bvf_ctrace{suffix}")

    def _import_built():
        spec = importlib.util.spec_from_file_location("_bvf_ctrace", target)
        if spec is None or spec.loader is None:
            return None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    try:
        if (not os.path.exists(target)
                or os.path.getmtime(target) < os.path.getmtime(source)):
            compiler = shutil.which("cc") or shutil.which("gcc")
            include = sysconfig.get_path("include")
            if compiler is None or include is None:
                raise OSError("no C compiler or Python headers")
            subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", f"-I{include}",
                 source, "-o", target],
                check=True, capture_output=True, timeout=120,
            )
        _CTRACE_MODULE = _import_built()
    except Exception:
        _CTRACE_MODULE = False
        return None
    if _CTRACE_MODULE is None:
        _CTRACE_MODULE = False
        return None
    return _CTRACE_MODULE


class _CtraceBackend:
    """Line-edge tracing via the :mod:`_bvf_ctrace` C extension.

    The extension keeps the hot path — one trace callback per line —
    entirely in C: scope classification is cached per code object, the
    edge key is assembled from a per-frame shadow stack, and edges land
    in a C hash set that is only materialised as Python ints when the
    window closes.
    """

    name = "ctrace"

    def __init__(self, module) -> None:
        self._module = module
        self._window: set[int] | None = None

    @staticmethod
    def load():
        return _load_ctrace()

    def start(self, window: set[int]) -> None:
        self._window = window
        self._module.start(_VERIFIER_DIR, _SCOPE_BASENAMES)

    def stop(self) -> None:
        window, self._window = self._window, None
        window |= self._module.stop()


class _SettraceBackend:
    """Line-edge tracing via :func:`sys.settrace`."""

    name = "settrace"

    def __init__(self) -> None:
        self._scope_cache: dict[str, bool] = {}
        self._code_ids: dict[object, int] = {}
        self._window: set[int] | None = None
        self._saved_trace = None

    def start(self, window: set[int]) -> None:
        self._window = window
        self._saved_trace = sys.gettrace()
        sys.settrace(self._global_trace)

    def stop(self) -> None:
        sys.settrace(self._saved_trace)
        self._saved_trace = None
        self._window = None

    def _global_trace(self, frame, event, arg):
        if event != "call":
            return None
        code = frame.f_code
        filename = code.co_filename
        in_scope = self._scope_cache.get(filename)
        if in_scope is None:
            in_scope = _in_scope(filename)
            self._scope_cache[filename] = in_scope
        if not in_scope:
            return None
        code_id = self._code_ids.get(code)
        if code_id is None:
            code_id = _stable_code_id(code)
            self._code_ids[code] = code_id
        shifted = code_id << (2 * _LINE_BITS)
        prev = [frame.f_lineno]
        window = self._window
        window_add = window.add

        def local_trace(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                window_add(
                    shifted
                    | ((prev[0] & _LINE_MASK) << _LINE_BITS)
                    | (line & _LINE_MASK)
                )
                prev[0] = line
            return local_trace

        return local_trace


class _MonitoringBackend:
    """Line-edge tracing via :mod:`sys.monitoring` (PEP 669).

    Out-of-scope code objects return ``sys.monitoring.DISABLE`` from
    their first event, so after warm-up only verifier code pays any
    dispatch cost at all — the core of the hot-path win over
    ``settrace``, which must filter every call event forever.
    """

    name = "monitoring"

    def __init__(self) -> None:
        self._scope_cache: dict[object, bool] = {}
        self._code_ids: dict[object, int] = {}
        #: per-code previous line within the current window
        self._prev: dict[object, int] = {}
        self._window: set[int] | None = None

    @staticmethod
    def available() -> bool:
        return hasattr(sys, "monitoring")

    @property
    def _tool_id(self) -> int:
        return sys.monitoring.COVERAGE_ID

    def start(self, window: set[int]) -> None:
        mon = sys.monitoring
        try:
            mon.use_tool_id(self._tool_id, "bvf-verifier-coverage")
        except ValueError as exc:  # pragma: no cover - foreign tool active
            raise CoverageReentryError(
                "sys.monitoring coverage tool id already in use "
                "(another collection window is active?)"
            ) from exc
        self._window = window
        self._prev.clear()
        events = mon.events
        mon.register_callback(self._tool_id, events.PY_START, self._on_start)
        mon.register_callback(self._tool_id, events.LINE, self._on_line)
        mon.set_events(self._tool_id, events.PY_START | events.LINE)

    def stop(self) -> None:
        mon = sys.monitoring
        mon.set_events(self._tool_id, 0)
        mon.register_callback(self._tool_id, mon.events.PY_START, None)
        mon.register_callback(self._tool_id, mon.events.LINE, None)
        mon.free_tool_id(self._tool_id)
        self._window = None
        self._prev.clear()

    def _scoped(self, code) -> bool:
        in_scope = self._scope_cache.get(code)
        if in_scope is None:
            in_scope = _in_scope(code.co_filename)
            self._scope_cache[code] = in_scope
        return in_scope

    def _on_start(self, code, instruction_offset):
        if not self._scoped(code):
            return sys.monitoring.DISABLE
        # Function entry: edges restart from the def line, matching the
        # settrace backend's per-call prev initialisation.
        self._prev[code] = code.co_firstlineno
        return None

    def _on_line(self, code, line):
        if not self._scoped(code):
            return sys.monitoring.DISABLE
        code_id = self._code_ids.get(code)
        if code_id is None:
            code_id = _stable_code_id(code)
            self._code_ids[code] = code_id
        prev = self._prev.get(code, code.co_firstlineno)
        self._window.add(_edge_key(code_id, prev, line))
        self._prev[code] = line
        return None


def _make_backend(backend: str):
    if backend == "auto":
        module = _CtraceBackend.load()
        if module is not None:
            return _CtraceBackend(module)
        backend = "monitoring" if _MonitoringBackend.available() else "settrace"
    if backend == "ctrace":
        module = _CtraceBackend.load()
        if module is None:
            raise ValueError(
                "ctrace backend requested but the _bvf_ctrace extension "
                "could not be built or imported"
            )
        return _CtraceBackend(module)
    if backend == "monitoring":
        if not _MonitoringBackend.available():
            raise ValueError(
                "sys.monitoring backend requested but unavailable "
                f"on Python {sys.version_info.major}.{sys.version_info.minor}"
            )
        return _MonitoringBackend()
    if backend == "settrace":
        return _SettraceBackend()
    raise ValueError(f"unknown coverage backend {backend!r}")


class VerifierCoverage:
    """Accumulates edge coverage of the verifier across many runs."""

    def __init__(self, backend: str = "auto") -> None:
        #: all unique edges ever observed
        self.edges: set[int] = set()
        #: edges observed during the current collection window
        self._window: set[int] = set()
        #: edges the most recent window newly contributed
        self.last_new = 0
        self._backend = _make_backend(backend)
        self._collecting = False

    @property
    def backend_name(self) -> str:
        return self._backend.name

    # --- collection API ----------------------------------------------------------

    @contextmanager
    def collect(self):
        """Trace verifier execution inside the ``with`` block.

        Yields the per-window edge set; new edges are merged into the
        cumulative set on exit.  Nesting ``collect()`` raises
        :class:`CoverageReentryError` — a silent nested window would
        clobber the outer window and miscount ``last_new``.
        """
        if self._collecting:
            raise CoverageReentryError(
                "VerifierCoverage.collect() is not re-entrant: a "
                "collection window is already active on this instance"
            )
        self._collecting = True
        self._window = set()
        self._backend.start(self._window)
        try:
            yield self._window
        finally:
            self._backend.stop()
            self.last_new = len(self._window - self.edges)
            self.edges |= self._window
            self._collecting = False

    def replay(self, window: Iterable[int]) -> None:
        """Apply a previously recorded collection window without tracing.

        Updates ``last_new`` — the corpus feedback signal — and the
        cumulative edge set exactly as a :meth:`collect` block that
        traced the recorded edges would.  The benchmark's span tracer
        (``perfbench/spans.py``) wraps this method by name.
        """
        if self._collecting:
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
