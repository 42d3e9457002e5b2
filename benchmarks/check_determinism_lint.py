"""Determinism lint: forbid nondeterminism sources in the invariant core.

Usage::

    python benchmarks/check_determinism_lint.py [--root src/repro]

The worker-count-invariance contract (``strip_wall(artifact)`` is
bit-identical for workers=1 vs N) only holds if the code that produces
invariant artifacts never consults a nondeterminism source.  This lint
walks the AST of every module in the invariant core — ``fuzz/``,
``obs/``, and ``analysis/`` — and fails CI on:

- ``time.time()`` — wall-clock reads belong in the structurally
  segregated ``wall`` sections; ``time.perf_counter`` /
  ``time.monotonic`` are permitted because every existing call site
  feeds a ``wall``-segregated field and new absolute-epoch reads are
  the regression this lint exists to catch;
- ``datetime.now()`` / ``datetime.utcnow()`` / ``datetime.today()`` —
  same hazard with a calendar attached;
- module-level ``random.*`` calls (``random.random``,
  ``random.randint``, ...) — these draw from the process-global,
  OS-seeded generator.  Constructing ``random.Random`` (the seeded
  class :class:`repro.fuzz.rng.FuzzRng` subclasses) is allowed;
- ``os.urandom`` / ``secrets.*`` / ``uuid.uuid4`` — OS entropy;
- iterating directly over a set expression (a set literal, a set
  comprehension, or a ``set(...)`` / ``frozenset(...)`` call) in a
  ``for`` statement or comprehension — set iteration order is
  hash-seed-dependent; wrap the expression in ``sorted(...)``.  The
  check is syntactic: it cannot see through a name bound to a set, so
  it catches the idiom at the point of construction, which is where
  review has found every past violation.

Sites that are genuinely wall-clock and already structurally
segregated are allowlisted below, keyed by ``(relative path, rule)``;
each entry carries the reason it is safe so the allowlist cannot
silently grow into a bypass.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: Directories (relative to --root) that must stay deterministic.
LINTED_DIRS = ("fuzz", "obs", "analysis")

#: (relative posix path, rule) -> why the site is allowed.
ALLOWLIST: dict[tuple[str, str], str] = {}

_DATETIME_NOW = {"now", "utcnow", "today"}
_SET_PRODUCERS = {"set", "frozenset"}


class Violation:
    def __init__(self, path: str, line: int, rule: str, detail: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.detail}"


def _dotted(node: ast.AST) -> str | None:
    """Render an Attribute/Name chain as 'a.b.c', else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        return name in _SET_PRODUCERS
    return False


class _Linter(ast.NodeVisitor):
    def __init__(self, rel_path: str):
        self.rel_path = rel_path
        self.violations: list[Violation] = []

    def _flag(self, node: ast.AST, rule: str, detail: str) -> None:
        if (self.rel_path, rule) in ALLOWLIST:
            return
        self.violations.append(
            Violation(self.rel_path, node.lineno, rule, detail))

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name:
            self._check_call(node, name)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, name: str) -> None:
        if name == "time.time":
            self._flag(node, "time.time",
                       "wall-clock read outside a segregated wall section")
        elif name.startswith("datetime.") and \
                name.split(".")[-1] in _DATETIME_NOW:
            self._flag(node, "datetime.now",
                       f"{name}() reads the wall clock")
        elif name == "os.urandom":
            self._flag(node, "os.urandom", "OS entropy source")
        elif name.startswith("secrets."):
            self._flag(node, "secrets", f"{name}() is OS entropy")
        elif name == "uuid.uuid4":
            self._flag(node, "uuid.uuid4", "random UUIDs are unseeded")
        elif name.startswith("random.") and name != "random.Random":
            self._flag(node, "unseeded-random",
                       f"{name}() uses the global OS-seeded generator; "
                       "use a seeded FuzzRng / random.Random instead")

    def _check_iter(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node):
            self._flag(iter_node, "set-iteration",
                       "iteration order over a set is hash-seed-"
                       "dependent; wrap in sorted(...)")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


def lint_file(path: Path, rel_path: str) -> list[Violation]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    linter = _Linter(rel_path)
    linter.visit(tree)
    return linter.violations


def lint_tree(root: Path) -> list[Violation]:
    violations: list[Violation] = []
    for directory in LINTED_DIRS:
        base = root / directory
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            violations.extend(lint_file(path, rel))
    return violations


def check_allowlist(root: Path) -> list[str]:
    """Allowlist entries whose file no longer exists are stale."""
    stale = []
    for (rel, rule), _reason in sorted(ALLOWLIST.items()):
        if not (root / rel).is_file():
            stale.append(f"allowlist entry for missing file: {rel} [{rule}]")
    return stale


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default="src/repro",
                        help="package root containing fuzz/, obs/, analysis/")
    args = parser.parse_args(argv)

    root = Path(args.root)
    if not root.is_dir():
        print(f"determinism lint: root {root} not found", file=sys.stderr)
        return 2

    problems = check_allowlist(root)
    violations = lint_tree(root)
    for violation in violations:
        print(f"determinism lint: {violation}", file=sys.stderr)
    for problem in problems:
        print(f"determinism lint: {problem}", file=sys.stderr)
    if violations or problems:
        print(f"determinism lint: {len(violations)} violation(s), "
              f"{len(problems)} stale allowlist entr(ies)", file=sys.stderr)
        return 1
    checked = sum(
        1 for d in LINTED_DIRS for _ in (root / d).rglob("*.py")
        if (root / d).is_dir()
    )
    print(f"determinism lint: OK ({checked} files, "
          f"{len(ALLOWLIST)} allowlisted site(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
