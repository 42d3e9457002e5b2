"""Verifier log buffer.

Mirrors the kernel's verifier log: a bounded text buffer accumulated
during analysis, returned to user space on both success and failure.
The fuzzer inspects rejection errnos (EACCES vs EINVAL) to reproduce
the paper's acceptance-rate breakdown, and bug triage reads the log to
locate the guilty instruction.
"""

from __future__ import annotations

__all__ = ["VerifierLog", "final_message"]


class VerifierLog:
    """Bounded accumulation of verifier messages."""

    def __init__(self, level: int = 1, limit: int = 1 << 20) -> None:
        self.level = level
        self.limit = limit
        self._parts: list[str] = []
        self._size = 0
        self.truncated = False

    def write(self, message: str) -> None:
        if self.level <= 0 or self.truncated:
            return
        if self._size + len(message) + 1 > self.limit:
            self.truncated = True
            return
        self._parts.append(message)
        self._size += len(message) + 1

    def insn(self, idx: int, text: str) -> None:
        """Log one instruction visit (level 2, like the kernel)."""
        if self.level >= 2:
            self.write(f"{idx}: {text}")

    def text(self) -> str:
        return "\n".join(self._parts)

    def __str__(self) -> str:
        return self.text()


def final_message(log_text: str) -> str:
    """Extract the rejection reason from a verifier log's tail.

    Skips trailing blank lines and strips the ``"{idx}: "`` prefix
    level-2 instruction traces carry, returning ``""`` for an empty
    log (callers then fall back to the exception's own message).
    """
    for line in reversed(log_text.splitlines()):
        line = line.strip()
        if not line:
            continue
        prefix, sep, rest = line.partition(": ")
        if sep and prefix.isdigit():
            return rest
        return line
    return ""
