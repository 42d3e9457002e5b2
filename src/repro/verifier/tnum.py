"""Tristate numbers — the verifier's bit-level abstract domain.

A tnum tracks, for each bit of a 64-bit value, whether it is known-0,
known-1, or unknown.  It is represented as ``(value, mask)`` where mask
bits are the unknown positions and ``value`` holds the known bits
(``value & mask == 0`` is the representation invariant).

This is a direct port of the kernel's ``kernel/bpf/tnum.c``; the
property-based tests assert the defining soundness condition for every
operation: if concrete ``x`` is in ``a`` and concrete ``y`` is in
``b``, then ``x <op> y`` is in ``tnum_<op>(a, b)``.

Representation
--------------

:class:`Tnum` is a frozen, slotted dataclass: two slots, no instance
``__dict__``, and assignment raises ``FrozenInstanceError``.  Checked
construction (``Tnum(value, mask)``) validates the invariant; the op
kernels below build their results through :func:`_mk`, which fills the
slots directly because each kernel establishes the invariant by its
arithmetic.  Every op recomputes its result.  A process-global memo of
the ops measured neutral end to end once tnums were slotted
(EXPERIMENTS.md, "Slotted value types"), and it made the campaign's
cache counters depend on what the process had run before.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Tnum",
    "TNUM_UNKNOWN",
    "TNUM_ZERO",
    "tnum_const",
    "tnum_range",
    "tnum_memo_stats",
]

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1


@dataclass(frozen=True, slots=True)
class Tnum:
    """A tristate number over 64 bits."""

    value: int
    mask: int

    def __post_init__(self) -> None:
        if self.value & self.mask:
            raise ValueError(
                f"broken tnum invariant: value={self.value:#x} mask={self.mask:#x}"
            )
        if not (0 <= self.value <= _U64 and 0 <= self.mask <= _U64):
            raise ValueError("tnum fields out of u64 range")

    # --- predicates --------------------------------------------------------

    def is_const(self) -> bool:
        """All 64 bits known."""
        return self.mask == 0

    def is_unknown(self) -> bool:
        """No bits known."""
        return self.mask == _U64

    def contains(self, value: int) -> bool:
        """Concrete ``value`` is a possible concretisation of this tnum."""
        value &= _U64
        return (value & ~self.mask) == self.value

    def is_aligned(self, size: int) -> bool:
        """The low ``log2(size)`` bits are known zero."""
        if size <= 1:
            return True
        return not ((self.value | self.mask) & (size - 1))

    # --- derived constants ----------------------------------------------------

    def min_value(self) -> int:
        """Smallest unsigned concretisation (unknown bits = 0)."""
        return self.value

    def max_value(self) -> int:
        """Largest unsigned concretisation (unknown bits = 1)."""
        return self.value | self.mask

    # --- arithmetic -------------------------------------------------------------

    def add(self, other: "Tnum") -> "Tnum":
        return _add(self.value, self.mask, other.value, other.mask)

    def sub(self, other: "Tnum") -> "Tnum":
        return _sub(self.value, self.mask, other.value, other.mask)

    def neg(self) -> "Tnum":
        return _sub(0, 0, self.value, self.mask)

    def and_(self, other: "Tnum") -> "Tnum":
        return _and(self.value, self.mask, other.value, other.mask)

    def or_(self, other: "Tnum") -> "Tnum":
        return _or(self.value, self.mask, other.value, other.mask)

    def xor(self, other: "Tnum") -> "Tnum":
        return _xor(self.value, self.mask, other.value, other.mask)

    def mul(self, other: "Tnum") -> "Tnum":
        """Kernel-style long multiplication over tnum halves.

        Sound but deliberately imprecise for large masks, like the
        kernel's ``tnum_mul``.
        """
        return _mul(self.value, self.mask, other.value, other.mask)

    def lshift(self, shift: int) -> "Tnum":
        return _lshift(self.value, self.mask, shift)

    def rshift(self, shift: int) -> "Tnum":
        return _rshift(self.value, self.mask, shift)

    def arshift(self, shift: int, insn_bitness: int = 64) -> "Tnum":
        """Arithmetic right shift at the given bitness."""
        return _arshift(self.value, self.mask, shift, insn_bitness)

    # --- set operations -----------------------------------------------------------

    def intersect(self, other: "Tnum") -> "Tnum":
        """Bits known in either (caller must know the sets overlap)."""
        return _intersect(self.value, self.mask, other.value, other.mask)

    def union(self, other: "Tnum") -> "Tnum":
        """Smallest tnum containing both operands' concretisations."""
        return _union(self.value, self.mask, other.value, other.mask)

    # --- width handling --------------------------------------------------------------

    def cast(self, size: int) -> "Tnum":
        """Truncate to ``size`` bytes (zero-extending semantics)."""
        bits = size * 8
        if bits >= 64:
            return self
        keep = (1 << bits) - 1
        return _mk(self.value & keep, self.mask & keep)

    def subreg(self) -> "Tnum":
        """The low 32 bits as a tnum."""
        return self.cast(4)

    def clear_subreg(self) -> "Tnum":
        """Zero out the low 32 bits."""
        return self.rshift(32).lshift(32)

    def with_subreg(self, subreg: "Tnum") -> "Tnum":
        """Replace the low 32 bits with ``subreg``."""
        return self.clear_subreg().or_(subreg.cast(4))

    def const_subreg_val(self) -> int:
        """Value of the low 32 bits (requires them to be known)."""
        return self.value & _U32

    def subreg_is_const(self) -> bool:
        return (self.mask & _U32) == 0

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_const():
            return f"{self.value:#x}"
        if self.is_unknown():
            return "?"
        return f"(v={self.value:#x} m={self.mask:#x})"


def _sext64(value: int) -> int:
    value &= _U64
    return value - (1 << 64) if value >= (1 << 63) else value


def _sext32(value: int) -> int:
    value &= _U32
    return value - (1 << 32) if value >= (1 << 31) else value


def _mk(value: int, mask: int) -> Tnum:
    """Construct a tnum whose invariant holds by construction.

    Every op kernel below already guarantees ``value & mask == 0`` and
    u64 range, so re-validating in ``__post_init__`` on the hot path
    would only re-prove what the arithmetic just established.  External
    construction still goes through the checked ``Tnum(...)`` path.
    The slots are filled through their member descriptors, which the
    frozen ``__setattr__`` does not intercept.
    """
    t = _new(Tnum)
    _set_value(t, value)
    _set_mask(t, mask)
    return t


_new = object.__new__
_set_value = Tnum.value.__set__
_set_mask = Tnum.mask.__set__


# --- op kernels ----------------------------------------------------------
#
# Kernels take raw (value, mask) ints, so a method passes its operands'
# fields without building intermediate tnums.

def _add(av: int, am: int, bv: int, bm: int) -> Tnum:
    sm = (am + bm) & _U64
    sv = (av + bv) & _U64
    sigma = (sm + sv) & _U64
    chi = sigma ^ sv
    mu = chi | am | bm
    return _mk(sv & ~mu & _U64, mu & _U64)


def _sub(av: int, am: int, bv: int, bm: int) -> Tnum:
    dv = (av - bv) & _U64
    alpha = (dv + am) & _U64
    beta = (dv - bm) & _U64
    chi = alpha ^ beta
    mu = chi | am | bm
    return _mk(dv & ~mu & _U64, mu & _U64)


def _and(av: int, am: int, bv: int, bm: int) -> Tnum:
    alpha = av | am
    beta = bv | bm
    v = av & bv
    return _mk(v, (alpha & beta & ~v) & _U64)


def _or(av: int, am: int, bv: int, bm: int) -> Tnum:
    v = av | bv
    mu = am | bm
    return _mk(v, (mu & ~v) & _U64)


def _xor(av: int, am: int, bv: int, bm: int) -> Tnum:
    v = av ^ bv
    mu = am | bm
    return _mk((v & ~mu) & _U64, mu & _U64)


def _mul(av: int, am: int, bv: int, bm: int) -> Tnum:
    acc_v = (av * bv) & _U64
    acc = TNUM_ZERO
    while av or am:
        if av & 1:
            acc = _add(acc.value, acc.mask, 0, bm)
        elif am & 1:
            acc = _add(acc.value, acc.mask, 0, (bv | bm) & _U64)
        av >>= 1
        am >>= 1
        bv = (bv << 1) & _U64
        bm = (bm << 1) & _U64
    return _add(acc_v, 0, acc.value, acc.mask)


def _lshift(v: int, m: int, shift: int) -> Tnum:
    shift &= 63
    return _mk((v << shift) & _U64, (m << shift) & _U64)


def _rshift(v: int, m: int, shift: int) -> Tnum:
    shift &= 63
    return _mk(v >> shift, m >> shift)


def _arshift(v: int, m: int, shift: int, insn_bitness: int) -> Tnum:
    shift &= insn_bitness - 1
    if insn_bitness == 32:
        value = _sext32(v & _U32) >> shift
        mask = _sext32(m & _U32) >> shift
        return _mk((value & _U32) & ~(mask & _U32), mask & _U32)
    value = _sext64(v) >> shift
    mask = _sext64(m) >> shift
    return _mk((value & _U64) & ~(mask & _U64), mask & _U64)


def _intersect(av: int, am: int, bv: int, bm: int) -> Tnum:
    v = av | bv
    mu = am & bm
    return _mk((v & ~mu) & _U64, mu & _U64)


def _union(av: int, am: int, bv: int, bm: int) -> Tnum:
    chi = (av ^ bv) | am | bm
    # Any differing or unknown bit becomes unknown.
    return _mk((av & ~chi) & _U64, chi & _U64)


def tnum_memo_stats() -> dict[str, int]:
    """Zero counters: tnum ops are not memoized.

    Kept only because perfbench's workloads import it.
    """
    return {"hits": 0, "misses": 0, "entries": 0}


TNUM_UNKNOWN = Tnum(0, _U64)
TNUM_ZERO = Tnum(0, 0)


def tnum_const(value: int) -> Tnum:
    """The tnum representing exactly ``value``."""
    return _mk(value & _U64, 0)


def tnum_range(lo: int, hi: int) -> Tnum:
    """Smallest tnum containing the unsigned range ``[lo, hi]``.

    Port of the kernel's ``tnum_range``: all bits above the highest
    differing bit are known, the rest unknown.
    """
    lo &= _U64
    hi &= _U64
    if lo > hi:
        return TNUM_UNKNOWN
    chi = lo ^ hi
    bits = chi.bit_length()
    if bits > 63:
        return TNUM_UNKNOWN
    delta = (1 << bits) - 1
    return _mk(lo & ~delta, delta)
