"""Verifier register state: types, bounds, and the sync machinery.

Each register is tracked in an abstract domain combining

- a :class:`~repro.verifier.tnum.Tnum` (bit-level knowledge), and
- 64-bit signed and unsigned interval bounds,

kept mutually consistent by :func:`RegState.sync_bounds`, a port of the
kernel's ``reg_bounds_sync`` (``__update_reg_bounds`` /
``__reg_deduce_bounds`` / ``__reg_bound_offset``).

Pointer registers additionally carry a *fixed* offset (``off``), with
any variable part folded into the scalar domain above, plus a referent
(map, BTF object, memory region) and an ``id`` used to refine all
copies of a nullable pointer at once when one copy is null-checked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.verifier.tnum import TNUM_UNKNOWN, Tnum, tnum_const, tnum_range

__all__ = ["RegType", "RegState", "U64_MAX", "S64_MAX", "S64_MIN"]

U64_MAX = (1 << 64) - 1
U32_MAX = (1 << 32) - 1
S64_MAX = (1 << 63) - 1
S64_MIN = -(1 << 63)
_SIGN_BIT = 1 << 63
_TWO64 = 1 << 64


def u64(value: int) -> int:
    return value & U64_MAX


def s64(value: int) -> int:
    value &= U64_MAX
    return value - (1 << 64) if value >= (1 << 63) else value


class RegType(enum.Enum):
    """Register state classes (mirroring ``enum bpf_reg_type``)."""

    NOT_INIT = "not_init"
    SCALAR = "scalar"
    PTR_TO_CTX = "ptr_to_ctx"
    PTR_TO_STACK = "ptr_to_stack"
    CONST_PTR_TO_MAP = "const_ptr_to_map"
    PTR_TO_MAP_VALUE = "ptr_to_map_value"
    PTR_TO_MAP_VALUE_OR_NULL = "ptr_to_map_value_or_null"
    PTR_TO_PACKET = "ptr_to_packet"
    PTR_TO_PACKET_END = "ptr_to_packet_end"
    PTR_TO_PACKET_META = "ptr_to_packet_meta"
    PTR_TO_BTF_ID = "ptr_to_btf_id"
    PTR_TO_MEM = "ptr_to_mem"
    PTR_TO_MEM_OR_NULL = "ptr_to_mem_or_null"


#: Types that may compare equal to NULL at runtime and therefore
#: require a null check before dereference.
MAYBE_NULL_TYPES = frozenset(
    {RegType.PTR_TO_MAP_VALUE_OR_NULL, RegType.PTR_TO_MEM_OR_NULL}
)

#: What a maybe-null type becomes once proven non-null.
NULL_RESOLVES_TO = {
    RegType.PTR_TO_MAP_VALUE_OR_NULL: RegType.PTR_TO_MAP_VALUE,
    RegType.PTR_TO_MEM_OR_NULL: RegType.PTR_TO_MEM,
}

#: Pointer types (everything except NOT_INIT and SCALAR).
POINTER_TYPES = frozenset(RegType) - {RegType.NOT_INIT, RegType.SCALAR}


@dataclass(slots=True)
class RegState:
    """Abstract state of one register."""

    type: RegType = RegType.NOT_INIT
    var_off: Tnum = TNUM_UNKNOWN
    smin: int = S64_MIN
    smax: int = S64_MAX
    umin: int = 0
    umax: int = U64_MAX
    #: fixed (compile-time known) offset for pointer types
    off: int = 0
    #: referent objects
    map: object | None = None
    btf: object | None = None  # BtfObject
    mem_size: int = 0
    #: verified readable range beyond off, for packet pointers
    pkt_range: int = 0
    #: identity for null-resolution and scalar-equality propagation
    id: int = 0
    #: reference identity for acquired objects (ringbuf records...);
    #: non-zero means the program owns a release obligation
    ref_obj_id: int = 0
    #: subprogram index for PTR_TO_FUNC-like uses (unused placeholder)
    subprog: int = 0
    #: copy-on-write marker: ``True`` while this record may be aliased
    #: by another verifier state (a forked branch, an explored-set
    #: snapshot, a spilled stack slot).  A shared record must never be
    #: mutated in place — writers go through ``FuncFrame.wreg`` /
    #: ``VerifierState.wreg``, which clone on first write.  Not part of
    #: the abstract value: excluded from comparison and repr.
    shared: bool = field(default=False, init=False, compare=False, repr=False)

    # --- constructors -----------------------------------------------------

    # The three hottest constructors fill the slots directly: the
    # generated ``__init__`` costs about twice as much.

    @classmethod
    def not_init(cls) -> "RegState":
        return _fresh(cls, RegType.NOT_INIT, TNUM_UNKNOWN,
                      S64_MIN, S64_MAX, 0, U64_MAX, 0)

    @classmethod
    def unknown_scalar(cls, id: int = 0) -> "RegState":
        return _fresh(cls, RegType.SCALAR, TNUM_UNKNOWN,
                      S64_MIN, S64_MAX, 0, U64_MAX, id)

    @classmethod
    def const_scalar(cls, value: int) -> "RegState":
        value &= U64_MAX
        signed = value - _TWO64 if value & _SIGN_BIT else value
        return _fresh(cls, RegType.SCALAR, tnum_const(value),
                      signed, signed, value, value, 0)

    @classmethod
    def pointer(cls, reg_type: RegType, **kwargs) -> "RegState":
        reg = cls(
            type=reg_type,
            var_off=tnum_const(0),
            smin=0,
            smax=0,
            umin=0,
            umax=0,
            **kwargs,
        )
        return reg

    # --- predicates ----------------------------------------------------------

    def is_pointer(self) -> bool:
        return self.type in POINTER_TYPES

    def is_scalar(self) -> bool:
        return self.type == RegType.SCALAR

    def is_maybe_null(self) -> bool:
        return self.type in MAYBE_NULL_TYPES

    def is_const(self) -> bool:
        """A scalar with one possible value."""
        return self.is_scalar() and self.var_off.is_const()

    def const_value(self) -> int:
        return self.var_off.value

    def is_pkt_pointer(self) -> bool:
        return self.type in (RegType.PTR_TO_PACKET, RegType.PTR_TO_PACKET_META)

    # --- mutation helpers ------------------------------------------------------

    def mark_unknown(self, id: int = 0) -> None:
        """Forget everything except scalar-ness."""
        self.type = RegType.SCALAR
        self.var_off = TNUM_UNKNOWN
        self.smin, self.smax = S64_MIN, S64_MAX
        self.umin, self.umax = 0, U64_MAX
        self.off = 0
        self.map = None
        self.btf = None
        self.mem_size = 0
        self.pkt_range = 0
        self.id = id
        self.ref_obj_id = 0

    def mark_known(self, value: int) -> None:
        value = u64(value)
        self.type = RegType.SCALAR
        self.var_off = tnum_const(value)
        self.umin = self.umax = value
        self.smin = self.smax = s64(value)
        self.off = 0
        self.map = None
        self.btf = None
        self.id = 0
        self.ref_obj_id = 0

    def clone(self) -> "RegState":
        """A private copy (``shared`` reset): one of the hottest calls
        in a campaign, so it copies the slots directly."""
        new = _new(RegState)
        new.type = self.type
        new.var_off = self.var_off
        new.smin = self.smin
        new.smax = self.smax
        new.umin = self.umin
        new.umax = self.umax
        new.off = self.off
        new.map = self.map
        new.btf = self.btf
        new.mem_size = self.mem_size
        new.pkt_range = self.pkt_range
        new.id = self.id
        new.ref_obj_id = self.ref_obj_id
        new.subprog = self.subprog
        new.shared = False
        return new

    # --- bounds synchronisation ---------------------------------------------------

    def _update_bounds(self) -> None:
        """tnum -> interval bounds (``__update_reg64_bounds``)."""
        var = self.var_off
        value, mask = var.value, var.mask
        smin = value | (mask & _SIGN_BIT)
        if smin & _SIGN_BIT:
            smin -= _TWO64
        smax = value | (mask & ~_SIGN_BIT)
        if smax & _SIGN_BIT:
            smax -= _TWO64
        if smin > self.smin:
            self.smin = smin
        if smax < self.smax:
            self.smax = smax
        if value > self.umin:
            self.umin = value
        if value | mask < self.umax:
            self.umax = value | mask

    def _deduce_bounds(self) -> None:
        """signed <-> unsigned cross-derivation (``__reg64_deduce_bounds``)."""
        smin, smax, umin, umax = self.smin, self.smax, self.umin, self.umax
        if smin >= 0 or smax < 0:
            # Sign is known: signed and unsigned ranges agree as u64.
            umin = max(umin, smin & U64_MAX)
            umax = min(umax, smax & U64_MAX)
            self.umin, self.umax = umin, umax
            self.smin, self.smax = s64(umin), s64(umax)
            return
        if s64(umax) >= 0:
            # Whole unsigned range is non-negative as signed; the old
            # smax (>= 0 here) is still a valid upper bound, so keep
            # whichever is tighter (kernel: min_t(u64, smax, umax)).
            smax = min(smax, s64(umax))
            self.smin = max(smin, umin)
            self.smax = smax
            self.umax = smax & U64_MAX
        elif s64(umin) < 0:
            # Whole unsigned range is negative as signed; the old smin
            # (< 0 here) still bounds from below (kernel: max_t(u64,
            # smin, umin) — comparing as u64 picks the tighter one).
            smin = max(smin, s64(umin))
            self.smin = smin
            self.smax = min(smax, s64(umax))
            self.umin = smin & U64_MAX

    def _bound_offset(self) -> None:
        """interval bounds -> tnum (``__reg_bound_offset``)."""
        self.var_off = self.var_off.intersect(tnum_range(self.umin, self.umax))

    def sync_bounds(self) -> None:
        """Make tnum and interval bounds mutually consistent."""
        self._update_bounds()
        self._deduce_bounds()
        self._bound_offset()
        self._update_bounds()

    def is_bounds_broken(self) -> bool:
        """Contradictory bounds indicate an impossible (dead) path."""
        return self.smin > self.smax or self.umin > self.umax

    # --- 32-bit views ---------------------------------------------------------------

    def u32_bounds(self) -> tuple[int, int]:
        """Unsigned bounds of the low 32 bits (conservative)."""
        if self.umax <= U32_MAX:
            return self.umin, self.umax
        sub = self.var_off.subreg()
        return sub.min_value(), sub.max_value()

    def fits_u32(self) -> bool:
        return self.umax <= U32_MAX

    # --- display -----------------------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.type == RegType.NOT_INIT:
            return "?"
        if self.is_scalar():
            if self.is_const():
                return f"{s64(self.const_value())}"
            return (
                f"scalar(umin={self.umin},umax={self.umax},"
                f"smin={self.smin},smax={self.smax},var={self.var_off})"
            )
        extra = []
        if self.off:
            extra.append(f"off={self.off}")
        if self.map is not None:
            extra.append("map")
        if self.id:
            extra.append(f"id={self.id}")
        if self.is_pkt_pointer():
            extra.append(f"range={self.pkt_range}")
        suffix = f"({','.join(extra)})" if extra else ""
        return f"{self.type.value}{suffix}"


_new = object.__new__


def _fresh(cls, reg_type: RegType, var_off: Tnum, smin: int, smax: int,
           umin: int, umax: int, id: int) -> RegState:
    """A non-pointer register with the given scalar domain and every
    other field at its default."""
    reg = _new(cls)
    reg.type = reg_type
    reg.var_off = var_off
    reg.smin = smin
    reg.smax = smax
    reg.umin = umin
    reg.umax = umax
    reg.off = 0
    reg.map = None
    reg.btf = None
    reg.mem_size = 0
    reg.pkt_range = 0
    reg.id = id
    reg.ref_obj_id = 0
    reg.subprog = 0
    reg.shared = False
    return reg


def regs_equal_scalar_range(old: RegState, new: RegState) -> bool:
    """True when ``new``'s scalar range is within ``old``'s (for pruning)."""
    if not (old.is_scalar() and new.is_scalar()):
        return False
    if not (
        old.umin <= new.umin
        and new.umax <= old.umax
        and old.smin <= new.smin
        and new.smax <= old.smax
    ):
        return False
    # tnum subset: every bit known in old must be known-and-equal in new.
    if new.var_off.mask & ~old.var_off.mask:
        return False
    return (new.var_off.value & ~old.var_off.mask) == old.var_off.value
