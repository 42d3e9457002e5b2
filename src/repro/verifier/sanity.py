"""Abstract-state invariant sanitizer for the verifier itself.

The paper sanitizes *generated programs* so that a wrongly-accepted
program crashes loudly at runtime.  :class:`VStateChecker` is the
static-analysis analogue pointed at the verifier's own tnum/range
domain: at every checkpoint where the verifier commits to an abstract
state — state prune, branch merge, helper return — it re-validates the
representation invariants the rest of the analysis silently assumes.
A violation means the verifier is reasoning from an impossible state;
every conclusion downstream of it (bounds checks, pruning decisions)
is unsound, exactly the over/under-approximation bug class the
differential oracle hunts for from the outside.

Checked invariants, per live register (and per spilled stack slot):

- ``INV_TNUM_WELLFORMED`` — tnum representation: ``value & mask == 0``
  and both fields within u64;
- ``INV_BOUNDS_DOMAIN`` — interval bounds live in their domains:
  ``0 <= umin/umax <= U64_MAX``, ``S64_MIN <= smin/smax <= S64_MAX``
  (Python ints are unbounded, so un-wrapped arithmetic shows up here);
- ``INV_BOUNDS_ORDER`` — ``umin <= umax`` and ``smin <= smax``;
- ``INV_BOUNDS_EMPTY`` — the signed and unsigned intervals describe a
  non-empty common set of concrete u64 values;
- ``INV_TNUM_RANGE_SYNC`` — tnum and unsigned interval agree:
  ``tnum.min <= umax`` and ``tnum.max >= umin``;
- ``INV_U32_BOUNDS`` — the derived u32 view is ordered and within
  ``[0, U32_MAX]``, and its subreg tnum agrees with it;
- ``INV_POINTER_OFFSET`` — pointer registers carry a sane fixed
  offset (``|off| < 2**31``, int-typed).

The checker raises :class:`~repro.errors.InvariantViolation`; message
text embeds the invariant code so :mod:`repro.obs.taxonomy` classifies
each violation to its own reason code.  It is a subscriber of the
verifier's event stream (:mod:`repro.obs.events`) that consumes only
``checkpoint`` events; ``Kernel.prog_load(check_invariants=True)``
adds one to that load's observer.
"""

from __future__ import annotations

from repro.errors import InvariantViolation
from repro.obs.events import Observer
from repro.verifier.state import RegState, RegType, S64_MAX, S64_MIN, U64_MAX

__all__ = ["VStateChecker", "INVARIANT_CODES"]

_U32_MAX = (1 << 32) - 1
#: Kernel pointer offsets are bounded (BPF_MAX_VAR_OFF and friends);
#: anything beyond +/-2^31 in the *fixed* part is a tracking bug.
_MAX_PTR_OFF = 1 << 31

INVARIANT_CODES = (
    "INV_TNUM_WELLFORMED",
    "INV_BOUNDS_DOMAIN",
    "INV_BOUNDS_ORDER",
    "INV_BOUNDS_EMPTY",
    "INV_TNUM_RANGE_SYNC",
    "INV_U32_BOUNDS",
    "INV_POINTER_OFFSET",
)


def _signed_unsigned_disjoint(reg: RegState) -> bool:
    """True when no concrete u64 value satisfies both interval views.

    The concrete sets are ``{x : umin <= x <= umax}`` and
    ``{x : smin <= s64(x) <= smax}``; the latter is ``[smin, smax]``
    shifted into u64 space — contiguous when the sign is known, a
    wrap-around pair of segments when ``smin < 0 <= smax``.
    """
    if reg.smin >= 0:
        # Signed set is [smin, smax] directly.
        return max(reg.umin, reg.smin) > min(reg.umax, reg.smax)
    if reg.smax < 0:
        # Signed set is [2^64+smin, 2^64+smax].
        lo = reg.smin + (1 << 64)
        hi = reg.smax + (1 << 64)
        return max(reg.umin, lo) > min(reg.umax, hi)
    # Sign unknown: signed set is [0, smax] u [2^64+smin, U64_MAX].
    return reg.umin > reg.smax and reg.umax < reg.smin + (1 << 64)


class VStateChecker(Observer):
    """Validates verifier abstract states at checkpoints.

    One checker instance serves one verification run;
    ``states_checked`` counts how many states it inspected (cheap
    sanity telemetry).
    """

    def __init__(self) -> None:
        self.states_checked = 0

    # ------------------------------------------------------------ entry --

    def checkpoint(self, site, idx, state) -> None:
        self.check_state(state, site, idx)

    def check_state(self, vstate, checkpoint: str, insn_idx: int) -> None:
        """Validate every live register and spilled slot of ``vstate``."""
        self.states_checked += 1
        for frame in vstate.frames:
            frameno = frame.frameno
            for regno, reg in enumerate(frame.regs):
                if reg.type is not RegType.NOT_INIT:
                    self._check_reg(reg, checkpoint, insn_idx, frameno, regno)
            for _slot_idx, slot in frame.stack.iter_slots():
                spilled = getattr(slot, "spilled", None)
                if spilled is not None and spilled.type is not RegType.NOT_INIT:
                    self._check_reg(spilled, checkpoint, insn_idx, frameno, -1)

    def check_reg(self, reg: RegState, checkpoint: str = "direct",
                  insn_idx: int = -1) -> None:
        """Validate a single register state (test/tooling entry point)."""
        self._check_reg(reg, checkpoint, insn_idx, -1, -1)

    # ----------------------------------------------------------- checks --

    def _check_reg(
        self,
        reg: RegState,
        checkpoint: str,
        insn_idx: int,
        frameno: int,
        regno: int,
    ) -> None:
        def fail(code: str, detail: str) -> None:
            raise InvariantViolation(
                code,
                detail,
                checkpoint=checkpoint,
                insn_idx=insn_idx,
                frameno=frameno,
                regno=regno,
            )

        var_off = reg.var_off
        if var_off.value & var_off.mask:
            fail(
                "INV_TNUM_WELLFORMED",
                f"tnum value={var_off.value:#x} overlaps mask={var_off.mask:#x}",
            )
        if not (0 <= var_off.value <= U64_MAX and 0 <= var_off.mask <= U64_MAX):
            fail(
                "INV_TNUM_WELLFORMED",
                f"tnum fields outside u64: value={var_off.value:#x} "
                f"mask={var_off.mask:#x}",
            )

        if not (0 <= reg.umin <= U64_MAX and 0 <= reg.umax <= U64_MAX):
            fail(
                "INV_BOUNDS_DOMAIN",
                f"unsigned bounds outside u64: umin={reg.umin} umax={reg.umax}",
            )
        if not (S64_MIN <= reg.smin <= S64_MAX and S64_MIN <= reg.smax <= S64_MAX):
            fail(
                "INV_BOUNDS_DOMAIN",
                f"signed bounds outside s64: smin={reg.smin} smax={reg.smax}",
            )

        if reg.umin > reg.umax:
            fail("INV_BOUNDS_ORDER", f"umin={reg.umin} > umax={reg.umax}")
        if reg.smin > reg.smax:
            fail("INV_BOUNDS_ORDER", f"smin={reg.smin} > smax={reg.smax}")

        if _signed_unsigned_disjoint(reg):
            fail(
                "INV_BOUNDS_EMPTY",
                f"signed [{reg.smin}, {reg.smax}] and unsigned "
                f"[{reg.umin}, {reg.umax}] share no concrete value",
            )

        if var_off.value > reg.umax or (var_off.value | var_off.mask) < reg.umin:
            fail(
                "INV_TNUM_RANGE_SYNC",
                f"tnum [{var_off.min_value()}, {var_off.max_value()}] "
                f"disagrees with unsigned [{reg.umin}, {reg.umax}]",
            )

        u32_lo, u32_hi = reg.u32_bounds()
        if not (0 <= u32_lo <= u32_hi <= _U32_MAX):
            fail(
                "INV_U32_BOUNDS",
                f"u32 view broken: [{u32_lo}, {u32_hi}]",
            )
        sub = var_off.subreg()
        if sub.min_value() > u32_hi or sub.max_value() < u32_lo:
            fail(
                "INV_U32_BOUNDS",
                f"subreg tnum [{sub.min_value()}, {sub.max_value()}] "
                f"disagrees with u32 view [{u32_lo}, {u32_hi}]",
            )

        if reg.is_pointer():
            if not isinstance(reg.off, int) or abs(reg.off) >= _MAX_PTR_OFF:
                fail(
                    "INV_POINTER_OFFSET",
                    f"pointer fixed offset {reg.off!r} out of range",
                )
