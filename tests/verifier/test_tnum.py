"""Tristate-number soundness properties.

The defining property of every tnum operation: if concrete values x, y
are contained in tnums A, B, then ``x <op> y`` must be contained in
``A <op> B``.  Hypothesis drives these over random (tnum, member)
pairs.
"""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from repro.verifier.tnum import (
    TNUM_UNKNOWN,
    TNUM_ZERO,
    Tnum,
    _mk,
    tnum_const,
    tnum_range,
)

U64 = (1 << 64) - 1


@st.composite
def tnum_with_member(draw):
    """A random tnum plus a concrete value it contains."""
    mask = draw(st.integers(min_value=0, max_value=U64))
    known = draw(st.integers(min_value=0, max_value=U64)) & ~mask
    member_bits = draw(st.integers(min_value=0, max_value=U64)) & mask
    return Tnum(known & U64, mask & U64), (known | member_bits) & U64


class TestInvariants:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            Tnum(0b11, 0b01)

    def test_const_properties(self):
        t = tnum_const(42)
        assert t.is_const()
        assert t.contains(42)
        assert not t.contains(43)
        assert t.min_value() == t.max_value() == 42

    def test_unknown_contains_everything(self):
        assert TNUM_UNKNOWN.contains(0)
        assert TNUM_UNKNOWN.contains(U64)
        assert TNUM_UNKNOWN.is_unknown()

    def test_zero(self):
        assert TNUM_ZERO.is_const()
        assert TNUM_ZERO.value == 0

    @given(tnum_with_member())
    def test_membership_consistent_with_minmax(self, tm):
        t, x = tm
        assert t.contains(x)
        assert t.min_value() <= x <= t.max_value()


class TestArithmeticSoundness:
    @given(tnum_with_member(), tnum_with_member())
    def test_add(self, a, b):
        (ta, x), (tb, y) = a, b
        assert ta.add(tb).contains((x + y) & U64)

    @given(tnum_with_member(), tnum_with_member())
    def test_sub(self, a, b):
        (ta, x), (tb, y) = a, b
        assert ta.sub(tb).contains((x - y) & U64)

    @given(tnum_with_member())
    def test_neg(self, a):
        ta, x = a
        assert ta.neg().contains((-x) & U64)

    @given(tnum_with_member(), tnum_with_member())
    def test_and(self, a, b):
        (ta, x), (tb, y) = a, b
        assert ta.and_(tb).contains(x & y)

    @given(tnum_with_member(), tnum_with_member())
    def test_or(self, a, b):
        (ta, x), (tb, y) = a, b
        assert ta.or_(tb).contains(x | y)

    @given(tnum_with_member(), tnum_with_member())
    def test_xor(self, a, b):
        (ta, x), (tb, y) = a, b
        assert ta.xor(tb).contains(x ^ y)

    @given(tnum_with_member(), tnum_with_member())
    def test_mul(self, a, b):
        (ta, x), (tb, y) = a, b
        assert ta.mul(tb).contains((x * y) & U64)

    @given(tnum_with_member(), st.integers(min_value=0, max_value=63))
    def test_lshift(self, a, shift):
        ta, x = a
        assert ta.lshift(shift).contains((x << shift) & U64)

    @given(tnum_with_member(), st.integers(min_value=0, max_value=63))
    def test_rshift(self, a, shift):
        ta, x = a
        assert ta.rshift(shift).contains(x >> shift)

    @given(tnum_with_member(), st.integers(min_value=0, max_value=63))
    def test_arshift64(self, a, shift):
        ta, x = a
        signed = x - (1 << 64) if x >= (1 << 63) else x
        assert ta.arshift(shift).contains((signed >> shift) & U64)


class TestSetOperations:
    @given(tnum_with_member(), tnum_with_member())
    def test_union_contains_both(self, a, b):
        (ta, x), (tb, y) = a, b
        u = ta.union(tb)
        assert u.contains(x)
        assert u.contains(y)

    @given(tnum_with_member())
    def test_intersect_with_unknown_is_identity_on_members(self, a):
        ta, x = a
        assert ta.intersect(TNUM_UNKNOWN).contains(x)

    @given(
        st.integers(min_value=0, max_value=U64),
        st.integers(min_value=0, max_value=U64),
        st.integers(min_value=0, max_value=U64),
    )
    def test_range_contains_interval(self, a, b, probe):
        lo, hi = min(a, b), max(a, b)
        t = tnum_range(lo, hi)
        value = lo + probe % (hi - lo + 1)
        assert t.contains(value)


class TestWidths:
    @given(tnum_with_member())
    def test_cast32(self, a):
        ta, x = a
        assert ta.cast(4).contains(x & 0xFFFFFFFF)

    @given(tnum_with_member())
    def test_subreg_roundtrip(self, a):
        ta, x = a
        rebuilt = ta.with_subreg(ta.subreg())
        assert rebuilt.contains(x)

    def test_subreg_const(self):
        t = tnum_const(0x1234_5678_9ABC_DEF0)
        assert t.subreg_is_const()
        assert t.const_subreg_val() == 0x9ABC_DEF0

    def test_clear_subreg(self):
        t = tnum_const(0x1234_5678_9ABC_DEF0).clear_subreg()
        assert t.contains(0x1234_5678_0000_0000)

    def test_alignment(self):
        assert tnum_const(16).is_aligned(8)
        assert not tnum_const(12).is_aligned(8)
        assert tnum_const(12).is_aligned(4)
        # Unknown low bits are not provably aligned.
        assert not Tnum(0, 0x7).is_aligned(8)
        assert Tnum(8, ~0xF & U64).is_aligned(8)


# ---------------------------------------------------------------------------
# Well-formedness preservation (Issue 6): every operation must return a
# tnum satisfying the representation invariant — value & mask == 0 and
# both fields within u64 — while still containing the concrete result.
# ``__post_init__`` hard-fails on broken construction, so a violation
# here would surface as ValueError; asserting the fields directly keeps
# the property explicit and catches any future bypass of the
# constructor.
# ---------------------------------------------------------------------------


def assert_wellformed(t: Tnum) -> None:
    assert t.value & t.mask == 0
    assert 0 <= t.value <= U64
    assert 0 <= t.mask <= U64


@st.composite
def tnum_pair_sharing_member(draw):
    """Two tnums that both contain the same concrete value (the
    precondition for ``intersect``)."""
    x = draw(st.integers(min_value=0, max_value=U64))
    mask_a = draw(st.integers(min_value=0, max_value=U64))
    mask_b = draw(st.integers(min_value=0, max_value=U64))
    return Tnum(x & ~mask_a & U64, mask_a), Tnum(x & ~mask_b & U64, mask_b), x


_BINARY_OPS = {
    "add": (Tnum.add, lambda x, y: (x + y) & U64),
    "sub": (Tnum.sub, lambda x, y: (x - y) & U64),
    "mul": (Tnum.mul, lambda x, y: (x * y) & U64),
    "and": (Tnum.and_, lambda x, y: x & y),
    "or": (Tnum.or_, lambda x, y: x | y),
    "xor": (Tnum.xor, lambda x, y: x ^ y),
}


class TestWellFormednessPreservation:
    @pytest.mark.parametrize("opname", sorted(_BINARY_OPS))
    @given(tnum_with_member(), tnum_with_member())
    def test_binary_ops(self, opname, a, b):
        op, concrete = _BINARY_OPS[opname]
        (ta, x), (tb, y) = a, b
        result = op(ta, tb)
        assert_wellformed(result)
        assert result.contains(concrete(x, y))

    @given(tnum_with_member())
    def test_neg(self, a):
        ta, x = a
        result = ta.neg()
        assert_wellformed(result)
        assert result.contains((-x) & U64)

    @pytest.mark.parametrize("shift", [0, 1, 31, 32, 63])
    @given(tnum_with_member())
    def test_shifts(self, shift, a):
        ta, x = a
        for result, concrete in (
            (ta.lshift(shift), (x << shift) & U64),
            (ta.rshift(shift), x >> shift),
        ):
            assert_wellformed(result)
            assert result.contains(concrete)

    @pytest.mark.parametrize("shift", [0, 1, 31, 63])
    @given(tnum_with_member())
    def test_arshift64(self, shift, a):
        ta, x = a
        signed = x - (1 << 64) if x >= (1 << 63) else x
        result = ta.arshift(shift, 64)
        assert_wellformed(result)
        assert result.contains((signed >> shift) & U64)

    @pytest.mark.parametrize("shift", [0, 1, 15, 31])
    @given(tnum_with_member())
    def test_arshift32(self, shift, a):
        ta, x = a
        x32 = x & 0xFFFFFFFF
        signed = x32 - (1 << 32) if x32 >= (1 << 31) else x32
        result = ta.arshift(shift, 32)
        assert_wellformed(result)
        assert result.contains((signed >> shift) & 0xFFFFFFFF)

    @given(tnum_with_member(), tnum_with_member())
    def test_union(self, a, b):
        (ta, x), (tb, y) = a, b
        result = ta.union(tb)
        assert_wellformed(result)
        assert result.contains(x)
        assert result.contains(y)

    @given(tnum_pair_sharing_member())
    def test_intersect(self, shared):
        ta, tb, x = shared
        result = ta.intersect(tb)
        assert_wellformed(result)
        assert result.contains(x)

    @given(tnum_with_member())
    def test_width_ops(self, a):
        ta, x = a
        for result, member in (
            (ta.cast(4), x & 0xFFFFFFFF),
            (ta.cast(2), x & 0xFFFF),
            (ta.cast(1), x & 0xFF),
            (ta.subreg(), x & 0xFFFFFFFF),
            (ta.clear_subreg(), x & ~0xFFFFFFFF & U64),
            (ta.with_subreg(ta.subreg()), x),
        ):
            assert_wellformed(result)
            assert result.contains(member)

    @given(tnum_with_member(), tnum_with_member())
    def test_range_from_minmax_wellformed(self, a, b):
        (ta, x), (tb, y) = a, b
        lo, hi = min(x, y), max(x, y)
        result = tnum_range(lo, hi)
        assert_wellformed(result)
        assert result.contains(lo)
        assert result.contains(hi)


@st.composite
def raw_tnum_ints(draw):
    """A valid raw ``(value, mask)`` pair, as the op kernels take it."""
    mask = draw(st.integers(min_value=0, max_value=U64))
    value = draw(st.integers(min_value=0, max_value=U64)) & ~mask
    return value & U64, mask & U64


class TestValueType:
    """``Tnum`` is a frozen, slotted value: the unchecked ``_mk`` the op
    kernels use must build exactly what checked construction builds."""

    def test_assignment_raises(self):
        t = tnum_const(5)
        with pytest.raises(FrozenInstanceError):
            t.value = 6
        with pytest.raises(FrozenInstanceError):
            t.mask = 0
        assert t == Tnum(5, 0)

    def test_slotted(self):
        assert not hasattr(tnum_const(5), "__dict__")
        assert not hasattr(TNUM_UNKNOWN.add(TNUM_ZERO), "__dict__")

    @pytest.mark.parametrize("value, mask", [
        (0b11, 0b01), (-1, 0), (0, U64 + 1), (U64 + 1, 0),
    ])
    def test_checked_construction_rejects(self, value, mask):
        with pytest.raises(ValueError):
            Tnum(value, mask)

    @given(raw_tnum_ints())
    def test_mk_equals_checked(self, pair):
        value, mask = pair
        made = _mk(value, mask)
        assert type(made) is Tnum
        assert made == Tnum(value, mask)
        assert hash(made) == hash(Tnum(value, mask))
        assert (made.value, made.mask) == (value, mask)

    @given(raw_tnum_ints(), raw_tnum_ints())
    def test_pickle_round_trip(self, a, b):
        for t in (Tnum(*a), Tnum(*a).add(Tnum(*b))):
            back = pickle.loads(pickle.dumps(t))
            assert back == t and type(back) is Tnum
            with pytest.raises(FrozenInstanceError):
                back.value = 0
