"""Register-state and bounds-synchronisation tests."""

from __future__ import annotations

import pickle
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from repro.verifier.state import (
    RegState,
    RegType,
    S64_MAX,
    S64_MIN,
    U64_MAX,
    regs_equal_scalar_range,
    s64,
    u64,
)
from repro.verifier.tnum import Tnum, tnum_const

U64 = U64_MAX


class TestConstructors:
    def test_not_init(self):
        reg = RegState.not_init()
        assert reg.type == RegType.NOT_INIT
        assert not reg.is_scalar()
        assert not reg.is_pointer()

    def test_const_scalar(self):
        reg = RegState.const_scalar(-1)
        assert reg.is_const()
        assert reg.const_value() == U64
        assert reg.smin == reg.smax == -1
        assert reg.umin == reg.umax == U64

    def test_unknown_scalar(self):
        reg = RegState.unknown_scalar()
        assert reg.is_scalar()
        assert not reg.is_const()
        assert reg.umin == 0 and reg.umax == U64

    def test_pointer(self):
        reg = RegState.pointer(RegType.PTR_TO_STACK)
        assert reg.is_pointer()
        assert reg.var_off.is_const()
        assert reg.off == 0

    def test_maybe_null_types(self):
        assert RegState.pointer(RegType.PTR_TO_MAP_VALUE_OR_NULL).is_maybe_null()
        assert not RegState.pointer(RegType.PTR_TO_MAP_VALUE).is_maybe_null()
        assert not RegState.pointer(RegType.PTR_TO_BTF_ID).is_maybe_null()


class TestBoundsSync:
    def test_tnum_tightens_unsigned(self):
        reg = RegState.unknown_scalar()
        reg.var_off = tnum_const(0xF0).or_(Tnum(0, 0x0F))  # 0xF0..0xFF
        reg.sync_bounds()
        assert reg.umin == 0xF0
        assert reg.umax == 0xFF
        assert reg.smin == 0xF0 and reg.smax == 0xFF

    def test_unsigned_bounds_tighten_tnum(self):
        reg = RegState.unknown_scalar()
        reg.umax = 7
        reg.sync_bounds()
        assert reg.var_off.max_value() <= 7

    def test_negative_range(self):
        reg = RegState.unknown_scalar()
        reg.smin, reg.smax = -8, -1
        reg.sync_bounds()
        assert reg.umin == u64(-8)
        assert reg.umax == u64(-1)

    def test_sign_known_merges_ranges(self):
        reg = RegState.unknown_scalar()
        reg.smin, reg.smax = 0, 100
        reg.umin = 10
        reg.sync_bounds()
        assert reg.smin == 10
        assert reg.umax == 100

    @given(
        st.integers(min_value=0, max_value=U64),
        st.integers(min_value=0, max_value=U64),
    )
    def test_sync_preserves_members(self, a, b):
        """Any value inside both tnum and ranges stays inside after sync."""
        lo, hi = min(a, b), max(a, b)
        reg = RegState.unknown_scalar()
        reg.umin, reg.umax = lo, hi
        reg.sync_bounds()
        for probe in (lo, hi, (lo + hi) // 2):
            assert reg.umin <= probe <= reg.umax
            assert reg.var_off.contains(probe) or not reg.var_off.is_const()

    def test_broken_bounds(self):
        reg = RegState.unknown_scalar()
        reg.umin, reg.umax = 10, 5
        assert reg.is_bounds_broken()


class TestMutation:
    def test_mark_known(self):
        reg = RegState.pointer(RegType.PTR_TO_MAP_VALUE)
        reg.mark_known(7)
        assert reg.is_const() and reg.const_value() == 7
        assert reg.map is None

    def test_mark_unknown_clears_referents(self):
        reg = RegState.pointer(RegType.PTR_TO_MAP_VALUE)
        reg.map = object()
        reg.id = 3
        reg.mark_unknown()
        assert reg.is_scalar()
        assert reg.map is None and reg.id == 0

    def test_clone_independent(self):
        reg = RegState.const_scalar(1)
        copy = reg.clone()
        copy.mark_known(2)
        assert reg.const_value() == 1


class TestValueType:
    """``RegState`` is slotted, and its hot constructors and ``clone``
    fill the slots by hand: each must set every dataclass field."""

    def test_slotted(self):
        reg = RegState()
        assert not hasattr(reg, "__dict__")
        with pytest.raises(AttributeError):
            reg.not_a_field = 1

    def test_clone_copies_every_field(self):
        reg = RegState()
        # A distinct sentinel per field: a field clone() misses is
        # unset on the copy (AttributeError), a swapped one unequal.
        sentinels = {f.name: object() for f in fields(RegState)}
        for name, sentinel in sentinels.items():
            setattr(reg, name, sentinel)
        copy = reg.clone()
        for name, sentinel in sentinels.items():
            if name == "shared":
                assert copy.shared is False
            else:
                assert getattr(copy, name) is sentinel, name

    @pytest.mark.parametrize("make, expected", [
        (RegState.not_init, RegState()),
        (RegState.unknown_scalar, RegState(type=RegType.SCALAR)),
        (lambda: RegState.unknown_scalar(7),
         RegState(type=RegType.SCALAR, id=7)),
        (lambda: RegState.const_scalar(-1),
         RegState(type=RegType.SCALAR, var_off=tnum_const(U64),
                  smin=-1, smax=-1, umin=U64, umax=U64)),
    ])
    def test_constructors_set_every_field(self, make, expected):
        reg = make()
        for f in fields(RegState):
            assert getattr(reg, f.name) == getattr(expected, f.name), f.name

    @given(st.integers(min_value=-(1 << 63), max_value=U64))
    def test_const_scalar_matches_generated_init(self, value):
        assert RegState.const_scalar(value) == RegState(
            type=RegType.SCALAR, var_off=tnum_const(value),
            smin=s64(value), smax=s64(value),
            umin=u64(value), umax=u64(value))

    def test_pickle_round_trip(self):
        reg = RegState.pointer(RegType.PTR_TO_STACK, off=-8, id=3)
        reg.shared = True
        for original in (reg, RegState.const_scalar(-5),
                         RegState.not_init()):
            back = pickle.loads(pickle.dumps(original))
            assert back == original
            assert back.shared == original.shared


class TestSubsumption:
    def test_tighter_range_subsumed(self):
        old = RegState.unknown_scalar()
        old.umin, old.umax = 0, 100
        old.smin, old.smax = 0, 100
        old.sync_bounds()
        new = RegState.const_scalar(50)
        assert regs_equal_scalar_range(old, new)
        assert not regs_equal_scalar_range(new, old)

    def test_tnum_subset_required(self):
        old = RegState.unknown_scalar()
        old.var_off = Tnum(0, ~1 & U64)  # even numbers... (bit0 known 0)
        old.sync_bounds()
        odd = RegState.const_scalar(3)
        even = RegState.const_scalar(4)
        assert not regs_equal_scalar_range(old, odd)
        assert regs_equal_scalar_range(old, even)

    def test_identical_states_subsumed(self):
        a = RegState.unknown_scalar()
        b = RegState.unknown_scalar()
        assert regs_equal_scalar_range(a, b)


class TestHelpers:
    @given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_s64_u64_roundtrip(self, value):
        assert s64(u64(value)) == value

    def test_u32_bounds_narrow_value(self):
        reg = RegState.const_scalar(0x1_0000_0005)
        lo, hi = reg.u32_bounds()
        assert lo == hi == 5
