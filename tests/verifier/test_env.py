"""Exploration-environment tests: state subsumption and pruning."""

from __future__ import annotations

import pytest

from repro.verifier.env import (
    LOOP_CAP,
    PRUNE_CAP,
    FuncFrame,
    VerifierEnv,
    VerifierState,
    states_equal,
)
from repro.verifier.log import VerifierLog
from repro.verifier.state import RegState, RegType


def fresh_state() -> VerifierState:
    return VerifierState(
        frames=[FuncFrame.entry(RegState.pointer(RegType.PTR_TO_CTX))]
    )


class TestStatesEqual:
    def test_identical_states(self):
        assert states_equal(fresh_state(), fresh_state())

    def test_not_init_subsumes_anything(self):
        old, new = fresh_state(), fresh_state()
        new.regs[3] = RegState.const_scalar(5)
        assert states_equal(old, new)

    def test_wider_scalar_subsumes_narrower(self):
        old, new = fresh_state(), fresh_state()
        old.regs[2] = RegState.unknown_scalar()
        new.regs[2] = RegState.const_scalar(5)
        assert states_equal(old, new)
        assert not states_equal(new, old)

    def test_pointer_type_must_match(self):
        old, new = fresh_state(), fresh_state()
        old.regs[2] = RegState.pointer(RegType.PTR_TO_STACK)
        new.regs[2] = RegState.pointer(RegType.PTR_TO_CTX)
        assert not states_equal(old, new)

    def test_pointer_offset_must_match(self):
        old, new = fresh_state(), fresh_state()
        old.regs[2] = RegState.pointer(RegType.PTR_TO_STACK)
        old.regs[2].off = -8
        new.regs[2] = RegState.pointer(RegType.PTR_TO_STACK)
        new.regs[2].off = -16
        assert not states_equal(old, new)

    def test_packet_range_direction(self):
        old, new = fresh_state(), fresh_state()
        old.regs[2] = RegState.pointer(RegType.PTR_TO_PACKET)
        old.regs[2].pkt_range = 8
        new.regs[2] = RegState.pointer(RegType.PTR_TO_PACKET)
        new.regs[2].pkt_range = 16
        # More verified range satisfies less; not vice versa.
        assert states_equal(old, new)
        assert not states_equal(new, old)

    def test_stack_constraints_checked(self):
        old, new = fresh_state(), fresh_state()
        old.stack.write_misc(-8, 8)
        # New state never wrote that slot: old's knowledge is missing.
        assert not states_equal(old, new)
        new.stack.write_misc(-8, 8)
        assert states_equal(old, new)

    def test_spill_subsumption(self):
        old, new = fresh_state(), fresh_state()
        old.stack.write_reg(-8, RegState.unknown_scalar())
        new.stack.write_reg(-8, RegState.const_scalar(3))
        assert states_equal(old, new)

    def test_refs_count_must_match(self):
        old, new = fresh_state(), fresh_state()
        new.refs[5] = 10
        assert not states_equal(old, new)

    def test_lock_state_must_match(self):
        old, new = fresh_state(), fresh_state()
        new.active_lock = (1, 2)
        assert not states_equal(old, new)

    def test_frame_count_must_match(self):
        old, new = fresh_state(), fresh_state()
        new.frames.append(FuncFrame.entry(RegState.not_init(), frameno=1,
                                          callsite=3))
        assert not states_equal(old, new)


class TestEnv:
    def _env(self):
        return VerifierEnv(VerifierLog(), complexity_limit=1000)

    def test_push_pop(self):
        env = self._env()
        assert env.pop_state() is None
        state = fresh_state()
        env.push_state(state)
        assert env.pop_state() is state
        assert env.pop_state() is None

    def test_is_visited_prunes_duplicates(self):
        env = self._env()
        first = fresh_state()
        assert not env.is_visited(first)
        second = fresh_state()
        assert env.is_visited(second)
        assert env.states_pruned == 1

    def test_different_indices_tracked_separately(self):
        env = self._env()
        a = fresh_state()
        b = fresh_state()
        b.insn_idx = 7
        assert not env.is_visited(a)
        assert not env.is_visited(b)

    def test_scan_hit_counted(self):
        env = self._env()
        old = fresh_state()
        old.regs[2] = RegState.unknown_scalar()
        assert not env.is_visited(old)
        new = fresh_state()
        new.regs[2] = RegState.const_scalar(5)
        assert env.is_visited(new)
        assert (env.prune_scan_hits, env.prune_misses) == (1, 1)

    @staticmethod
    def _distinct(i: int) -> VerifierState:
        """States no other ``_distinct(j)`` subsumes."""
        state = fresh_state()
        state.regs[2] = RegState.const_scalar(i)
        return state

    @pytest.mark.parametrize("seen, cap, explored", [
        ("is_visited", PRUNE_CAP, "explored"),
        ("loop_header_seen", LOOP_CAP, "loop_explored"),
    ])
    def test_eviction_drops_least_recent(self, seen, cap, explored):
        env = self._env()
        check = getattr(env, seen)
        for i in range(cap + 1):
            assert not check(self._distinct(i))
        assert env.prune_evictions == 1
        assert len(getattr(env, explored)[0]) == cap
        assert check(self._distinct(cap))
        # The first state was evicted: seeing it again is a miss.
        assert not check(self._distinct(0))
        assert env.prune_evictions == 2

    def test_hit_freshens_entry(self):
        env = self._env()
        for i in range(PRUNE_CAP):
            assert not env.is_visited(self._distinct(i))
        # A hit on the oldest state makes it the most recent, so the
        # next store evicts the second-oldest instead.
        assert env.is_visited(self._distinct(0))
        assert not env.is_visited(self._distinct(PRUNE_CAP))
        assert env.prune_evictions == 1
        assert env.is_visited(self._distinct(0))
        assert not env.is_visited(self._distinct(1))

    def test_id_allocator_monotonic(self):
        env = self._env()
        ids = [env.new_id() for _ in range(10)]
        assert ids == sorted(set(ids))

    def test_clone_isolates_states(self):
        state = fresh_state()
        state.refs[1] = 2
        copy = state.clone()
        copy.regs[0] = RegState.const_scalar(1)
        copy.refs[3] = 4
        assert state.regs[0].type == RegType.NOT_INIT
        assert 3 not in state.refs
