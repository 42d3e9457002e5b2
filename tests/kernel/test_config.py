"""``smallest_fix``: the one attribution search both oracles share."""

from __future__ import annotations

from repro.kernel.config import smallest_fix


def search(facts, hits):
    """Run ``smallest_fix`` with a predicate true exactly on ``hits``;
    return its answer and every set it asked, in order."""
    asked = []

    def reproduces(subset):
        asked.append(subset)
        return subset in hits

    return smallest_fix(facts, reproduces), asked


def test_singletons_in_fact_order_first():
    found, asked = search("abc", {("b",)})
    assert found == ("b",)
    assert asked == [("a",), ("b",)]


def test_pairs_after_every_singleton_in_combinations_order():
    found, asked = search("abc", {("a", "c"), ("b", "c")})
    assert found == ("a", "c")
    assert asked == [("a",), ("b",), ("c",), ("a", "b"), ("a", "c")]


def test_a_singleton_beats_a_pair():
    found, asked = search("abc", {("a", "b"), ("c",)})
    assert found == ("c",)
    assert len(asked) == 3


def test_none_after_every_singleton_and_pair():
    found, asked = search("abc", {("a", "b", "c")})
    assert found is None
    assert asked == [("a",), ("b",), ("c",),
                     ("a", "b"), ("a", "c"), ("b", "c")]


def test_no_facts_asks_nothing():
    assert search([], set()) == (None, [])


def test_accepts_any_iterable_once():
    found, asked = search(iter("ab"), {("a", "b")})
    assert found == ("a", "b")
    assert asked == [("a",), ("b",), ("a", "b")]
