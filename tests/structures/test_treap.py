"""Unit and property tests for TreapMap (Cafe Cache's ordered set)."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.structures.treap import TreapMap


class TestBasics:
    def test_empty(self):
        t = TreapMap()
        assert len(t) == 0
        assert "x" not in t
        assert t.score("x") is None
        with pytest.raises(KeyError):
            t.min_item()

    def test_insert_and_score(self):
        t = TreapMap()
        t.insert("a", 3.0)
        t.insert("b", 1.0)
        assert t.score("a") == 3.0
        assert t.score("b") == 1.0
        assert len(t) == 2

    def test_min_item(self):
        t = TreapMap()
        t.insert("a", 3.0)
        t.insert("b", 1.0)
        t.insert("c", 2.0)
        assert t.min_item() == ("b", 1.0)

    def test_pop_min_order(self):
        t = TreapMap()
        for item, score in [("a", 3.0), ("b", 1.0), ("c", 2.0)]:
            t.insert(item, score)
        assert [t.pop_min()[0] for _ in range(3)] == ["b", "c", "a"]
        assert len(t) == 0

    def test_reinsert_replaces_score(self):
        t = TreapMap()
        t.insert("a", 1.0)
        t.insert("b", 2.0)
        t.insert("a", 5.0)  # a moves from least to most popular
        assert len(t) == 2
        assert t.min_item() == ("b", 2.0)
        assert t.score("a") == 5.0

    def test_remove(self):
        t = TreapMap()
        t.insert("a", 1.0)
        assert t.remove("a") == 1.0
        assert "a" not in t
        with pytest.raises(KeyError):
            t.remove("a")

    def test_discard(self):
        t = TreapMap()
        t.insert("a", 1.0)
        assert t.discard("a") is True
        assert t.discard("a") is False

    def test_duplicate_scores_fifo(self):
        t = TreapMap()
        t.insert("a", 1.0)
        t.insert("b", 1.0)
        # equal scores: earlier insertion pops first (sequence tiebreak)
        assert t.pop_min()[0] == "a"
        assert t.pop_min()[0] == "b"

    def test_negative_and_inf_scores(self):
        t = TreapMap()
        t.insert("low", float("-inf"))
        t.insert("mid", 0.0)
        t.insert("hi", float("inf"))
        assert t.min_item()[0] == "low"


class TestNSmallest:
    def setup_method(self):
        self.t = TreapMap()
        for i in range(10):
            self.t.insert(f"item{i}", float(i))

    def test_returns_n_smallest_in_order(self):
        got = self.t.n_smallest(3)
        assert got == [("item0", 0.0), ("item1", 1.0), ("item2", 2.0)]

    def test_does_not_remove(self):
        self.t.n_smallest(5)
        assert len(self.t) == 10

    def test_exclude_skips(self):
        got = self.t.n_smallest(3, exclude={"item0", "item2"})
        assert [item for item, _ in got] == ["item1", "item3", "item4"]

    def test_n_larger_than_size(self):
        assert len(self.t.n_smallest(99)) == 10

    def test_n_zero_or_negative(self):
        assert self.t.n_smallest(0) == []
        assert self.t.n_smallest(-1) == []

    def test_exclude_everything(self):
        assert self.t.n_smallest(3, exclude={f"item{i}" for i in range(10)}) == []


class TestIteration:
    def test_items_ascending(self):
        t = TreapMap()
        import random

        r = random.Random(7)
        scores = {i: r.uniform(-100, 100) for i in range(100)}
        for item, score in scores.items():
            t.insert(item, score)
        got = list(t.items_ascending())
        assert [s for _, s in got] == sorted(scores.values())
        assert len(got) == 100
        t.check_invariants()


@settings(max_examples=60)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "remove", "pop_min"]),
            st.integers(0, 15),
            st.floats(-100, 100, allow_nan=False),
        ),
        max_size=150,
    )
)
def test_property_matches_sorted_reference(ops):
    """TreapMap behaves like a dict + sorted-by-(score, seq) reference."""
    t = TreapMap(seed=42)
    model: dict[int, tuple[float, int]] = {}
    seq = 0
    for op, item, score in ops:
        if op == "insert":
            t.insert(item, score)
            model[item] = (score, seq)
            seq += 1
        elif op == "remove":
            if item in model:
                assert t.remove(item) == model.pop(item)[0]
            else:
                assert t.discard(item) is False
        else:  # pop_min
            if model:
                expected = min(model, key=lambda k: model[k])
                got_item, got_score = t.pop_min()
                assert got_item == expected
                assert got_score == model.pop(expected)[0]
            else:
                with pytest.raises(KeyError):
                    t.pop_min()
        assert len(t) == len(model)
    t.check_invariants()
    expected_order = sorted(model, key=lambda k: model[k])
    assert [item for item, _ in t.items_ascending()] == expected_order


@given(st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=100))
def test_property_pop_min_drains_sorted(scores):
    t = TreapMap()
    for i, s in enumerate(scores):
        t.insert(i, s)
    drained = [t.pop_min()[1] for _ in range(len(scores))]
    assert drained == sorted(scores)
