"""Unit, property and differential tests for ScoreHeap.

ScoreHeap is the lazy-deletion heap that replaced TreapMap under the
decision kernels; its observable contract is *exact* ``(score, seq)``
order parity with the treap, plus two kernel-facing extensions:
``raw_index`` (stable read-only key dict) and ``pop_n_smallest`` (fused
eviction run).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.structures.scoreheap import ScoreHeap
from tests.structures.treap import TreapMap


class TestBasics:
    def test_empty(self):
        h = ScoreHeap()
        assert len(h) == 0
        assert "x" not in h
        assert h.score("x") is None
        with pytest.raises(KeyError):
            h.min_item()

    def test_insert_and_score(self):
        h = ScoreHeap()
        h.insert("a", 3.0)
        h.insert("b", 1.0)
        assert h.score("a") == 3.0
        assert h.score("b") == 1.0
        assert len(h) == 2

    def test_pop_min_order(self):
        h = ScoreHeap()
        for item, score in [("a", 3.0), ("b", 1.0), ("c", 2.0)]:
            h.insert(item, score)
        assert [h.pop_min()[0] for _ in range(3)] == ["b", "c", "a"]
        assert len(h) == 0

    def test_reinsert_replaces_score(self):
        h = ScoreHeap()
        h.insert("a", 1.0)
        h.insert("b", 2.0)
        h.insert("a", 5.0)
        assert len(h) == 2
        assert h.min_item() == ("b", 2.0)
        assert h.score("a") == 5.0

    def test_remove_and_discard(self):
        h = ScoreHeap()
        h.insert("a", 1.0)
        assert h.remove("a") == 1.0
        assert "a" not in h
        with pytest.raises(KeyError):
            h.remove("a")
        h.insert("a", 2.0)
        assert h.discard("a") is True
        assert h.discard("a") is False

    def test_duplicate_scores_fifo(self):
        h = ScoreHeap()
        h.insert("a", 1.0)
        h.insert("b", 1.0)
        assert h.pop_min()[0] == "a"
        assert h.pop_min()[0] == "b"

    def test_compaction_keeps_order(self):
        h = ScoreHeap()
        # churn one item enough to trip repeated compactions
        for i in range(200):
            h.insert("hot", float(i))
            h.insert(i, float(-i))
        h.check_invariants()
        drained = [h.pop_min() for _ in range(len(h))]
        assert drained[0] == (199, -199.0)
        assert drained[-1] == ("hot", 199.0)


class TestRawIndex:
    def test_maps_items_to_score_seq(self):
        h = ScoreHeap()
        h.insert("a", 3.0)
        h.insert("b", 1.0)
        h.insert("a", 5.0)
        assert h.raw_index() == {"a": (5.0, 2), "b": (1.0, 1)}

    def test_reference_is_stable_across_all_mutations(self):
        """A hoisted reference must survive churn and compaction —
        the kernels hoist it once per block."""
        h = ScoreHeap()
        index = h.raw_index()
        for i in range(300):
            h.insert(i % 9, float(i))
            if i % 4 == 3:
                h.pop_min()
            if i % 11 == 10:
                h.pop_n_smallest(2)
        assert h.raw_index() is index
        assert set(index) == {item for item, _ in h.items_ascending()}


class TestPopNSmallest:
    def fresh(self):
        h = ScoreHeap()
        for i in range(10):
            h.insert(f"item{i}", float(i))
        return h

    def test_removes_and_returns_in_order(self):
        h = self.fresh()
        got = h.pop_n_smallest(3)
        assert got == [("item0", 0.0), ("item1", 1.0), ("item2", 2.0)]
        assert len(h) == 7
        assert "item0" not in h
        h.check_invariants()

    def test_exclude_is_kept(self):
        h = self.fresh()
        got = h.pop_n_smallest(3, exclude={"item0", "item2"})
        assert [item for item, _ in got] == ["item1", "item3", "item4"]
        assert "item0" in h and "item2" in h
        assert len(h) == 7
        h.check_invariants()

    def test_n_larger_than_size_drains(self):
        h = self.fresh()
        assert len(h.pop_n_smallest(99)) == 10
        assert len(h) == 0

    def test_n_zero_or_negative(self):
        h = self.fresh()
        assert h.pop_n_smallest(0) == []
        assert h.pop_n_smallest(-1) == []
        assert len(h) == 10

    @settings(max_examples=60)
    @given(
        scores=st.lists(st.floats(-100, 100, allow_nan=False), max_size=40),
        n=st.integers(0, 12),
        exclude=st.sets(st.integers(0, 39), max_size=8),
    )
    def test_equals_n_smallest_then_remove(self, scores, n, exclude):
        """The fused eviction run picks exactly the victims that
        n_smallest + remove would, in the same order."""
        fused, split = ScoreHeap(), ScoreHeap()
        for i, s in enumerate(scores):
            fused.insert(i, s)
            split.insert(i, s)
        want = split.n_smallest(n, exclude=exclude)
        for item, _score in want:
            split.remove(item)
        got = fused.pop_n_smallest(n, exclude=exclude)
        assert got == want
        assert fused.raw_index() == split.raw_index()
        fused.check_invariants()
        split.check_invariants()


@settings(max_examples=60)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["insert", "remove", "pop_min", "n_smallest", "pop_n"]
            ),
            st.integers(0, 15),
            st.floats(-100, 100, allow_nan=False),
        ),
        max_size=150,
    )
)
def test_property_matches_treap(ops):
    """ScoreHeap is observably TreapMap under interleaved operations —
    same results, same (score, seq) eviction order, drop-in."""
    heap = ScoreHeap(seed=42)
    treap = TreapMap(seed=42)
    for op, item, score in ops:
        if op == "insert":
            heap.insert(item, score)
            treap.insert(item, score)
        elif op == "remove":
            assert heap.discard(item) == treap.discard(item)
        elif op == "pop_min":
            if len(treap):
                assert heap.pop_min() == treap.pop_min()
            else:
                with pytest.raises(KeyError):
                    heap.pop_min()
        elif op == "n_smallest":
            assert heap.n_smallest(item) == treap.n_smallest(item)
        else:  # pop_n: fused on the heap, n_smallest+remove on the treap
            want = treap.n_smallest(item % 4)
            for victim, _score in want:
                treap.remove(victim)
            assert heap.pop_n_smallest(item % 4) == want
        assert len(heap) == len(treap)
    heap.check_invariants()
    assert list(heap.items_ascending()) == list(treap.items_ascending())
