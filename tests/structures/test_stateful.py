"""Stateful (model-based) hypothesis tests for the core structures.

Hypothesis drives long interleaved operation sequences against a plain
reference model; every intermediate state must agree.  These catch the
ordering bugs unit tests miss — e.g. keys computed at different times
disagreeing about eviction order (the Theorem 1 pitfall).
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.structures.lru import AccessRecencyList
from tests.structures.treap import TreapMap

ITEMS = st.integers(0, 25)
SCORES = st.floats(-1e6, 1e6, allow_nan=False)


class TreapMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.treap = TreapMap(seed=123)
        self.model: dict[int, tuple[float, int]] = {}
        self.seq = 0

    @rule(item=ITEMS, score=SCORES)
    def insert(self, item, score):
        self.treap.insert(item, score)
        self.model[item] = (score, self.seq)
        self.seq += 1

    @rule(item=ITEMS)
    def discard(self, item):
        expected = item in self.model
        assert self.treap.discard(item) is expected
        self.model.pop(item, None)

    @precondition(lambda self: self.model)
    @rule()
    def pop_min(self):
        expected = min(self.model, key=lambda k: self.model[k])
        item, score = self.treap.pop_min()
        assert item == expected
        assert score == self.model.pop(expected)[0]

    @rule(n=st.integers(0, 8))
    def peek_n_smallest(self, n):
        got = self.treap.n_smallest(n)
        expected = sorted(self.model, key=lambda k: self.model[k])[:n]
        assert [item for item, _ in got] == expected

    @invariant()
    def sizes_agree(self):
        assert len(self.treap) == len(self.model)

    @invariant()
    def scores_agree(self):
        for item, (score, _seq) in self.model.items():
            assert self.treap.score(item) == score

    @invariant()
    def tree_is_valid(self):
        self.treap.check_invariants()


class RecencyMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.lru = AccessRecencyList()
        self.model: dict[int, float] = {}
        self.clock = 0.0

    @rule(item=ITEMS, advance=st.floats(0.0, 100.0, allow_nan=False))
    def touch(self, item, advance):
        self.clock += advance
        self.lru.touch(item, self.clock)
        self.model.pop(item, None)
        self.model[item] = self.clock

    @precondition(lambda self: self.model)
    @rule()
    def pop_oldest(self):
        expected_key = next(iter(self.model))
        key, t = self.lru.pop_oldest()
        assert key == expected_key
        assert t == self.model.pop(expected_key)

    @rule(item=ITEMS)
    def discard(self, item):
        expected = item in self.model
        assert self.lru.discard(item) is expected
        self.model.pop(item, None)

    @precondition(lambda self: self.model)
    @rule(back=st.floats(0.0, 200.0, allow_nan=False))
    def evict_older_than(self, back):
        cutoff = self.clock - back
        evicted = self.lru.evict_older_than(cutoff)
        expected = [(k, t) for k, t in self.model.items() if t < cutoff]
        assert evicted == expected
        for key, _t in evicted:
            del self.model[key]

    @rule(items=st.lists(ITEMS, max_size=6), advance=st.floats(0.0, 100.0))
    def touch_all(self, items, advance):
        self.clock += advance
        self.lru.touch_all(items, self.clock)
        for item in items:
            self.model.pop(item, None)
            self.model[item] = self.clock

    @rule(n=st.integers(0, 8))
    def pop_oldest_n(self, n):
        expected = list(self.model.items())[:n]
        assert self.lru.pop_oldest_n(n) == expected
        for key, _t in expected:
            del self.model[key]

    @rule(ahead=st.floats(0.0, 100.0))
    def oldest_and_cache_age(self, ahead):
        now = self.clock + ahead
        if not self.model:
            with pytest.raises(KeyError):
                self.lru.oldest()
            assert self.lru.cache_age(now) == float("inf")
            return
        key = next(iter(self.model))
        assert self.lru.oldest() == (key, self.model[key])
        assert self.lru.cache_age(now) == now - self.model[key]

    @rule(item=ITEMS)
    def remove(self, item):
        if item not in self.model:
            with pytest.raises(KeyError):
                self.lru.remove(item)
            return
        assert self.lru.remove(item) == self.model.pop(item)

    @rule(
        items=st.lists(ITEMS, min_size=1, max_size=6),
        capacity=st.integers(1, 12),
        advance=st.floats(0.0, 100.0),
    )
    def raw_walk(self, items, capacity, advance):
        """One request of the cache walks on the raw entries: hits move
        to the back, then the oldest entries are evicted down to
        ``capacity`` and the misses inserted, then the guard advances."""
        self.clock += advance
        t = self.clock
        raw = self.lru.raw_entries()
        missing = []
        for item in dict.fromkeys(items):
            if item in raw:
                raw.move_to_end(item)
                raw[item] = t
            else:
                missing.append(item)
        evict = max(0, len(raw) + len(missing) - capacity)
        victims = [raw.popitem(last=False) for _ in range(min(evict, len(raw)))]
        for item in missing:
            raw[item] = t
        self.lru.advance_time(t)

        for item in dict.fromkeys(items):
            if item in self.model:
                self.model.pop(item)
                self.model[item] = t
        expected = list(self.model.items())[: len(victims)]
        assert victims == expected
        for key, _t in expected:
            del self.model[key]
        for item in missing:
            self.model[item] = t
        with pytest.raises(ValueError, match="non-decreasing"):
            self.lru.touch(items[0], t - 1.0)

    @invariant()
    def order_and_lookups_agree(self):
        assert list(self.lru) == list(self.model)
        assert list(self.lru.items()) == list(self.model.items())
        for key, t in self.model.items():
            assert self.lru.last_access(key) == t


TestTreapStateful = TreapMachine.TestCase
TestTreapStateful.settings = settings(max_examples=40, stateful_step_count=60)

TestRecencyStateful = RecencyMachine.TestCase
TestRecencyStateful.settings = settings(max_examples=40, stateful_step_count=60)
