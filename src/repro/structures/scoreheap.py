"""Lazy-deletion binary heap with a tree set's observable semantics.

The ordered structures of the decision kernels (Cafe's virtual-timestamp
set, LFU's frequency set, LRU-K / GDS credit sets) were first built on a
treap whose ``(score, seq)`` composite key makes eviction order
deterministic for a fixed insertion sequence — a property the
verification oracles replicate and therefore part of the replayable
spec.  The treap paid for that order with pure-Python split/merge
recursion on every insert, which profiled as the dominant cost of the
packed replay lane; it now lives on only as the reference model of this
heap's tests (``tests/structures/treap.py``).

:class:`ScoreHeap` keeps the *exact* observable contract — the same
``(score, seq)`` total order, the same sequence-number assignment per
:meth:`insert`, the same API — on top of :mod:`heapq` (C-implemented)
with lazy deletion:

* ``insert``/``remove``/``discard`` are one dict operation plus at most
  one ``heappush``; superseded heap entries go *stale* and are dropped
  when they surface at the top or during compaction;
* ``min_item``/``pop_min`` pop stale entries off the top until a live
  one surfaces (amortized O(log n));
* ``n_smallest`` pops live entries into a buffer and pushes them back,
  discarding any stale entries it crosses;
* when stale entries outnumber live ones the heap is rebuilt from the
  live index (amortized O(1) per mutation).

Because every composite key is unique, heap order never compares items
themselves, so unhashable-score pathologies cannot arise and the order
is exactly the tree set's.  The ``seed`` argument is accepted for
drop-in compatibility; no randomness is needed (heap shape is not
observable).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Generic, Hashable, Iterator, Optional, Tuple, TypeVar

T = TypeVar("T", bound=Hashable)

__all__ = ["ScoreHeap"]


class ScoreHeap(Generic[T]):
    """Map of hashable items to float scores, ordered by ascending
    ``(score, insertion sequence)`` — observably a tree set with that
    composite key.
    """

    __slots__ = ("_heap", "_index", "_seq", "_stale")

    def __init__(self, seed: Optional[int] = 0) -> None:
        # (score, seq, item) entries; an entry is live iff the index
        # still maps item -> (score, seq).
        self._heap: list[Tuple[float, int, T]] = []
        # item -> (score, seq) composite key currently live
        self._index: dict[T, Tuple[float, int]] = {}
        self._seq = 0
        self._stale = 0

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, item: T) -> bool:
        return item in self._index

    def score(self, item: T) -> Optional[float]:
        """Return the item's current score, or None if absent."""
        entry = self._index.get(item)
        return entry[0] if entry is not None else None

    def raw_index(self) -> dict:
        """The live ``item -> (score, seq)`` key dict, for batched
        read-only membership and score probes in cache hot paths.

        Callers must not mutate it — all mutations go through
        :meth:`insert`/:meth:`remove`/:meth:`discard`.  The dict object
        itself is stable across every operation (compaction rebuilds
        only the heap), so a reference hoisted once per block stays
        valid for the whole block.
        """
        return self._index

    def insert(self, item: T, score: float) -> None:
        """Insert ``item`` with ``score``, replacing any previous entry."""
        index = self._index
        if item in index:
            self._stale += 1
        seq = self._seq
        self._seq = seq + 1
        index[item] = (score, seq)
        heappush(self._heap, (score, seq, item))
        if self._stale > len(index):
            self._compact()

    def remove(self, item: T) -> float:
        """Remove ``item`` and return its score. Raises KeyError if absent."""
        key = self._index.pop(item)
        self._stale += 1
        if self._stale > len(self._index):
            self._compact()
        return key[0]

    def discard(self, item: T) -> bool:
        """Remove ``item`` if present; return whether it was present."""
        if item not in self._index:
            return False
        self.remove(item)
        return True

    def _compact(self) -> None:
        """Rebuild the heap from the live index, dropping stale entries."""
        self._heap = [
            (score, seq, item) for item, (score, seq) in self._index.items()
        ]
        heapify(self._heap)
        self._stale = 0

    def _prune_top(self) -> None:
        """Pop stale entries until the top of the heap is live."""
        heap = self._heap
        index = self._index
        while heap:
            score, seq, item = heap[0]
            if index.get(item) == (score, seq):
                return
            heappop(heap)
            self._stale -= 1

    def min_item(self) -> Tuple[T, float]:
        """Return ``(item, score)`` with the smallest score.

        Raises KeyError when empty.
        """
        if not self._index:
            raise KeyError("min_item() on empty ScoreHeap")
        self._prune_top()
        score, _seq, item = self._heap[0]
        return item, score

    def pop_min(self) -> Tuple[T, float]:
        """Remove and return the ``(item, score)`` with the smallest score."""
        item, score = self.min_item()
        del self._index[item]
        heappop(self._heap)
        return item, score

    def n_smallest(self, n: int, exclude: Optional[set] = None) -> list[Tuple[T, float]]:
        """Return up to ``n`` ``(item, score)`` pairs with the smallest
        scores, skipping items in ``exclude``, without removing them.
        """
        if n <= 0:
            return []
        out: list[Tuple[T, float]] = []
        taken: list[Tuple[float, int, T]] = []
        heap = self._heap
        index = self._index
        while heap and len(out) < n:
            entry = heappop(heap)
            score, seq, item = entry
            if index.get(item) != (score, seq):
                self._stale -= 1
                continue
            taken.append(entry)
            if exclude is None or item not in exclude:
                out.append((item, score))
        for entry in taken:
            heappush(heap, entry)
        return out

    def pop_n_smallest(
        self, n: int, exclude: Optional[set] = None
    ) -> list[Tuple[T, float]]:
        """Remove and return up to ``n`` ``(item, score)`` pairs with the
        smallest scores, skipping (and keeping) items in ``exclude``.

        The fused form of an eviction run — ``n_smallest`` followed by
        ``remove`` of every returned item — selecting exactly the same
        victims in the same ``(score, seq)`` order, without pushing the
        victims back only to re-surface them as stale entries.
        """
        if n <= 0:
            return []
        out: list[Tuple[T, float]] = []
        kept: list[Tuple[float, int, T]] = []
        heap = self._heap
        index = self._index
        while heap and len(out) < n:
            entry = heappop(heap)
            score, seq, item = entry
            if index.get(item) != (score, seq):
                self._stale -= 1
                continue
            if exclude is not None and item in exclude:
                kept.append(entry)
                continue
            del index[item]
            out.append((item, score))
        for entry in kept:
            heappush(heap, entry)
        return out

    def items_ascending(self) -> Iterator[Tuple[T, float]]:
        """Iterate all ``(item, score)`` pairs in ascending score order."""
        for score, _seq, item in sorted(
            (score, seq, item) for item, (score, seq) in self._index.items()
        ):
            yield item, score

    def check_invariants(self) -> None:
        """Validate heap/index consistency (for tests)."""
        live = 0
        index = self._index
        seen: set = set()
        for score, seq, item in self._heap:
            if index.get(item) == (score, seq):
                live += 1
                assert item not in seen, "duplicate live entry"
                seen.add(item)
            assert seq < self._seq, "sequence counter behind heap entry"
        assert live == len(index), "index/heap live-entry mismatch"
        assert len(self._heap) == len(index) + self._stale, "stale count drift"
