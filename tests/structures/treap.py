"""Ordered item-to-score map built on a treap: the test model of ScoreHeap.

The caches run :class:`~repro.structures.scoreheap.ScoreHeap`; this
straightforward tree set is the reference its property tests compare
against, operation by operation.

Section 6: Cafe Cache "replaces the linked list in xLRU Cache with a
binary tree set" because chunks are re-inserted with virtual-timestamp
keys that are *not* necessarily larger than all existing keys.  The
structure must support:

* insert an item with an arbitrary (float) key,
* look up an item's key through an accompanying hash map,
* retrieve/remove the entries with the smallest keys (least popular).

A treap (randomized balanced BST) gives O(log n) expected insert/remove
and O(log n) min retrieval; items are totally ordered by
``(key, sequence_number)`` so duplicate keys are fine and the order is
deterministic for a fixed insertion sequence and seed.
"""

from __future__ import annotations

import random
from typing import Generic, Hashable, Iterator, Optional, Tuple, TypeVar

T = TypeVar("T", bound=Hashable)

__all__ = ["TreapMap"]


class _Node:
    __slots__ = ("key", "item", "priority", "left", "right")

    def __init__(self, key: Tuple[float, int], item: object, priority: float):
        self.key = key
        self.item = item
        self.priority = priority
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None


def _merge(a: Optional[_Node], b: Optional[_Node]) -> Optional[_Node]:
    """Merge two treaps where every key in ``a`` < every key in ``b``."""
    if a is None:
        return b
    if b is None:
        return a
    if a.priority > b.priority:
        a.right = _merge(a.right, b)
        return a
    b.left = _merge(a, b.left)
    return b


def _split(
    node: Optional[_Node], key: Tuple[float, int]
) -> Tuple[Optional[_Node], Optional[_Node]]:
    """Split into (keys < key, keys >= key)."""
    if node is None:
        return None, None
    if node.key < key:
        left, right = _split(node.right, key)
        node.right = left
        return node, right
    left, right = _split(node.left, key)
    node.left = right
    return left, node


class TreapMap(Generic[T]):
    """Map of hashable items to float scores, ordered by ascending score.

    The smallest-scored items are the "least popular" end.  Each item
    appears at most once; re-inserting an item replaces its score.
    """

    __slots__ = ("_root", "_index", "_rng", "_seq")

    def __init__(self, seed: Optional[int] = 0) -> None:
        self._root: Optional[_Node] = None
        # item -> (score, seq) composite key currently in the tree
        self._index: dict[T, Tuple[float, int]] = {}
        self._rng = random.Random(seed)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, item: T) -> bool:
        return item in self._index

    def score(self, item: T) -> Optional[float]:
        """Return the item's current score, or None if absent."""
        entry = self._index.get(item)
        return entry[0] if entry is not None else None

    def insert(self, item: T, score: float) -> None:
        """Insert ``item`` with ``score``, replacing any previous entry."""
        if item in self._index:
            self._remove_key(self._index[item])
        key = (score, self._seq)
        self._seq += 1
        self._index[item] = key
        node = _Node(key, item, self._rng.random())
        left, right = _split(self._root, key)
        self._root = _merge(_merge(left, node), right)

    def remove(self, item: T) -> float:
        """Remove ``item`` and return its score. Raises KeyError if absent."""
        key = self._index.pop(item)
        self._remove_key(key)
        return key[0]

    def discard(self, item: T) -> bool:
        """Remove ``item`` if present; return whether it was present."""
        if item not in self._index:
            return False
        self.remove(item)
        return True

    def _remove_key(self, key: Tuple[float, int]) -> None:
        left, rest = _split(self._root, key)
        # Split off exactly the node with this key: keys are unique
        # composites, so the next key up is (key[0], key[1] + 1).
        mid, right = _split(rest, (key[0], key[1] + 1))
        assert mid is not None and mid.left is None and mid.right is None
        self._root = _merge(left, right)

    def min_item(self) -> Tuple[T, float]:
        """Return ``(item, score)`` with the smallest score.

        Raises KeyError when empty.
        """
        if self._root is None:
            raise KeyError("min_item() on empty TreapMap")
        node = self._root
        while node.left is not None:
            node = node.left
        return node.item, node.key[0]  # type: ignore[return-value]

    def pop_min(self) -> Tuple[T, float]:
        """Remove and return the ``(item, score)`` with the smallest score."""
        item, score = self.min_item()
        self.remove(item)
        return item, score

    def n_smallest(self, n: int, exclude: Optional[set] = None) -> list[Tuple[T, float]]:
        """Return up to ``n`` ``(item, score)`` pairs with the smallest
        scores, skipping items in ``exclude``, without removing them.

        Cafe Cache uses this to pick eviction candidates S'' while
        excluding the chunks of the request currently being considered.
        """
        if n <= 0:
            return []
        out: list[Tuple[T, float]] = []
        # Iterative in-order traversal, stop once we have n.
        stack: list[_Node] = []
        node = self._root
        while (node is not None or stack) and len(out) < n:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            if exclude is None or node.item not in exclude:
                out.append((node.item, node.key[0]))  # type: ignore[arg-type]
            node = node.right
        return out

    def items_ascending(self) -> Iterator[Tuple[T, float]]:
        """Iterate all ``(item, score)`` pairs in ascending score order."""
        stack: list[_Node] = []
        node = self._root
        while node is not None or stack:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.item, node.key[0]  # type: ignore[misc]
            node = node.right

    def check_invariants(self) -> None:
        """Validate BST-order and heap-priority invariants (for tests)."""

        def walk(node: Optional[_Node], lo, hi) -> int:
            if node is None:
                return 0
            assert lo is None or node.key > lo, "BST order violated"
            assert hi is None or node.key < hi, "BST order violated"
            for child in (node.left, node.right):
                if child is not None:
                    assert child.priority <= node.priority, "heap violated"
            return 1 + walk(node.left, lo, node.key) + walk(node.right, node.key, hi)

        count = walk(self._root, None, None)
        assert count == len(self._index), "index/tree size mismatch"
