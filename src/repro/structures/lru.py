"""Access-recency list: the LRU building block of Section 5.

The paper describes the structure shared by the xLRU disk cache and the
video popularity tracker as "a linked list maintaining access times in
sorted order, and a hash map that maps keys to list entries", enabling:

* O(1) lookup of the access time of a key,
* O(1) retrieval of the cache age (time since the oldest access),
* O(1) removal of the oldest entries,
* O(1) insertion of entries at the list head.

Insertion with an access time smaller than the current head is not
possible (access times only move forward), which is what lets a plain
recency-ordered list stand in for a priority queue.

The backing store is :class:`collections.OrderedDict`, which is exactly
that list plus map: a C doubly linked list threaded through a hash
table, so ``next(iter(od))``, ``popitem(last=False)`` and
``move_to_end`` are all O(1).  A plain ``dict`` is not a substitute
even though it also iterates in insertion order: deleting a key leaves
a dummy slot that iteration steps over, and the slots are compacted
only when the table resizes.  An LRU deletes at the front and
re-inserts at the back, so the deleted prefix grows with the cache and
reading the oldest entry of a dict costs O(size), not O(1).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Iterator, Optional, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)

__all__ = ["AccessRecencyList"]


class AccessRecencyList(Generic[K]):
    """Recency-ordered map of keys to access times.

    Entries are ordered from least recently to most recently accessed.
    Access times must be non-decreasing across :meth:`touch` calls; the
    structure enforces this because its correctness (recency order ==
    access-time order) depends on it.
    """

    __slots__ = ("_entries", "_max_time")

    def __init__(self) -> None:
        self._entries: OrderedDict[K, float] = OrderedDict()
        self._max_time: float = float("-inf")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        """Iterate keys from least to most recently accessed."""
        return iter(self._entries)

    def touch(self, key: K, now: float) -> None:
        """Record an access of ``key`` at time ``now`` (moves it to the head).

        Raises ``ValueError`` if ``now`` is smaller than the most recent
        access time already recorded, since that would break the
        recency-order invariant.
        """
        if now < self._max_time:
            raise ValueError(
                f"access time {now} precedes current head time "
                f"{self._max_time}; access times must be non-decreasing"
            )
        self._max_time = now
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = now

    def touch_all(self, keys, now: float) -> None:
        """Record an access of every key in ``keys`` at time ``now``.

        The grouped form of :meth:`touch` for the batched decision
        kernels: one guard check and one bound method per *run* of
        touches instead of per key.  Keys end up most-recent in
        iteration order, exactly as successive ``touch(key, now)``
        calls would leave them.
        """
        if now < self._max_time:
            raise ValueError(
                f"access time {now} precedes current head time "
                f"{self._max_time}; access times must be non-decreasing"
            )
        self._max_time = now
        entries = self._entries
        move_to_end = entries.move_to_end
        for key in keys:
            if key in entries:
                move_to_end(key)
            entries[key] = now

    def pop_oldest_n(self, n: int) -> list[Tuple[K, float]]:
        """Remove and return the ``n`` least recently used entries.

        The epoch-batched eviction primitive: one call per eviction run
        rather than one :meth:`pop_oldest` per victim.  Returns the
        evicted ``(key, access_time)`` pairs oldest first; fewer than
        ``n`` when the list runs out.
        """
        entries = self._entries
        if n >= len(entries):
            evicted = list(entries.items())
            entries.clear()
            return evicted
        popitem = entries.popitem
        return [popitem(False) for _ in range(n)]

    def raw_entries(self) -> OrderedDict:
        """The backing ``OrderedDict``, for batched cache hot paths.

        The walks use its native O(1) operations: ``move_to_end`` then
        assignment to re-record a hit, ``popitem(last=False)`` to evict
        the oldest entry, ``next(iter(...))`` to read it.  Callers own
        the invariants while mutating it directly: access times must
        stay non-decreasing, and re-recording a present key must move
        it to the back (``move_to_end``, or ``pop`` and re-insert), as
        :meth:`touch` does — plain assignment alone leaves it in place.
        After a bulk update, call :meth:`advance_time` with the final
        access time so the guard in :meth:`touch` stays correct for
        later scalar use.
        """
        return self._entries

    def advance_time(self, now: float) -> None:
        """Fast-forward the recency guard after a bulk update at ``now``."""
        if now < self._max_time:
            raise ValueError(
                f"access time {now} precedes current head time "
                f"{self._max_time}; access times must be non-decreasing"
            )
        self._max_time = now

    def last_access(self, key: K) -> Optional[float]:
        """Return the last access time of ``key``, or None if untracked."""
        return self._entries.get(key)

    def oldest(self) -> Tuple[K, float]:
        """Return ``(key, access_time)`` of the least recently used entry.

        Raises ``KeyError`` when empty.
        """
        if not self._entries:
            raise KeyError("oldest() on empty AccessRecencyList")
        return next(iter(self._entries.items()))

    def pop_oldest(self) -> Tuple[K, float]:
        """Remove and return the least recently used ``(key, access_time)``.

        Raises ``KeyError`` when empty.
        """
        if not self._entries:
            raise KeyError("pop_oldest() on empty AccessRecencyList")
        return self._entries.popitem(last=False)

    def remove(self, key: K) -> float:
        """Remove ``key`` and return its access time.

        Raises ``KeyError`` if the key is not present.
        """
        return self._entries.pop(key)

    def discard(self, key: K) -> bool:
        """Remove ``key`` if present; return whether it was present."""
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def cache_age(self, now: float) -> float:
        """Time elapsed since the oldest tracked access.

        Returns ``inf`` when empty: an empty cache has unbounded age, so
        every admission test based on "younger than the cache age"
        passes — matching the warm-up behaviour of Section 5 where the
        disk is still filling.
        """
        if not self._entries:
            return float("inf")
        return now - next(iter(self._entries.values()))

    def evict_older_than(self, cutoff: float) -> list[Tuple[K, float]]:
        """Drop all entries whose access time is strictly below ``cutoff``.

        Returns the evicted ``(key, access_time)`` pairs, oldest first.
        This is the "historic data ... is regularly cleaned up" operation
        of Section 5 for the popularity tracker.
        """
        entries = self._entries
        values = entries.values
        popitem = entries.popitem
        evicted: list[Tuple[K, float]] = []
        while entries and next(iter(values())) < cutoff:
            evicted.append(popitem(False))
        return evicted

    def items(self) -> Iterator[Tuple[K, float]]:
        """Iterate ``(key, access_time)`` pairs, least recent first."""
        return iter(self._entries.items())
