"""Low-level data structures backing the caching algorithms.

The paper (Sections 5 and 6) prescribes two container shapes:

* An access-recency list — a linked list of entries in sorted access-time
  order plus a hash map for O(1) lookup — used by the xLRU popularity
  tracker and the xLRU disk cache (:class:`AccessRecencyList`, backed by
  ``collections.OrderedDict``, which is that list plus map; a plain
  ``dict`` reads its oldest entry in O(deleted slots), not O(1)).
* A binary-tree set ordered by virtual-timestamp keys plus a hash map,
  used by Cafe Cache where re-insertions happen at arbitrary key
  positions.  :class:`ScoreHeap` provides that contract — the
  ``(key, insertion)`` order of a tree set — on a lazy-deletion heap.

It also prescribes per-chunk exponentially weighted moving-average
inter-arrival-time tracking (Eq. 8) with the virtual-timestamp key of
Eq. 9 (:mod:`repro.structures.ewma`).
"""

from repro.structures.ewma import (
    EwmaIat,
    IatEstimator,
    iat_at,
    virtual_key,
)
from repro.structures.lru import AccessRecencyList
from repro.structures.scoreheap import ScoreHeap

__all__ = [
    "AccessRecencyList",
    "ScoreHeap",
    "EwmaIat",
    "IatEstimator",
    "iat_at",
    "virtual_key",
]
