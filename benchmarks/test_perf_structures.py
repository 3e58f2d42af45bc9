"""Throughput benches for the low-level data structures.

These are real pytest-benchmark measurements (multiple rounds): the
paper's structures promise O(1) recency-list operations and O(log n)
ordered-set operations (``ScoreHeap``, the set under Cafe, LFU, LRU-K
and GDS), and the caches' request rates bottleneck on them.
"""

import random
import time

from repro.structures.ewma import IatEstimator
from repro.structures.lru import AccessRecencyList
from repro.structures.scoreheap import ScoreHeap

N = 10_000


def test_lru_touch_churn(benchmark):
    """touch() over a working set with constant churn."""
    keys = list(range(N))

    def run():
        lru = AccessRecencyList()
        t = 0.0
        for key in keys:
            lru.touch(key % 2048, t)
            t += 1.0
        return lru

    lru = benchmark(run)
    assert len(lru) <= 2048


def test_lru_pop_oldest(benchmark):
    def setup():
        lru = AccessRecencyList()
        for i in range(N):
            lru.touch(i, float(i))
        return (lru,), {}

    def run(lru):
        while lru:
            lru.pop_oldest()

    benchmark.pedantic(run, setup=setup, rounds=10)


def _churn_seconds(size: int, keys: list) -> float:
    """Time one LRU churn pass at ``size`` entries: touch each key,
    evicting the oldest entry on a miss."""
    lru = AccessRecencyList()
    for key in range(size):
        lru.touch(key, 0.0)
    touch, pop_oldest = lru.touch, lru.pop_oldest
    start = time.perf_counter()
    t = 1.0
    for key in keys:
        if key not in lru:
            pop_oldest()
        touch(key, t)
        t += 1.0
    elapsed = time.perf_counter() - start
    assert len(lru) == size
    return elapsed


def test_lru_churn_scaling():
    """O(1) head: churn per operation at 100k entries stays within 3x of
    1k entries.  Keys come from a universe twice the size, so about
    half the touches evict.  The two sizes are timed alternately, best
    of five, so both see the same machine load.  A plain
    insertion-ordered dict fails this: reading its oldest key steps
    over the deleted slots evictions leave at the front, so the cost
    grows with the size."""
    ops = 200_000
    sizes = (1_000, 100_000)
    keys = {}
    for n in sizes:
        rng = random.Random(n)
        keys[n] = [rng.randrange(2 * n) for _ in range(ops)]
    best = {n: float("inf") for n in sizes}
    for _ in range(5):
        for n in sizes:
            best[n] = min(best[n], _churn_seconds(n, keys[n]) / ops)
    small, large = best[1_000], best[100_000]
    assert large <= 3.0 * small, (
        f"churn at 100k entries {large * 1e9:.0f} ns/op is "
        f"{large / small:.1f}x the 1k cost {small * 1e9:.0f} ns/op"
    )


def test_scoreheap_insert_remove_mixed(benchmark):
    """The Cafe access pattern: re-key hot items, evict cold ones.

    Four in five requests go to a hot eighth of the items.  Keys grow
    with request time, as Cafe's Eq. 9 keys do on a hit (Theorem 1), so
    every re-key raises the item's key.
    """
    rng = random.Random(7)
    ops = [
        (rng.randrange(512) if rng.random() < 0.8 else rng.randrange(4096),
         i + rng.random())
        for i in range(N)
    ]

    def run():
        heap = ScoreHeap()
        for item, score in ops:
            heap.insert(item, score)
            if len(heap) > 2048:
                heap.pop_min()
        return heap

    heap = benchmark(run)
    assert len(heap) <= 2048


def test_scoreheap_n_smallest(benchmark):
    heap = ScoreHeap()
    rng = random.Random(8)
    for i in range(N):
        heap.insert(i, rng.random())

    result = benchmark(heap.n_smallest, 16)
    assert len(result) == 16


def test_ewma_record_and_key(benchmark):
    """Per-request stats updates: one record + key per chunk."""
    items = [(i % 4096) for i in range(N)]

    def run():
        est = IatEstimator(0.25)
        t = 0.0
        for item in items:
            est.record(item, t)
            est.key(item)
            t += 0.5
        return est

    est = benchmark(run)
    assert len(est) == 4096
