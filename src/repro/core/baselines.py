"""Classic caching baselines the paper positions itself against.

Section 2 argues that "standard caching solutions" — fetch every miss
from the backend and manage replacement only — cannot address the video
CDN problem because they lack the serve-vs-redirect decision and cannot
comply with a fill-to-redirect preference.  These reference
implementations make that argument measurable:

* :class:`PullThroughLruCache` — the standard Web-cache pattern: every
  miss is cache-filled, chunk replacement is LRU.  Its ingress is
  unbounded by design; at ``alpha_F2R > 1`` its efficiency collapses.
* :class:`LfuAdmissionCache` — frequency-flavoured variant (LFU
  replacement with periodic aging, admission after a minimum number of
  video hits), representative of the LFU/LRU-K family of Section 3.
* :class:`BeladyCache` — Belady's offline optimal *replacement* [5]:
  always serve, evict the chunk requested farthest in the future.  The
  optimal answer to the classic problem, and still not competitive with
  Psychic/Optimal on the CDN problem, because the classic problem is
  the wrong problem.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, Optional, Sequence

from repro.core import kernels
from repro.core.base import (
    REDIRECT,
    SERVE_HIT,
    CacheResponse,
    Decision,
    VideoCache,
    serve_response,
)
from repro.core.costs import CostModel
from repro.structures.lru import AccessRecencyList
from repro.structures.scoreheap import ScoreHeap
from repro.trace.requests import DEFAULT_CHUNK_BYTES, ChunkId, Request

__all__ = ["PullThroughLruCache", "LfuAdmissionCache", "BeladyCache"]

_INF = float("inf")


class PullThroughLruCache(VideoCache):
    """Fetch-on-miss LRU: the standard Web-proxy pattern (Section 2)."""

    name = "PullLRU"
    cost_sensitive = False  # always serves; never consults the cost model

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        self._disk: AccessRecencyList[ChunkId] = AccessRecencyList()

    def handle(self, request: Request) -> CacheResponse:
        k = self.chunk_bytes
        return self.handle_span(
            request.t,
            request.video,
            request.b0,
            request.b1,
            request.b0 // k,
            request.b1 // k,
        )

    def handle_span(
        self, t: float, video: int, b0: int, b1: int, c0: int, c1: int
    ) -> CacheResponse:
        if c1 - c0 + 1 > self.disk_chunks:
            return REDIRECT
        disk = self._disk
        touch = disk.touch
        missing = []
        for c in range(c0, c1 + 1):
            chunk = (video, c)
            if chunk in disk:
                touch(chunk, t)
            else:
                missing.append(chunk)
        if not missing:
            return SERVE_HIT
        evicted = 0
        free = self.disk_chunks - len(disk)
        for _ in range(len(missing) - free):
            disk.pop_oldest()
            evicted += 1
        for chunk in missing:
            touch(chunk, t)
        return serve_response(len(missing), evicted)

    def handle_span_block(self, ts, videos, b0s, b1s, c0s, c1s) -> list:
        # Hoisted block walk: native OrderedDict operations on the raw
        # recency list, no per-request method dispatch.  Observably
        # identical to handle_span element-wise (same probe/touch/evict
        # order), which the batched-lane equivalence tests enforce.
        disk_chunks = self.disk_chunks
        disk = self._disk
        entries = disk.raw_entries()
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        responses: list = []
        append = responses.append
        last_t = None
        for t, video, c0, c1 in zip(ts, videos, c0s, c1s):
            if c1 - c0 + 1 > disk_chunks:
                append(REDIRECT)
                continue
            last_t = t
            missing = None
            for c in range(c0, c1 + 1):
                chunk = (video, c)
                if chunk in entries:
                    move_to_end(chunk)
                    entries[chunk] = t
                elif missing is None:
                    missing = [chunk]
                else:
                    missing.append(chunk)
            if missing is None:
                append(SERVE_HIT)
                continue
            evicted = len(entries) + len(missing) - disk_chunks
            if evicted > 0:
                for _ in range(evicted):
                    popitem(False)
            else:
                evicted = 0
            for chunk in missing:
                entries[chunk] = t
            append(serve_response(len(missing), evicted))
        if last_t is not None:
            disk.advance_time(last_t)
        return responses

    def handle_span_block_kernel(self, block) -> "tuple[list, list]":
        """Residency pre-screen over one packed block.

        Two block-wide classifications from snapshots taken at block
        start:

        * **oversized** spans redirect with zero mutation;
        * spans **fully resident** at block start stay resident until
          the first in-block eviction (fills only add chunks), so until
          then a screened request is a guaranteed hit whose only
          mutation is the grouped LRU touch of its own chunks — the
          membership walk and fill/evict bookkeeping are skipped.  The
          first eviction demotes the remaining screened hits back to
          the scalar residue walk.

        Observably identical to :meth:`handle_span_block` (the fallback
        when the block is not vectorized).  PullLRU fires no probe
        hooks, so a probed block runs the same walk.
        """
        if not block.vectorized:
            return VideoCache.handle_span_block_kernel(self, block)
        disk_chunks = self.disk_chunks
        disk = self._disk
        entries = disk.raw_entries()
        move_to_end = entries.move_to_end
        popitem = entries.popitem

        uniq, _order, _starts = block.video_groups()
        arrays = kernels.residency_arrays(uniq, kernels.chunks_by_video(entries))
        sizes = block.c1s - block.c0s + 1
        counts = kernels.span_resident_counts(block, arrays)
        # 0 undecided, 1 redirect, 2 guaranteed hit
        screen = (counts == sizes).view(kernels._np.int8) * 2
        screen[sizes > disk_chunks] = 1
        screen_l = screen.tolist()

        responses: list = []
        append = responses.append
        misses: list = []
        miss = misses.append
        hits_valid = True
        # block index of the first eviction: screened hits from there on
        # are demoted to the residue walk
        demoted_at = block.n
        i = -1
        last_t = None
        for t, video, c0, c1, scr in zip(
            block.ts_l, block.videos_l, block.c0s_l, block.c1s_l, screen_l
        ):
            i += 1
            if scr == 1:
                append(REDIRECT)
                miss(i)
                continue
            last_t = t
            if scr == 2 and hits_valid:
                for c in range(c0, c1 + 1):
                    chunk = (video, c)
                    move_to_end(chunk)
                    entries[chunk] = t
                append(SERVE_HIT)
                continue
            missing = None
            for c in range(c0, c1 + 1):
                chunk = (video, c)
                if chunk in entries:
                    move_to_end(chunk)
                    entries[chunk] = t
                elif missing is None:
                    missing = [chunk]
                else:
                    missing.append(chunk)
            if missing is None:
                append(SERVE_HIT)
                continue
            evicted = len(entries) + len(missing) - disk_chunks
            if evicted > 0:
                if hits_valid:
                    hits_valid = False
                    demoted_at = i + 1
                for _ in range(evicted):
                    popitem(False)
            else:
                evicted = 0
            for chunk in missing:
                entries[chunk] = t
            append(serve_response(len(missing), evicted))
            miss(i)
        if last_t is not None:
            disk.advance_time(last_t)
        screened = int((screen == 1).sum()) + int((screen[:demoted_at] == 2).sum())
        return responses, misses, screened

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._disk

    def __len__(self) -> int:
        return len(self._disk)


class LfuAdmissionCache(VideoCache):
    """LFU replacement with hit-count admission and periodic aging.

    Admission: a video qualifies once it has been requested at least
    ``min_video_hits`` times (first-seen requests are redirected, like
    xLRU).  Replacement: evict the lowest-frequency chunk; frequencies
    are halved every ``aging_interval`` handled requests so stale
    popularity cannot pollute the cache forever (the paper's Section 3
    critique of frequency-based schemes).
    """

    name = "LFU"
    cost_sensitive = False  # admission/aging are frequency-only

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
        min_video_hits: int = 2,
        aging_interval: int = 10_000,
        treap_seed: int = 0,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        if min_video_hits < 1:
            raise ValueError(f"min_video_hits must be >= 1, got {min_video_hits}")
        if aging_interval < 1:
            raise ValueError(f"aging_interval must be >= 1, got {aging_interval}")
        self.min_video_hits = min_video_hits
        self.aging_interval = aging_interval
        self._video_hits: Counter = Counter()
        self._freq: Dict[ChunkId, float] = {}
        self._cached: ScoreHeap[ChunkId] = ScoreHeap(seed=treap_seed)
        self._handled = 0

    def handle(self, request: Request) -> CacheResponse:
        k = self.chunk_bytes
        return self.handle_span(
            request.t,
            request.video,
            request.b0,
            request.b1,
            request.b0 // k,
            request.b1 // k,
        )

    def handle_span(
        self, t: float, video: int, b0: int, b1: int, c0: int, c1: int
    ) -> CacheResponse:
        self._handled += 1
        if self._handled % self.aging_interval == 0:
            self._age()
        self._video_hits[video] += 1
        cached = self._cached
        freq = self._freq
        missing = []
        for c in range(c0, c1 + 1):
            chunk = (video, c)
            if chunk in cached:
                score = freq.get(chunk, 0.0) + 1.0
                freq[chunk] = score
                cached.insert(chunk, score)
            else:
                missing.append(chunk)

        if c1 - c0 + 1 > self.disk_chunks:
            return REDIRECT
        if self._video_hits[video] < self.min_video_hits:
            return REDIRECT

        if not missing:
            return SERVE_HIT
        evicted = 0
        free = self.disk_chunks - len(cached)
        need = len(missing) - free
        if need > 0:
            exclude = {(video, c) for c in range(c0, c1 + 1)}
            for chunk, _score in cached.pop_n_smallest(need, exclude=exclude):
                freq.pop(chunk, None)
                evicted += 1
        for chunk in missing:
            score = freq.get(chunk, 0.0) + 1.0
            freq[chunk] = score
            cached.insert(chunk, score)
        return serve_response(len(missing), evicted)

    def handle_span_block(self, ts, videos, b0s, b1s, c0s, c1s) -> list:
        # Hoisted block walk: the aging cadence, hit counter, frequency
        # dict and frequency-set internals bound once per block instead
        # of once per request.  Observably identical to handle_span
        # element-wise, which the batched-lane equivalence tests
        # enforce; membership runs against the ScoreHeap's live index
        # dict (read-only — mutations go through insert/remove).
        disk_chunks = self.disk_chunks
        min_hits = self.min_video_hits
        aging_interval = self.aging_interval
        handled = self._handled
        video_hits = self._video_hits
        cached = self._cached
        insert = cached.insert
        index = cached.raw_index()
        freq = self._freq
        get_freq = freq.get
        responses: list = []
        append = responses.append
        for t, video, c0, c1 in zip(ts, videos, c0s, c1s):
            handled += 1
            if handled % aging_interval == 0:
                self._handled = handled
                self._age()
            video_hits[video] += 1
            missing = None
            for c in range(c0, c1 + 1):
                chunk = (video, c)
                if chunk in index:
                    score = get_freq(chunk, 0.0) + 1.0
                    freq[chunk] = score
                    insert(chunk, score)
                elif missing is None:
                    missing = [chunk]
                else:
                    missing.append(chunk)
            if c1 - c0 + 1 > disk_chunks:
                append(REDIRECT)
                continue
            if video_hits[video] < min_hits:
                append(REDIRECT)
                continue
            if missing is None:
                append(SERVE_HIT)
                continue
            evicted = 0
            need = len(missing) - (disk_chunks - len(index))
            if need > 0:
                exclude = {(video, c) for c in range(c0, c1 + 1)}
                for chunk, _score in cached.pop_n_smallest(need, exclude=exclude):
                    freq.pop(chunk, None)
                    evicted += 1
            for chunk in missing:
                score = get_freq(chunk, 0.0) + 1.0
                freq[chunk] = score
                insert(chunk, score)
            append(serve_response(len(missing), evicted))
        self._handled = handled
        return responses

    def handle_span_block_kernel(self, block) -> "tuple[list, list]":
        """Unproven-video pre-screen over one packed block.

        A request is *provably* redirected with no per-chunk work when,
        at block start,

        * it is its video's first in-block occurrence (so no in-block
          hit raised the count),
        * the video's snapshot hit count ``s`` satisfies ``s + 1 <
          min_video_hits`` (aging only lowers counts, so the live test
          fails a fortiori), and
        * none of its span is resident (evictions only shrink a video's
          resident set, and its own fills can only happen at *later*
          occurrences), so the per-chunk re-key walk would do nothing.

        Such requests reduce to the counter bumps plus the interned
        REDIRECT; everything else walks the scalar hoisted path.
        Observably identical to :meth:`handle_span_block` (the fallback
        when the block is not vectorized).  The hand-fused LFU fires no
        probe hooks (its policy port LFU-PK does), so a probed block
        runs the same walk.
        """
        if not block.vectorized:
            return VideoCache.handle_span_block_kernel(self, block)
        cached = self._cached
        index = cached.raw_index()

        uniq, _order, _starts = block.video_groups()
        snap_hits = kernels.snapshot_counts(uniq, self._video_hits)
        arrays = kernels.residency_arrays(uniq, kernels.chunks_by_video(index))
        counts = kernels.span_resident_counts(block, arrays)
        inv = block.video_inverse()
        mask = (
            block.first_occurrence()
            & (snap_hits[inv] + 1 < self.min_video_hits)
            & (counts == 0)
        )
        screen = mask.tolist()

        disk_chunks = self.disk_chunks
        min_hits = self.min_video_hits
        aging_interval = self.aging_interval
        handled = self._handled
        video_hits = self._video_hits
        insert = cached.insert
        freq = self._freq
        get_freq = freq.get
        responses: list = []
        append = responses.append
        misses: list = []
        miss = misses.append
        i = -1
        for t, video, c0, c1, scr in zip(
            block.ts_l, block.videos_l, block.c0s_l, block.c1s_l, screen
        ):
            i += 1
            handled += 1
            if handled % aging_interval == 0:
                self._handled = handled
                self._age()
            video_hits[video] += 1
            if scr:
                append(REDIRECT)
                miss(i)
                continue
            missing = None
            for c in range(c0, c1 + 1):
                chunk = (video, c)
                if chunk in index:
                    score = get_freq(chunk, 0.0) + 1.0
                    freq[chunk] = score
                    insert(chunk, score)
                elif missing is None:
                    missing = [chunk]
                else:
                    missing.append(chunk)
            if c1 - c0 + 1 > disk_chunks:
                append(REDIRECT)
                miss(i)
                continue
            if video_hits[video] < min_hits:
                append(REDIRECT)
                miss(i)
                continue
            if missing is None:
                append(SERVE_HIT)
                continue
            evicted = 0
            need = len(missing) - (disk_chunks - len(index))
            if need > 0:
                exclude = {(video, c) for c in range(c0, c1 + 1)}
                for chunk, _score in cached.pop_n_smallest(need, exclude=exclude):
                    freq.pop(chunk, None)
                    evicted += 1
            for chunk in missing:
                score = get_freq(chunk, 0.0) + 1.0
                freq[chunk] = score
                insert(chunk, score)
            append(serve_response(len(missing), evicted))
            miss(i)
        self._handled = handled
        return responses, misses, int(mask.sum())

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def __len__(self) -> int:
        return len(self._cached)

    def _age(self) -> None:
        """Halve all frequencies and re-key the cached set.

        Re-keying keeps tree scores equal to the live frequencies, so a
        freshly incremented chunk compares correctly against aged ones.
        """
        for chunk in list(self._freq):
            self._freq[chunk] /= 2.0
            if chunk in self._cached:
                self._cached.insert(chunk, self._freq[chunk])
        for video in list(self._video_hits):
            self._video_hits[video] //= 2
            if self._video_hits[video] == 0:
                del self._video_hits[video]


class BeladyCache(VideoCache):
    """Belady's offline replacement [5]: always serve, evict farthest.

    The optimum for the *classic* caching problem (no redirect option);
    included to quantify how much the serve-vs-redirect decision itself
    is worth beyond perfect replacement.
    """

    name = "Belady"
    offline = True
    cost_sensitive = False  # always serves; evicts purely by next use

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
        treap_seed: int = 0,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        self._future: Dict[ChunkId, Deque[float]] = {}
        self._cached: ScoreHeap[ChunkId] = ScoreHeap(seed=treap_seed)
        self._prepared: Optional[Sequence[Request]] = None
        self._cursor = 0

    def prepare(self, requests: Sequence[Request]) -> None:
        self._future.clear()
        for r in requests:
            for chunk in r.chunk_ids(self.chunk_bytes):
                self._future.setdefault(chunk, deque()).append(r.t)
        self._prepared = requests
        self._cursor = 0

    def handle(self, request: Request) -> CacheResponse:
        if self._prepared is None:
            raise RuntimeError("BeladyCache.handle() before prepare()")
        if (
            self._cursor >= len(self._prepared)
            or self._prepared[self._cursor] != request
        ):
            raise RuntimeError(
                "requests must be replayed to BeladyCache in exactly the "
                "order given to prepare()"
            )
        self._cursor += 1

        chunks = list(request.chunk_ids(self.chunk_bytes))
        for chunk in chunks:
            queue = self._future.get(chunk)
            if queue:
                queue.popleft()
            if chunk in self._cached:
                self._cached.insert(chunk, self._eviction_key(chunk))

        if len(chunks) > self.disk_chunks:
            return REDIRECT

        missing = [c for c in chunks if c not in self._cached]
        evicted = 0
        need = len(missing) - (self.disk_chunks - len(self._cached))
        if need > 0:
            for chunk, _key in self._cached.n_smallest(need, exclude=set(chunks)):
                self._cached.remove(chunk)
                evicted += 1
        for chunk in missing:
            self._cached.insert(chunk, self._eviction_key(chunk))
        return CacheResponse(
            Decision.SERVE, filled_chunks=len(missing), evicted_chunks=evicted
        )

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def __len__(self) -> int:
        return len(self._cached)

    def _eviction_key(self, chunk: ChunkId) -> float:
        """Ascending key: never-requested-again first, then farthest."""
        queue = self._future.get(chunk)
        return -(queue[0] if queue else _INF)
