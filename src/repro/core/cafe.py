"""Cafe Cache: the Chunk-Aware, Fill-Efficient cache of Section 6.

Cafe aggregates popularity tracking and request admission at chunk
granularity.  For request ``R`` with requested chunk set ``S``, missing
subset ``S'`` and eviction candidates ``S''`` (the ``|S'|`` least
popular cached chunks), it serves or redirects by comparing expected
costs (Eqs. 6–7)::

    E[serve]    = |S'| * C_F + sum_{x in S''} T / IAT_x * min(C_F, C_R)
    E[redirect] = |S|  * C_R + sum_{x in S'}  T / IAT_x * min(C_F, C_R)

``T`` (how far ahead the IAT estimates are trusted) is the cache age —
the paper's choice, which "yielded highest efficiencies".  Inter-arrival
times are EWMA-tracked per chunk (Eq. 8, gamma = 0.25) and chunks are
ordered by the virtual-timestamp key of Eq. 9 in a binary-tree set
(Theorem 1 guarantees the order stays valid over time).

Two further paper details are implemented:

* **unseen-chunk IATs** — a chunk never seen before, from a video with
  chunks in the cache, inherits "the largest recorded IAT among the
  existing chunks" of that video;
* **history cleanup** — IAT records of chunks no longer cached ("ghost"
  records) are retained bounded by ``ghost_factor * disk_chunks`` and
  recycled in LRU order, mirroring "historic data ... is regularly
  cleaned up".  Without ghosts, an evicted-then-re-requested chunk would
  look first-seen and Cafe could never re-admit anything.

Implementation notes beyond the paper's text (documented substitutions):

* A chunk cache-filled with no IAT sample of its own (first fill) is
  seeded with the IAT estimate used in the admission decision so that
  its ordering key is finite; with no usable estimate at all it is
  seeded with the cache age (the natural borderline popularity).
* During warm-up (disk not full) the cache age — and therefore ``T`` —
  is unbounded, which makes the cache admit any content with request
  history while free space remains, consistent with xLRU's warm-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.base import (
    REDIRECT,
    SERVE_HIT,
    CacheResponse,
    Decision,
    VideoCache,
    serve_response,
)
from repro.core.costs import CostModel
from repro.structures.ewma import EwmaIat, IatEstimator
from repro.structures.lru import AccessRecencyList
from repro.structures.scoreheap import ScoreHeap
from repro.trace.requests import DEFAULT_CHUNK_BYTES, ChunkId, Request

__all__ = ["CafeCache", "DecisionExplanation"]

_INF = float("inf")

#: The paper's EWMA weight (Section 9: "gamma = 0.25 in this and other
#: experiments").
DEFAULT_GAMMA = 0.25


@dataclass(frozen=True)
class DecisionExplanation:
    """What :meth:`CafeCache.explain` reports about one request."""

    decision: Decision
    #: Eq. 6 expected serve cost (inf for oversized requests)
    cost_serve: float
    #: Eq. 7 expected redirect cost
    cost_redirect: float
    #: the horizon T used (cache age unless overridden)
    horizon: float
    missing: List = field(default_factory=list)
    victims: List = field(default_factory=list)
    #: IATs the redirect-side future terms used, per missing chunk
    missing_iats: Dict = field(default_factory=dict)
    #: IATs the serve-side eviction terms used, per victim chunk
    victim_iats: Dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        """``cost_redirect - cost_serve``: positive favours serving."""
        return self.cost_redirect - self.cost_serve


class CafeCache(VideoCache):
    """Chunk-aware, fill-efficient video cache (§6)."""

    name = "Cafe"

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
        gamma: float = DEFAULT_GAMMA,
        horizon: Optional[float] = None,
        ghost_factor: float = 4.0,
        use_video_iat_estimate: bool = True,
        treap_seed: int = 0,
    ) -> None:
        """``horizon``: fixed value for ``T``; None means cache age (the
        paper's choice).  ``use_video_iat_estimate`` toggles the
        unseen-chunk IAT optimization (for ablation).
        """
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        if ghost_factor < 0:
            raise ValueError(f"ghost_factor must be >= 0, got {ghost_factor}")
        if horizon is not None and horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self._stats: IatEstimator[ChunkId] = IatEstimator(gamma)
        self._cached: ScoreHeap[ChunkId] = ScoreHeap(seed=treap_seed)
        self._ghosts: AccessRecencyList[ChunkId] = AccessRecencyList()
        self._video_chunks: dict[int, set[int]] = {}
        self._horizon = horizon
        self._max_ghosts = int(ghost_factor * disk_chunks)
        self._use_video_estimate = use_video_iat_estimate

    # -- VideoCache interface ------------------------------------------------

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
        now = t
        probe = self.probe
        chunks = [(video, c) for c in range(c0, c1 + 1)]

        # Popularity tracking happens regardless of the decision (like
        # xLRU's tracker update before its admission test): fold the
        # access into each chunk's EWMA, then re-key cached chunks.
        stats = self._stats
        cached = self._cached
        ghosts = self._ghosts
        gamma = stats.gamma
        for chunk in chunks:
            state = stats.record(chunk, now)
            if chunk in cached:
                cached.insert(chunk, state.key(gamma))
            elif chunk in ghosts:
                ghosts.touch(chunk, now)

        if len(chunks) > self.disk_chunks:
            self._note_ghosts(chunks, now)
            if probe is not None:
                probe.on_redirect(now, "oversized")
            return REDIRECT

        missing = [c for c in chunks if c not in cached]
        if not missing:
            # Pure hit: serving costs 0, which can never lose.
            if probe is not None:
                probe.on_serve(now, 0, 0)
            return SERVE_HIT

        horizon = self._horizon if self._horizon is not None else self.cache_age(now)
        future_unit = self.cost_model.future_cost

        free = self.disk_chunks - len(cached)
        n_evict = max(0, len(missing) - free)
        victims = cached.n_smallest(n_evict, exclude=set(chunks))

        cost_serve = len(missing) * self.cost_model.fill_cost
        for chunk, _key in victims:
            cost_serve += _future_term(stats.iat(chunk, now), horizon) * future_unit

        cost_redirect = len(chunks) * self.cost_model.redirect_cost
        if probe is None:
            for chunk in missing:
                cost_redirect += _future_term(self._estimate_iat(chunk, now), horizon) * future_unit
        else:
            # Probe lane: identical arithmetic, but each estimate is
            # classified (own history / video fallback / cold) so the
            # IAT-estimator health counters reflect the decision path.
            for chunk in missing:
                iat, source = self._estimate_iat_traced(chunk, now)
                probe.on_iat_estimate(source)
                cost_redirect += _future_term(iat, horizon) * future_unit
            probe.on_margin(cost_redirect - cost_serve)

        if cost_serve > cost_redirect:
            self._note_ghosts(chunks, now)
            if probe is not None:
                probe.on_redirect(now, "cost")
            return REDIRECT

        for chunk, _key in victims:
            if probe is not None:
                probe.on_evict(now, chunk, stats[chunk].t_last)
            self._evict(chunk, now)
        for chunk in missing:
            self._admit(chunk, now)
        self._collect_ghosts()
        if probe is not None:
            for chunk in missing:
                probe.on_fill(now, chunk)
            probe.on_serve(now, len(missing), len(victims))
        return serve_response(len(missing), len(victims))

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def __len__(self) -> int:
        return len(self._cached)

    # -- Cafe specifics -------------------------------------------------------

    def explain(self, request: Request) -> "DecisionExplanation":
        """The Eqs. 6–7 cost breakdown for ``request`` — without acting.

        A dry run: the per-chunk EWMA updates that ``handle`` would
        apply are computed on copies, so the cache is untouched and the
        explained costs are exactly the ones ``handle`` would compare
        if called with this request right now.  Inspection/debug API.
        """
        now = request.t
        chunks = list(request.chunk_ids(self.chunk_bytes))

        # shadow the stats updates handle() would apply
        gamma = self._stats.gamma
        shadow: dict[ChunkId, EwmaIat] = {}
        for chunk in chunks:
            state = self._stats.get(chunk)
            if state is None:
                shadow[chunk] = EwmaIat(dt=_INF, t_last=now)
            else:
                clone = EwmaIat(dt=state.dt, t_last=state.t_last)
                clone.update(now, gamma)
                shadow[chunk] = clone

        def shadow_iat(chunk: ChunkId) -> float:
            if chunk in shadow:
                return shadow[chunk].iat(now, gamma)
            return self._stats.iat(chunk, now)

        def shadow_estimate(chunk: ChunkId) -> float:
            # _estimate_iat, but against post-update (shadow) sibling
            # stats — handle() records the whole request before
            # estimating, so the sibling keys it scans are fresh
            own = shadow_iat(chunk)
            if not math.isinf(own):
                return own
            if not self._use_video_estimate:
                return _INF
            siblings = self._video_chunks.get(chunk[0])
            if not siblings:
                return _INF
            best_key, best_iat = _INF, _INF
            for number in siblings:
                sibling = (chunk[0], number)
                if sibling in shadow:
                    key = shadow[sibling].key(gamma)
                    iat = shadow[sibling].iat(now, gamma)
                else:
                    key = self._stats.key(sibling)
                    iat = self._stats.iat(sibling, now)
                if key < best_key:
                    best_key, best_iat = key, iat
            return best_iat

        def shadow_cache_age() -> float:
            # handle() re-keys requested cached chunks before reading
            # the cache age; mirror that against the shadow states
            if len(self._cached) < self.disk_chunks:
                return _INF
            best_key = _INF
            best_iat = _INF
            top = self._cached.n_smallest(1, exclude=set(chunks))
            if top:
                item, key = top[0]
                best_key, best_iat = key, self._stats.iat(item, now)
            for chunk in chunks:
                if chunk in self._cached:
                    key = shadow[chunk].key(gamma)
                    if key < best_key:
                        best_key = key
                        best_iat = shadow[chunk].iat(now, gamma)
            return best_iat

        missing = [c for c in chunks if c not in self._cached]
        oversized = len(chunks) > self.disk_chunks
        if not missing or oversized:
            decision = Decision.REDIRECT if oversized else Decision.SERVE
            return DecisionExplanation(
                decision=decision,
                cost_serve=0.0 if not oversized else _INF,
                cost_redirect=len(chunks) * self.cost_model.redirect_cost,
                horizon=shadow_cache_age(),
                missing=missing,
                victims=[],
                missing_iats={c: shadow_iat(c) for c in missing},
            )

        horizon = (
            self._horizon if self._horizon is not None else shadow_cache_age()
        )
        future_unit = self.cost_model.future_cost
        free = self.disk_chunks - len(self._cached)
        n_evict = max(0, len(missing) - free)
        victims = self._cached.n_smallest(n_evict, exclude=set(chunks))

        cost_serve = len(missing) * self.cost_model.fill_cost
        victim_iats = {}
        for chunk, _key in victims:
            iat = shadow_iat(chunk)
            victim_iats[chunk] = iat
            cost_serve += _future_term(iat, horizon) * future_unit

        cost_redirect = len(chunks) * self.cost_model.redirect_cost
        missing_iats = {}
        for chunk in missing:
            iat = shadow_estimate(chunk)
            missing_iats[chunk] = iat
            cost_redirect += _future_term(iat, horizon) * future_unit

        decision = (
            Decision.SERVE if cost_serve <= cost_redirect else Decision.REDIRECT
        )
        return DecisionExplanation(
            decision=decision,
            cost_serve=cost_serve,
            cost_redirect=cost_redirect,
            horizon=horizon,
            missing=missing,
            victims=[chunk for chunk, _key in victims],
            missing_iats=missing_iats,
            victim_iats=victim_iats,
        )

    def cache_age(self, now: float) -> float:
        """The IAT of the least popular cached chunk; the horizon T.

        Section 5 models "the popularity of the least popular chunk on
        disk" as ``IAT_0 = CacheAge`` — in xLRU that IAT is literally
        ``now - t_oldest``, the cache age.  Cafe generalizes: the least
        popular chunk is the minimum-key one (Theorem 1 order), and its
        Eq. 8 IAT evaluated now is the horizon.  Unbounded while the
        disk is not full (warm-up), like xLRU.
        """
        if len(self._cached) < self.disk_chunks:
            return _INF
        item, _min_key = self._cached.min_item()
        return self._stats.iat(item, now)

    def chunk_iat(self, chunk: ChunkId, now: float) -> float:
        """The tracked Eq. 8 IAT of a chunk (inf if never seen twice)."""
        return self._stats.iat(chunk, now)

    @property
    def tracked_chunks(self) -> int:
        """Chunks with IAT state (cached + ghosts)."""
        return len(self._stats)

    @property
    def ghost_chunks(self) -> int:
        """Evicted/redirected chunks whose IAT history is retained."""
        return len(self._ghosts)

    def _estimate_iat(self, chunk: ChunkId, now: float) -> float:
        """IAT for a missing chunk: own history, else the video estimate.

        The video estimate is "the largest recorded IAT among the
        existing chunks" of the chunk's video (Section 6).  By
        Theorem 1, the largest-IAT cached chunk of a video is the one
        with the smallest virtual key, so a key scan suffices.
        """
        own = self._stats.iat(chunk, now)
        if not math.isinf(own):
            return own
        if not self._use_video_estimate:
            return _INF
        video = chunk[0]
        siblings = self._video_chunks.get(video)
        if not siblings:
            return _INF
        worst = min(
            ((video, c) for c in siblings),
            key=lambda ch: self._cached.score(ch),
        )
        return self._stats.iat(worst, now)

    def _estimate_iat_traced(self, chunk: ChunkId, now: float) -> tuple:
        """:meth:`_estimate_iat` plus the estimate's provenance.

        Returns ``(iat, source)`` with ``source`` one of ``"own"``,
        ``"video"`` (the unseen-chunk max-IAT fallback) or ``"cold"``.
        Kept separate from :meth:`_estimate_iat` so the probe-free hot
        path never allocates the tuple; the arithmetic is identical.
        """
        own = self._stats.iat(chunk, now)
        if not math.isinf(own):
            return own, "own"
        if not self._use_video_estimate:
            return _INF, "cold"
        video = chunk[0]
        siblings = self._video_chunks.get(video)
        if not siblings:
            return _INF, "cold"
        worst = min(
            ((video, c) for c in siblings),
            key=lambda ch: self._cached.score(ch),
        )
        iat = self._stats.iat(worst, now)
        return iat, ("video" if not math.isinf(iat) else "cold")

    def _admit(self, chunk: ChunkId, now: float) -> None:
        state = self._stats[chunk]
        if math.isinf(state.dt):
            # First fill with no IAT sample: seed with the estimate the
            # admission decision used, falling back to the cache age.
            seed = self._estimate_iat(chunk, now)
            if math.isinf(seed):
                seed = self.cache_age(now)
            if math.isinf(seed):
                seed = 1.0
            state.dt = seed
        self._cached.insert(chunk, state.key(self._stats.gamma))
        self._ghosts.discard(chunk)
        self._video_chunks.setdefault(chunk[0], set()).add(chunk[1])

    def _evict(self, chunk: ChunkId, now: float) -> None:
        self._cached.remove(chunk)
        siblings = self._video_chunks.get(chunk[0])
        if siblings is not None:
            siblings.discard(chunk[1])
            if not siblings:
                del self._video_chunks[chunk[0]]
        if self._max_ghosts > 0:
            self._ghosts.touch(chunk, now)
        else:
            del self._stats[chunk]

    def _note_ghosts(self, chunks: list[ChunkId], now: float) -> None:
        """Track redirected, uncached chunks as ghosts so their history
        survives until cleanup."""
        if self._max_ghosts <= 0:
            for chunk in chunks:
                if chunk not in self._cached:
                    self._stats.pop(chunk, None)
            return
        for chunk in chunks:
            if chunk not in self._cached and chunk not in self._ghosts:
                self._ghosts.touch(chunk, now)
        self._collect_ghosts()

    def _collect_ghosts(self) -> None:
        """Bound ghost history, recycling least recently seen records."""
        while len(self._ghosts) > self._max_ghosts:
            chunk, _t = self._ghosts.pop_oldest()
            self._stats.pop(chunk, None)


def _future_term(iat: float, horizon: float) -> float:
    """Expected future requests in the horizon: ``T / IAT`` (Eqs. 6–7).

    A chunk with no IAT (inf) contributes nothing even under an
    unbounded warm-up horizon; a chunk *with* history under an unbounded
    horizon contributes unboundedly (it will surely be requested again).
    An IAT of zero (same-timestamp repeats) means "maximally popular" —
    clamped so the term stays a large finite number.
    """
    if math.isinf(iat):
        return 0.0
    if math.isinf(horizon):
        return _INF
    return horizon / max(iat, 1e-9)
