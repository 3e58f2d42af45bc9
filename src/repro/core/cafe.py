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
ordered by the virtual-timestamp key of Eq. 9 (Theorem 1 guarantees
the order stays valid over time).  The paper keeps them in a binary-tree
set; here it is a :class:`~repro.structures.scoreheap.ScoreHeap`, a
lazy-deletion heap with the same ``(key, insertion)`` order.

Every lane runs one decision path, :meth:`CafeCache._walk`: the packed
sweep and fleet lanes call it per block through ``handle_span_block``,
the object lane and ``repro-serve`` per request through ``handle_span``
(a 1-element block), and a telemetry probe's hooks fire inside it.

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
  seeded with the video estimate so that its ordering key is finite;
  with no usable estimate at all it is seeded with the cache age (the
  natural borderline popularity), else 1.  The seed is re-estimated at
  fill time — after the request's evictions and after the earlier
  fills of the same request — so it can differ from the estimate the
  admission decision used: an evicted sibling leaves the scan, an
  earlier-filled sibling joins it, and the cache age moves with both.
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
        return self._walk((t,), (video,), (c0,), (c1,))[0]

    def handle_span_block(self, ts, videos, b0s, b1s, c0s, c1s) -> list:
        return self._walk(ts, videos, c0s, c1s)

    def _walk(self, ts, videos, c0s, c1s) -> list:
        """The one Cafe decision path: Eqs. 6–9 over a block of requests.

        Every lane runs it — the packed sweep and fleet lanes per block,
        the object lane and ``repro-serve`` per request (a 1-element
        block).  The cost model, the structures' raw dicts and the probe
        hooks are bound once per block.  Per request:

        1. **tracking** — fold the access into each chunk's EWMA (Eq. 8),
           re-key cached chunks (Eq. 9), refresh the recency of ghost
           chunks and collect the uncached ones as the missing set, all
           in one pass (popularity tracking happens regardless of the
           decision, like xLRU's tracker update);
        2. **decision** — horizon ``T`` (cache age unless fixed), the
           ``|S'|`` least-key victims outside the request, and the
           Eqs. 6–7 costs; a missing chunk without history of its own
           takes the video estimate, computed at most once per request;
        3. **mutation** — on serve: evict the victims, then admit the
           missing chunks one by one, then bound the ghost history; on
           redirect: keep the missing chunks' history as ghosts.

        Probe hooks fire inline in that order.  Returns the responses.
        """
        probe = self.probe
        if probe is not None:
            on_iat_estimate = probe.on_iat_estimate
            on_margin = probe.on_margin
            on_redirect = probe.on_redirect
            on_serve = probe.on_serve
            on_fill = probe.on_fill
            on_evict = probe.on_evict
        cost_model = self.cost_model
        fill_cost = cost_model.fill_cost
        redirect_cost = cost_model.redirect_cost
        future_unit = cost_model.future_cost
        disk_chunks = self.disk_chunks
        fixed_horizon = self._horizon
        max_ghosts = self._max_ghosts
        stats = self._stats
        stats_get = stats.get
        stats_pop = stats.pop
        gamma = stats.gamma
        keep = 1.0 - gamma
        cached = self._cached
        index = cached.raw_index()
        rekey = cached.insert
        unkey = cached.remove
        min_item = cached.min_item
        n_smallest = cached.n_smallest
        ghosts = self._ghosts
        gentries = ghosts.raw_entries()
        gpop = gentries.pop
        gpopitem = gentries.popitem
        video_chunks = self._video_chunks
        video_iat = self._video_iat
        inf = _INF
        ghost_t = None
        responses: list = []
        append = responses.append
        for t, video, c0, c1 in zip(ts, videos, c0s, c1s):
            missing = None
            for c in range(c0, c1 + 1):
                chunk = (video, c)
                state = stats_get(chunk)
                if state is None:
                    state = stats[chunk] = EwmaIat(inf, t)
                else:
                    dt = state.dt
                    if dt == inf:
                        # the first sample replaces the placeholder
                        state.dt = t - state.t_last
                    else:
                        state.dt = gamma * (t - state.t_last) + keep * dt
                    state.t_last = t
                if chunk in index:
                    dt = state.dt
                    rekey(chunk, -inf if dt == inf else gamma * t - keep * dt)
                    continue
                if gpop(chunk, None) is not None:
                    gentries[chunk] = t
                    ghost_t = t
                if missing is None:
                    missing = [chunk]
                else:
                    missing.append(chunk)

            if c1 - c0 + 1 > disk_chunks:
                reason = "oversized"
            elif missing is None:
                # Pure hit: serving costs 0, which can never lose.
                if probe is not None:
                    on_serve(t, 0, 0)
                append(SERVE_HIT)
                continue
            else:
                if fixed_horizon is not None:
                    horizon = fixed_horizon
                elif len(index) < disk_chunks:
                    horizon = inf
                else:
                    state = stats_get(min_item()[0])
                    if state is None or state.dt == inf:
                        horizon = inf
                    else:
                        horizon = gamma * (t - state.t_last) + keep * state.dt
                # T / IAT below is inf under an unbounded horizon; an IAT
                # of inf (no history) contributes nothing and is skipped.
                n_missing = len(missing)
                n_evict = n_missing - (disk_chunks - len(index))
                if n_evict > 0:
                    victims = n_smallest(
                        n_evict, {(video, c) for c in range(c0, c1 + 1)}
                    )
                else:
                    victims = ()
                cost_serve = n_missing * fill_cost
                for victim, _key in victims:
                    state = stats_get(victim)
                    if state is not None and state.dt != inf:
                        iat = gamma * (t - state.t_last) + keep * state.dt
                        cost_serve += (
                            horizon / (iat if iat >= 1e-9 else 1e-9) * future_unit
                        )
                cost_redirect = (c1 - c0 + 1) * redirect_cost
                estimate = None
                for chunk in missing:
                    state = stats[chunk]
                    if state.dt != inf:
                        iat = gamma * (t - state.t_last) + keep * state.dt
                        source = "own"
                    else:
                        if estimate is None:
                            estimate = video_iat(video, t)
                        iat = estimate
                        source = "video" if iat != inf else "cold"
                    if probe is not None:
                        on_iat_estimate(source)
                    if iat != inf:
                        cost_redirect += (
                            horizon / (iat if iat >= 1e-9 else 1e-9) * future_unit
                        )
                if probe is not None:
                    on_margin(cost_redirect - cost_serve)

                if cost_serve > cost_redirect:
                    reason = "cost"
                else:
                    for victim, _key in victims:
                        if probe is not None:
                            on_evict(t, victim, stats[victim].t_last)
                        unkey(victim)
                        siblings = video_chunks.get(victim[0])
                        if siblings is not None:
                            siblings.discard(victim[1])
                            if not siblings:
                                del video_chunks[victim[0]]
                        if max_ghosts > 0:
                            gpop(victim, None)
                            gentries[victim] = t
                            ghost_t = t
                        else:
                            del stats[victim]
                    siblings = video_chunks.get(video)
                    if siblings is None:
                        siblings = video_chunks[video] = set()
                    for chunk in missing:
                        state = stats[chunk]
                        if state.dt == inf:
                            # First fill with no IAT sample: re-estimated
                            # now, after the evictions and the earlier
                            # fills of this request.
                            seed = video_iat(video, t)
                            if seed == inf:
                                seed = self.cache_age(t)
                            if seed == inf:
                                seed = 1.0
                            state.dt = seed
                        rekey(chunk, gamma * state.t_last - keep * state.dt)
                        gpop(chunk, None)
                        siblings.add(chunk[1])
                    while len(gentries) > max_ghosts:
                        stats_pop(gpopitem(False)[0], None)
                    if probe is not None:
                        for chunk in missing:
                            on_fill(t, chunk)
                        on_serve(t, n_missing, len(victims))
                    append(serve_response(n_missing, len(victims)))
                    continue

            # Redirect: the uncached chunks' history survives as ghosts
            # until cleanup (or is dropped outright without ghosts).
            if max_ghosts <= 0:
                for chunk in missing:
                    stats_pop(chunk, None)
            else:
                for chunk in missing:
                    if chunk not in gentries:
                        gentries[chunk] = t
                        ghost_t = t
                while len(gentries) > max_ghosts:
                    stats_pop(gpopitem(False)[0], None)
            if probe is not None:
                on_redirect(t, reason)
            append(REDIRECT)
        if ghost_t is not None:
            ghosts.advance_time(ghost_t)
        return responses

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
            # own history, else _video_iat, but against post-update
            # (shadow) sibling stats — the walk records the whole
            # request before estimating, so the sibling keys are fresh
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

    def _video_iat(self, video: int, now: float) -> float:
        """IAT for a missing chunk with no history of its own.

        "The largest recorded IAT among the existing chunks" of the
        video (Section 6); inf with no cached sibling or with the
        estimate disabled.  By Theorem 1 the largest-IAT cached chunk is
        the one with the smallest virtual key, so a key scan suffices;
        the strict ``<`` keeps the first minimum in set order.
        """
        if not self._use_video_estimate:
            return _INF
        siblings = self._video_chunks.get(video)
        if not siblings:
            return _INF
        index = self._cached.raw_index()
        numbers = iter(siblings)
        worst = next(numbers)
        worst_key = index[(video, worst)][0]
        for number in numbers:
            key = index[(video, number)][0]
            if key < worst_key:
                worst, worst_key = number, key
        return self._stats.iat((video, worst), now)


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
