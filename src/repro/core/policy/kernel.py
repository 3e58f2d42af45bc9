"""The policy-kernel protocol and its two execution engines.

Adding an algorithm used to mean touching five subsystems: the object
lane (``handle``/``handle_span``), the packed lane
(``handle_span_block``), the vectorized decision kernel, a hand-written
reference oracle and the probe wiring.  A :class:`PolicyKernel`
collapses all of that into one small object with score/admit/evict
hooks; the two engines here turn any conforming policy into

* :class:`KernelCache` — the production cache: a
  :class:`~repro.structures.scoreheap.ScoreHeap`-backed
  :class:`~repro.core.base.VideoCache` with a hoisted block walk, a
  generic numpy redirect pre-screen, and probe hooks;
* :class:`OracleKernelCache` — the auto-derived reference oracle: the
  *same* policy on a plain dict with linear min-scans, in the exact
  idiom of :mod:`repro.verify.oracles`.

Both engines drive the policy through one fixed pipeline per request
(mirroring :class:`~repro.core.baselines.LfuAdmissionCache`, the ported
proof that the pipeline is expressive enough to be byte-identical to a
hand-written cache):

1. ``on_request`` — per-request bookkeeping (counters, aging);
2. chunk walk — resident chunks may be re-scored via ``rescore_hit``,
   missing ones are collected;
3. oversized check — spans larger than the disk redirect;
4. ``admit`` — a redirect-reason string rejects the request;
5. eviction — the lowest ``(score, seq)`` chunks outside the span make
   room, each reported through ``on_evict``;
6. fill — every missing chunk is inserted at ``fill_score``.

Because both engines issue identical sequences of insert/evict
operations and both order eviction by ascending ``(score, insertion
sequence)``, a policy verified by the differential harness is exact on
every lane the engines provide.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Set, Tuple

from repro.core import kernels
from repro.core.base import (
    REDIRECT,
    SERVE_HIT,
    CacheResponse,
    VideoCache,
    serve_response,
)
from repro.core.costs import CostModel
from repro.structures.scoreheap import ScoreHeap
from repro.trace.requests import DEFAULT_CHUNK_BYTES, ChunkId, Request

__all__ = ["PolicyKernel", "KernelCache", "OracleKernelCache"]


class PolicyKernel:
    """One caching policy expressed as score/admit/evict hooks.

    Subclasses override the hooks they need; the defaults make the
    trivial policy (always admit, never re-score, fill at ``t``) —
    i.e. pull-through LRU.  Contract notes the engines rely on:

    * ``on_request`` runs exactly once per request, *before* the chunk
      walk, and is the only hook allowed to mutate admission state —
      ``admit`` itself MUST be side-effect-free (the vectorized lane
      skips it for pre-screened redirects);
    * ``rescore_hit``/``fill_score`` return the chunk's new eviction
      score; lower scores evict first, ties break by insertion order.
      ``rescore_hit`` may return None to leave the chunk's key alone;
    * policies reach their engine through :attr:`cache` (set by
      :meth:`bind`): ``cache.rekey(chunk, score)`` re-keys a resident
      chunk (aging passes), ``cache.min_score()`` reads the current
      eviction frontier, ``cache.resident(chunk)`` probes residency;
    * ``screen`` may classify whole packed blocks of *guaranteed
      redirects* from block-start snapshots; the engine additionally
      requires first-in-block occurrence and zero span residency
      before trusting the mask, so a screened request reduces to
      ``on_request`` plus the interned REDIRECT;
    * ``state_dict``/``load_state`` serialize policy state (JSON-able;
      the engine persists the cached set itself); ``load_state`` must
      reject snapshots whose immutable knobs mismatch the live policy.
    """

    #: snapshot kind slug; the registry persists caches as ``policy:<kind>``
    kind: str = "abstract"
    #: algorithm name shown in reports and registries
    name: str = "abstract-policy"
    #: forwarded to the engine (False enables alpha-collapsing sweeps)
    cost_sensitive: bool = False

    def __init__(self) -> None:
        self.cache: Optional[VideoCache] = None

    def bind(self, cache: VideoCache) -> None:
        """Attach the engine back-reference (called by the engines)."""
        self.cache = cache

    # -- decision hooks ------------------------------------------------------

    def on_request(self, t: float, video: int, c0: int, c1: int) -> None:
        """Per-request bookkeeping, before anything else."""

    def rescore_hit(self, t: float, video: int, c: int) -> Optional[float]:
        """New score for a resident chunk being requested (None = keep)."""
        return t

    def admit(
        self, t: float, video: int, c0: int, c1: int, num_missing: int
    ) -> Optional[str]:
        """Redirect-reason string to reject the request, None to serve."""
        return None

    def fill_score(self, t: float, video: int, c: int) -> float:
        """Insertion score for a chunk being cache-filled."""
        return t

    def on_evict(self, chunk: ChunkId) -> None:
        """One chunk chosen as an eviction victim (drop side state)."""

    # -- optional vectorized pre-screen --------------------------------------

    def screen(self, block, uniq, inv, counts, first_occurrence):
        """Numpy bool mask of provable redirects, or None for no screen.

        Computed from block-start snapshots; ``uniq``/``inv`` come from
        ``block.video_groups()``/``block.video_inverse()`` and
        ``counts`` holds per-request span residency.  The engine ANDs
        the mask with ``first_occurrence & (counts == 0)``, so the
        policy only has to prove that ``admit`` would reject given its
        snapshot state plus this request's own ``on_request`` bump.
        """
        return None

    # -- observability / persistence -----------------------------------------

    def gauges(self) -> dict:
        """Cheap numeric gauges for telemetry snapshots."""
        return {}

    def state_dict(self) -> dict:
        """JSON-able policy state (excluding the cached set)."""
        return {}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output; reject config mismatches."""


class KernelCache(VideoCache):
    """Production engine: any :class:`PolicyKernel` as a full cache.

    Provides every lane the hand-written caches have — object
    ``handle``/``handle_span``, the hoisted ``handle_span_block`` walk,
    and a generic ``handle_span_block_kernel`` built on the policy's
    redirect ``screen`` — plus probe hooks and snapshot support (via
    :mod:`repro.core.snapshot`, kind ``policy:<policy.kind>``).
    """

    def __init__(
        self,
        policy: PolicyKernel,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        self.policy = policy
        self.name = policy.name
        self.cost_sensitive = policy.cost_sensitive
        self._cached: ScoreHeap[ChunkId] = ScoreHeap(seed=0)
        policy.bind(self)

    # -- engine services for the bound policy --------------------------------

    def resident(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def rekey(self, chunk: ChunkId, score: float) -> None:
        """Re-key a chunk iff resident (aging passes use this)."""
        if chunk in self._cached:
            self._cached.insert(chunk, score)

    def min_score(self) -> Optional[float]:
        """Score of the current eviction frontier (None when empty)."""
        if not len(self._cached):
            return None
        return self._cached.min_item()[1]

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
        policy = self.policy
        probe = self.probe
        policy.on_request(t, video, c0, c1)
        cached = self._cached
        missing: List[ChunkId] = []
        for c in range(c0, c1 + 1):
            chunk = (video, c)
            if chunk in cached:
                score = policy.rescore_hit(t, video, c)
                if score is not None:
                    cached.insert(chunk, score)
            else:
                missing.append(chunk)
        if c1 - c0 + 1 > self.disk_chunks:
            if probe is not None:
                probe.on_redirect(t, "oversized")
            return REDIRECT
        reason = policy.admit(t, video, c0, c1, len(missing))
        if reason is not None:
            if probe is not None:
                probe.on_redirect(t, reason)
            return REDIRECT
        if not missing:
            if probe is not None:
                probe.on_serve(t, 0, 0)
            return SERVE_HIT
        evicted = 0
        need = len(missing) - (self.disk_chunks - len(cached))
        if need > 0:
            exclude = {(video, c) for c in range(c0, c1 + 1)}
            for chunk, _score in cached.pop_n_smallest(need, exclude=exclude):
                policy.on_evict(chunk)
                if probe is not None:
                    # scores are policy-defined (not timestamps), so no
                    # eviction age is claimed; residence still tracks
                    probe.on_evict(t, chunk, float("nan"))
                evicted += 1
        for chunk in missing:
            cached.insert(chunk, policy.fill_score(t, chunk[0], chunk[1]))
            if probe is not None:
                probe.on_fill(t, chunk)
        if probe is not None:
            probe.on_serve(t, len(missing), evicted)
        return serve_response(len(missing), evicted)

    def handle_span_block(self, ts, videos, b0s, b1s, c0s, c1s) -> list:
        """Hoisted block walk: :meth:`_walk` with nothing screened."""
        return self._walk(ts, videos, c0s, c1s, repeat(False))[0]

    def handle_span_block_kernel(self, block) -> "tuple[list, list, int]":
        """Generic redirect pre-screen over one packed block.

        The engine snapshots span residency at block start and asks the
        policy for its provable-redirect mask; a screened request is
        sound when additionally it is its video's first in-block
        occurrence (no earlier in-block request changed this video's
        admission state or residency) and none of its span is resident
        (so skipping the chunk walk mutates nothing).  :meth:`_walk`
        reduces screened requests to ``on_request`` plus the interned
        REDIRECT.  Nothing is screened when the policy has no screen or
        the block is not vectorized.
        """
        screen = None
        if block.vectorized:
            index = self._cached.raw_index()
            uniq, _order, _starts = block.video_groups()
            arrays = kernels.residency_arrays(uniq, kernels.chunks_by_video(index))
            counts = kernels.span_resident_counts(block, arrays)
            inv = block.video_inverse()
            first = block.first_occurrence()
            mask = self.policy.screen(block, uniq, inv, counts, first)
            if mask is not None:
                screen = mask & first & (counts == 0)
        responses, misses = self._walk(
            block.ts_l,
            block.videos_l,
            block.c0s_l,
            block.c1s_l,
            repeat(False) if screen is None else screen.tolist(),
        )
        return responses, misses, 0 if screen is None else int(screen.sum())

    def _walk(self, ts, videos, c0s, c1s, screen) -> "tuple[list, list]":
        """The block walk: policy hooks, probe hooks, heap internals and
        the disk size bound once per block.

        Observably identical to :meth:`handle_span` element-wise (same
        policy hook order, same insert/evict sequence, same probe hook
        sequence).  A true ``screen`` entry marks a proven redirect
        (see :meth:`handle_span_block_kernel`): it reduces to
        ``on_request`` plus the interned REDIRECT.  With a probe
        attached a screened request still runs the (mutation-free)
        chunk walk and the side-effect-free ``admit``, so its redirect
        reason comes from live state.  Returns the responses and the
        ascending indices of the non-hits.
        """
        probe = self.probe
        if probe is not None:
            on_redirect = probe.on_redirect
            on_serve = probe.on_serve
            on_fill = probe.on_fill
            probe_evict = probe.on_evict
        nan = float("nan")
        policy = self.policy
        on_request = policy.on_request
        rescore = policy.rescore_hit
        admit = policy.admit
        fill_score = policy.fill_score
        on_evict = policy.on_evict
        disk_chunks = self.disk_chunks
        cached = self._cached
        insert = cached.insert
        index = cached.raw_index()
        responses: list = []
        append = responses.append
        misses: list = []
        miss = misses.append
        i = -1
        for t, video, c0, c1, scr in zip(ts, videos, c0s, c1s, screen):
            i += 1
            on_request(t, video, c0, c1)
            if scr and probe is None:
                append(REDIRECT)
                miss(i)
                continue
            missing = None
            for c in range(c0, c1 + 1):
                chunk = (video, c)
                if chunk in index:
                    score = rescore(t, video, c)
                    if score is not None:
                        insert(chunk, score)
                elif missing is None:
                    missing = [chunk]
                else:
                    missing.append(chunk)
            if c1 - c0 + 1 > disk_chunks:
                if probe is not None:
                    on_redirect(t, "oversized")
                append(REDIRECT)
                miss(i)
                continue
            n_missing = 0 if missing is None else len(missing)
            reason = admit(t, video, c0, c1, n_missing)
            if reason is not None:
                if probe is not None:
                    on_redirect(t, reason)
                append(REDIRECT)
                miss(i)
                continue
            if missing is None:
                if probe is not None:
                    on_serve(t, 0, 0)
                append(SERVE_HIT)
                continue
            evicted = 0
            need = n_missing - (disk_chunks - len(index))
            if need > 0:
                exclude = {(video, c) for c in range(c0, c1 + 1)}
                for chunk, _score in cached.pop_n_smallest(need, exclude=exclude):
                    on_evict(chunk)
                    if probe is not None:
                        probe_evict(t, chunk, nan)
                    evicted += 1
            for chunk in missing:
                insert(chunk, fill_score(t, chunk[0], chunk[1]))
            if probe is not None:
                for chunk in missing:
                    on_fill(t, chunk)
                on_serve(t, n_missing, evicted)
            append(serve_response(n_missing, evicted))
            miss(i)
        return responses, misses

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def __len__(self) -> int:
        return len(self._cached)


def _n_least(
    scored: List[Tuple[Tuple, ChunkId]], n: int, exclude: Set[ChunkId]
) -> List[ChunkId]:
    """The ``n`` least chunks by ascending ``(score, seq)``, skipping
    ``exclude`` — the transparent sort-and-take of the oracle idiom."""
    if n <= 0:
        return []
    out = []
    for _key, chunk in sorted(scored):
        if chunk in exclude:
            continue
        out.append(chunk)
        if len(out) == n:
            break
    return out


class OracleKernelCache(VideoCache):
    """Reference engine: the same policy on plain dicts and linear scans.

    No :class:`~repro.structures.scoreheap.ScoreHeap` — eviction picks
    the minimum ``(score, insertion sequence)`` with a sort over the
    whole cached set, exactly like the hand-written oracles in
    :mod:`repro.verify.oracles`.  The differential harness replays this
    against :class:`KernelCache` to pin the engine's heap and batched
    walks to the transparent semantics.
    """

    def __init__(
        self,
        policy: PolicyKernel,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
    ) -> None:
        super().__init__(disk_chunks, chunk_bytes, cost_model)
        self.policy = policy
        self.name = "oracle:" + policy.name
        self.cost_sensitive = policy.cost_sensitive
        #: chunk -> (score, insertion sequence)
        self._cached: Dict[ChunkId, Tuple[float, int]] = {}
        self._seq = 0
        policy.bind(self)

    # -- engine services for the bound policy --------------------------------

    def resident(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def rekey(self, chunk: ChunkId, score: float) -> None:
        if chunk in self._cached:
            self._insert(chunk, score)

    def min_score(self) -> Optional[float]:
        if not self._cached:
            return None
        return min(key[0] for key in self._cached.values())

    def _insert(self, chunk: ChunkId, score: float) -> None:
        self._seq += 1
        self._cached[chunk] = (score, self._seq)

    # -- VideoCache interface ------------------------------------------------

    def handle(self, request: Request) -> CacheResponse:
        t = request.t
        video = request.video
        policy = self.policy
        chunks = list(request.chunk_ids(self.chunk_bytes))
        c0 = chunks[0][1]
        c1 = chunks[-1][1]
        policy.on_request(t, video, c0, c1)
        missing = []
        for chunk in chunks:
            if chunk in self._cached:
                score = policy.rescore_hit(t, video, chunk[1])
                if score is not None:
                    self._insert(chunk, score)
            else:
                missing.append(chunk)
        if len(chunks) > self.disk_chunks:
            return REDIRECT
        if policy.admit(t, video, c0, c1, len(missing)) is not None:
            return REDIRECT
        if not missing:
            return SERVE_HIT
        evicted = 0
        need = len(missing) - (self.disk_chunks - len(self._cached))
        if need > 0:
            scored = [(key, chunk) for chunk, key in self._cached.items()]
            for chunk in _n_least(scored, need, set(chunks)):
                del self._cached[chunk]
                policy.on_evict(chunk)
                evicted += 1
        for chunk in missing:
            self._insert(chunk, policy.fill_score(t, chunk[0], chunk[1]))
        return serve_response(len(missing), evicted)

    def __contains__(self, chunk: ChunkId) -> bool:
        return chunk in self._cached

    def __len__(self) -> int:
        return len(self._cached)
