"""Common cache-server interface (Problem 1 / Problem 2 of Section 4.3).

Every algorithm sees the same stream of :class:`~repro.trace.Request`
objects and must, per request, either **serve** it (cache-filling any
missing chunks, evicting to make room) or **redirect** it.  The response
reports what happened so the simulation engine can do the byte
accounting without reaching into cache internals.

Offline algorithms (Psychic, Optimal, Belady) additionally receive the
full request sequence up front through :meth:`VideoCache.prepare`.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.core.costs import CostModel
from repro.trace.requests import DEFAULT_CHUNK_BYTES, ChunkId, Request

__all__ = [
    "Decision",
    "CacheResponse",
    "REDIRECT",
    "SERVE_HIT",
    "VideoCache",
    "serve_response",
]


class Decision(enum.Enum):
    """The two possible outcomes for a request (Section 4.3)."""

    SERVE = "serve"
    REDIRECT = "redirect"


@dataclass(frozen=True, slots=True)
class CacheResponse:
    """What the cache did with one request.

    ``filled_chunks`` is the number of chunks fetched over the ingress
    link (0 when redirecting or fully hitting); ``evicted_chunks`` the
    number evicted to make room.  Ingress bytes are
    ``filled_chunks * chunk_bytes`` since chunks are fetched in full.
    """

    decision: Decision
    filled_chunks: int = 0
    evicted_chunks: int = 0

    def __post_init__(self) -> None:
        if self.filled_chunks < 0 or self.evicted_chunks < 0:
            raise ValueError("chunk counts must be non-negative")
        if self.decision is Decision.REDIRECT and self.filled_chunks:
            raise ValueError("a redirected request cannot cache-fill")

    @property
    def served(self) -> bool:
        return self.decision is Decision.SERVE


#: Shared immutable responses for the two outcomes that carry no counts.
#: ``CacheResponse`` is a frozen value object, so reusing one instance is
#: safe and avoids a dataclass construction in the replay hot path.
REDIRECT = CacheResponse(Decision.REDIRECT)
SERVE_HIT = CacheResponse(Decision.SERVE)

#: Interned SERVE responses keyed by (filled, evicted).  The key space
#: is bounded by the per-request chunk count squared (requests larger
#: than the disk are redirected), so the table stays small while the
#: hot path skips CacheResponse.__post_init__ for repeated shapes.
_SERVE_RESPONSES: dict[tuple[int, int], CacheResponse] = {}


def serve_response(filled_chunks: int, evicted_chunks: int = 0) -> CacheResponse:
    """A SERVE :class:`CacheResponse`, value-interned for the hot path."""
    key = (filled_chunks, evicted_chunks)
    response = _SERVE_RESPONSES.get(key)
    if response is None:
        response = CacheResponse(Decision.SERVE, filled_chunks, evicted_chunks)
        _SERVE_RESPONSES[key] = response
    return response


class VideoCache(ABC):
    """Abstract video cache server.

    Concrete caches implement :meth:`handle`; the constructor fixes the
    disk size (in chunks), the chunk size and the cost model — the three
    knobs the paper's experiments sweep.
    """

    #: Short algorithm name used in reports ("xLRU", "Cafe", ...).
    name: str = "abstract"
    #: Whether the algorithm needs the full future sequence (Problem 2).
    offline: bool = False
    #: Whether serve/redirect/evict decisions consult ``cost_model``.
    #: When False (e.g. pull-through LRU), replay outcomes are identical
    #: at every ``alpha_F2R`` and sweep schedulers may simulate one
    #: alpha and reinterpret the traffic counters for the others.
    cost_sensitive: bool = True

    def __init__(
        self,
        disk_chunks: int,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cost_model: CostModel | None = None,
    ) -> None:
        if disk_chunks <= 0:
            raise ValueError(f"disk_chunks must be positive, got {disk_chunks}")
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.disk_chunks = disk_chunks
        self.chunk_bytes = chunk_bytes
        self.cost_model = cost_model if cost_model is not None else CostModel()
        #: Optional telemetry probe (see :mod:`repro.obs.probes`).  The
        #: hot paths of instrumented caches call its hooks only when it
        #: is set, so a probe-free replay pays one ``is None`` check per
        #: request.  Probes must be pure observers: attaching one never
        #: changes serve/redirect decisions.
        self.probe = None

    # -- lifecycle ----------------------------------------------------------

    def prepare(self, requests: Sequence[Request]) -> None:
        """Offline hook: receive the full request sequence before replay.

        Online caches ignore it; offline caches build their future
        indexes here.  Called exactly once, before the first
        :meth:`handle`.
        """

    @abstractmethod
    def handle(self, request: Request) -> CacheResponse:
        """Serve or redirect ``request``, updating cache state.

        Requests must arrive in non-decreasing timestamp order.
        """

    def handle_span(
        self, t: float, video: int, b0: int, b1: int, c0: int, c1: int
    ) -> CacheResponse:
        """Handle one request given as packed scalar columns.

        ``(c0, c1)`` is the inclusive chunk range already derived for
        this cache's ``chunk_bytes``.  The default materializes a
        :class:`Request` and delegates to :meth:`handle`, which keeps
        every subclass and wrapper that only overrides ``handle``
        correct under the packed replay lane; hot caches override this
        with allocation-free logic and make ``handle`` the thin wrapper
        instead.
        """
        return self.handle(Request(t, video, b0, b1))

    def handle_span_block(self, ts, videos, b0s, b1s, c0s, c1s) -> list:
        """Handle one block of packed request columns; returns responses.

        The batched replay lanes hand caches whole same-server blocks
        (columns must be time-sorted) so hot caches can hoist loop
        invariants — attribute lookups, method binding, structure
        internals — out of the per-request path.  Overrides MUST be
        observably identical to this default: same response sequence,
        same end state and same probe hook sequence, request by
        request.  The default simply walks :meth:`handle_span`, which
        keeps every cache correct.
        """
        return list(map(self.handle_span, ts, videos, b0s, b1s, c0s, c1s))

    def handle_span_block_kernel(self, block) -> "tuple[list, list, int]":
        """Vectorized-decision entry point for one packed block.

        ``block`` is a :class:`~repro.trace.columnar.BlockView` whose
        chunk columns match this cache's ``chunk_bytes``.  Returns
        ``(responses, misses, screened)``: the per-request responses,
        the ascending index list of every response that is not the
        interned ``SERVE_HIT`` — precomputed because kernels know which
        requests they screened, sparing the accounting layer a full scan
        (:meth:`~repro.sim.metrics.MetricsCollector.record_packed_block`
        patches exactly those indices) — and how many requests the
        screen decided (the rest are the residue walked one by one).

        Kernel overrides classify as much of the block as possible in
        whole-column numpy passes (admission pre-screens, residency
        summaries), apply the induced mutations in batches, and walk
        only the undecided residue through the scalar per-request code.
        They MUST be observably identical to :meth:`handle_span_block`
        — same responses, same end state — and MUST fall back to it
        when ``block.vectorized`` is false.  With a telemetry probe
        attached they run unchanged and MUST fire probe hooks in
        per-request order: every request, screened or not, emits
        exactly the hook sequence :meth:`handle_span` would, with
        reasons and margins read from live state.

        This default is that fallback: the scalar block walk plus a
        miss scan, with nothing screened.
        """
        responses = self.handle_span_block(
            block.ts_l,
            block.videos_l,
            block.b0s_l,
            block.b1s_l,
            block.c0s_l,
            block.c1s_l,
        )
        misses = [
            i for i, response in enumerate(responses) if response is not SERVE_HIT
        ]
        return responses, misses, 0

    # -- introspection (shared by tests, examples and the CDN layer) --------

    @abstractmethod
    def __contains__(self, chunk: ChunkId) -> bool:
        """Whether ``(video, chunk_number)`` is currently on disk."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of chunks currently on disk."""

    @property
    def disk_bytes(self) -> int:
        """Disk capacity in bytes."""
        return self.disk_chunks * self.chunk_bytes

    @property
    def disk_used_fraction(self) -> float:
        """Fraction of the disk currently occupied."""
        return len(self) / self.disk_chunks

    def describe(self) -> str:
        """One-line human-readable configuration summary."""
        return (
            f"{self.name}(disk={self.disk_chunks} chunks, "
            f"chunk={self.chunk_bytes} B, "
            f"alpha_f2r={self.cost_model.alpha_f2r})"
        )
