"""Behavioural tests for Cafe Cache (Section 6, Eqs. 6-9)."""

import math

import pytest

from repro.core.base import Decision
from repro.core.cafe import CafeCache, _future_term
from repro.core.costs import CostModel
from repro.sim.engine import replay
from repro.trace.requests import Request
from repro.verify.oracles import build_oracle

K = 1024


def req(t, video, c0, c1=None):
    c1 = c0 if c1 is None else c1
    return Request(t, video, c0 * K, (c1 + 1) * K - 1)


def make_cache(disk=4, alpha=1.0, **kwargs):
    return CafeCache(disk, chunk_bytes=K, cost_model=CostModel(alpha), **kwargs)


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_cache(ghost_factor=-1.0)
        with pytest.raises(ValueError):
            make_cache(horizon=0.0)
        with pytest.raises(ValueError):
            CafeCache(4, cost_model=CostModel(1.0), gamma=0.0)

    def test_paper_default_gamma(self):
        cache = make_cache()
        assert cache._stats.gamma == 0.25


class TestFutureTerm:
    def test_no_history_contributes_nothing(self):
        assert _future_term(float("inf"), 100.0) == 0.0
        assert _future_term(float("inf"), float("inf")) == 0.0

    def test_warmup_horizon_with_history_is_unbounded(self):
        assert math.isinf(_future_term(10.0, float("inf")))

    def test_expected_requests_in_horizon(self):
        # T / IAT: a chunk arriving every 5 s over a 50 s horizon -> 10
        assert _future_term(5.0, 50.0) == pytest.approx(10.0)


class TestAdmission:
    def test_first_seen_video_redirected_alpha1(self):
        cache = make_cache(alpha=1.0, disk=2)
        # fill the disk first so the horizon is finite (steady state)
        cache.handle(req(0.0, 1, 0))
        cache.handle(req(1.0, 1, 0, 1))
        assert cache.handle(req(2.0, 99, 0)).decision is Decision.REDIRECT

    def test_first_seen_redirected_then_served_during_warmup(self):
        # alpha=2: first-seen is strictly costlier to fill (C_F > C_R,
        # no expected future value), second sighting flips to serve.
        cache = make_cache(alpha=2.0)
        first = cache.handle(req(0.0, 1, 0))
        assert first.decision is Decision.REDIRECT
        response = cache.handle(req(1.0, 1, 0))
        assert response.decision is Decision.SERVE
        assert response.filled_chunks == 1

    def test_alpha1_warmup_ties_prefill(self):
        # at alpha=1 with free disk, fill and redirect cost the same
        # (C_F = C_R, no eviction): the tie goes to serving, which
        # pre-fills the empty disk.
        cache = make_cache(alpha=1.0)
        assert cache.handle(req(0.0, 1, 0)).decision is Decision.SERVE

    def test_pure_hit_always_served(self):
        cache = make_cache()
        cache.handle(req(0.0, 1, 0))
        cache.handle(req(1.0, 1, 0))
        hit = cache.handle(req(2.0, 1, 0))
        assert hit.decision is Decision.SERVE
        assert hit.filled_chunks == 0

    def test_request_bigger_than_disk_redirected(self):
        cache = make_cache(disk=2)
        cache.handle(req(0.0, 1, 0, 5))
        assert cache.handle(req(1.0, 1, 0, 5)).decision is Decision.REDIRECT

    def test_costly_ingress_rejects_what_cheap_ingress_fills(self):
        """Same trace: alpha=4 redirects what alpha=0.5 fills.

        Videos 1 and 2 (cached) and the probe video 9 all have period-4
        popularity, so serving 9 means evicting an equally popular
        chunk: worth it only when ingress is cheap (C_F < C_R).
        """
        probe = req(25.0, 9, 0)

        def scenario(alpha):
            cache = make_cache(disk=2, alpha=alpha)
            trace = [req(float(t), 1, 0) for t in range(0, 25, 4)]
            trace += [req(float(t), 2, 0) for t in range(2, 23, 4)]
            trace.append(req(21.0, 9, 0))
            for r in sorted(trace, key=lambda r: r.t):
                cache.handle(r)
            return cache.handle(probe).decision

        assert scenario(0.5) is Decision.SERVE
        assert scenario(4.0) is Decision.REDIRECT


class TestEviction:
    def test_least_popular_chunk_evicted(self):
        cache = make_cache(disk=2, alpha=1.0)
        # A requested every 2 s (recent, popular); B twice, sparsely.
        trace = [req(float(t), 1, 0) for t in range(0, 11, 2)]
        trace += [req(1.0, 2, 0), req(9.0, 2, 0)]
        for r in sorted(trace, key=lambda r: r.t):
            cache.handle(r)
        assert (1, 0) in cache and (2, 0) in cache  # disk full [A, B]
        # C becomes popular; admitting it must evict B, not A
        cache.handle(req(11.0, 3, 0))
        response = cache.handle(req(12.0, 3, 0))
        assert response.decision is Decision.SERVE
        assert (1, 0) in cache
        assert (2, 0) not in cache
        assert (3, 0) in cache

    def test_requested_chunks_excluded_from_eviction(self):
        cache = make_cache(disk=2, alpha=1.0)
        cache.handle(req(0.0, 1, 0))
        cache.handle(req(1.0, 1, 0))  # (1,0) cached
        # request spans cached (1,0) + missing (1,1): the fill must not
        # evict (1,0) itself
        cache.handle(req(2.0, 1, 0, 1))
        response = cache.handle(req(3.0, 1, 0, 1))
        assert response.decision is Decision.SERVE
        assert (1, 0) in cache and (1, 1) in cache

    def test_capacity_never_exceeded(self, small_trace):
        cache = CafeCache(64, cost_model=CostModel(2.0))
        for r in small_trace[:800]:
            cache.handle(r)
            assert len(cache) <= 64


class TestUnseenChunkEstimate:
    def _popularize(self, cache):
        cache.handle(req(0.0, 1, 0, 1))  # first-seen: redirected, tracked
        for t in (1.0, 2.0, 3.0, 4.0):
            cache.handle(req(t, 1, 0, 1))  # filled at t=1, then hits

    def test_sibling_estimate_admits_new_chunk(self):
        cache = make_cache(disk=2, alpha=1.0, use_video_iat_estimate=True)
        self._popularize(cache)
        response = cache.handle(req(5.0, 1, 2))  # chunk 2 never seen
        assert response.decision is Decision.SERVE

    def test_without_estimate_new_chunk_redirected(self):
        cache = make_cache(disk=2, alpha=1.0, use_video_iat_estimate=False)
        self._popularize(cache)
        response = cache.handle(req(5.0, 1, 2))
        assert response.decision is Decision.REDIRECT


class TestFirstFillSeed:
    def test_evicted_sibling_victim_changes_the_seed(self):
        """A first fill is seeded after the request's evictions, not with
        the estimate the admission decision used.

        Disk 2, alpha 0.5: chunks 0 and 1 of video 1 are filled at t=0
        (seeds 1.0 and 0.75).  At t=10 chunk 2 arrives with no history;
        its decision estimate is the least-key sibling's IAT — chunk 0,
        which is also the eviction victim.  Once chunk 0 is evicted the
        seed scan sees only chunk 1, whose IAT differs.
        """
        cache = make_cache(disk=2, alpha=0.5)
        oracle = build_oracle("Cafe", 2, alpha_f2r=0.5, chunk_bytes=K)
        for r in (req(0.0, 1, 0), req(0.0, 1, 1)):
            assert cache.handle(r) == oracle.handle(r)
        request = req(10.0, 1, 2)
        explained = cache.explain(request)
        assert explained.victims == [(1, 0)]
        decision_estimate = explained.missing_iats[(1, 2)]
        assert decision_estimate == cache.chunk_iat((1, 0), 10.0) == 3.25
        survivor_iat = cache.chunk_iat((1, 1), 10.0)
        assert survivor_iat == 3.0625

        response = cache.handle(request)
        assert response == oracle.handle(request)
        assert response.filled_chunks == 1 and response.evicted_chunks == 1
        # dt is the seed; at t_last the Eq. 8 IAT is (1 - gamma) * dt
        assert cache.chunk_iat((1, 2), 10.0) == 0.75 * survivor_iat
        assert cache.chunk_iat((1, 2), 10.0) != 0.75 * decision_estimate
        assert oracle._stats[(1, 2)][0] == survivor_iat


class TestGhostHistory:
    def _evict_a(self):
        """alpha=2 scenario ending with A evicted at t=8 (ghosts on).

        A: requests at 0..4 (cached, then goes quiet).  B: 5, 6
        (cached; disk full).  C: 7, 8 — its second sighting wins the
        cost comparison and evicts A, the least popular chunk.
        """
        cache = make_cache(disk=2, alpha=2.0, ghost_factor=4.0)
        for t in (0.0, 1.0, 2.0, 3.0, 4.0):
            cache.handle(req(t, 1, 0))
        cache.handle(req(5.0, 2, 0))
        cache.handle(req(6.0, 2, 0))
        cache.handle(req(7.0, 3, 0))
        cache.handle(req(8.0, 3, 0))
        assert (1, 0) not in cache
        assert (2, 0) in cache and (3, 0) in cache
        return cache

    def test_evicted_chunk_keeps_iat_history(self):
        cache = self._evict_a()
        assert cache.ghost_chunks >= 1
        assert math.isfinite(cache.chunk_iat((1, 0), 8.0))

    def test_ghost_enables_readmission(self):
        """A's retained history lets a burst of re-requests readmit it."""
        cache = self._evict_a()
        decisions = [
            cache.handle(req(t, 1, 0)).decision for t in (9.0, 10.0, 10.5, 11.0)
        ]
        assert Decision.SERVE in decisions
        assert (1, 0) in cache

    def test_ghost_factor_zero_fossilizes_after_warmup(self):
        """Without any non-cached history every miss looks first-seen
        (its stats are dropped on redirect), so at alpha = 1 the warm-up
        tie pre-fills the disk and then nothing new is ever admitted —
        ghosts are what make re-admission possible at all."""
        cache = make_cache(disk=2, alpha=1.0, ghost_factor=0.0)
        cache.handle(req(0.0, 1, 0))  # warm-up tie: filled
        cache.handle(req(1.0, 2, 0))  # warm-up tie: filled; disk full
        for t in range(2, 12):
            response = cache.handle(req(float(t), 3, 0))
            assert response.decision is Decision.REDIRECT
        assert (3, 0) not in cache
        assert cache.tracked_chunks == 2  # only the cached chunks

    def test_ghost_factor_zero_at_costly_ingress_never_admits(self):
        """At alpha = 2 even the warm-up fills nothing: first-seen is
        strictly costlier, and with no ghosts everything stays
        first-seen forever."""
        cache = make_cache(disk=2, alpha=2.0, ghost_factor=0.0)
        for t in range(10):
            response = cache.handle(req(float(t), t % 2, 0))
            assert response.decision is Decision.REDIRECT
        assert len(cache) == 0

    def test_ghost_count_bounded(self, small_trace):
        cache = CafeCache(32, cost_model=CostModel(2.0), ghost_factor=2.0)
        for r in small_trace[:1500]:
            cache.handle(r)
            assert cache.ghost_chunks <= 64

    def test_tracked_chunks_cover_cache(self, small_trace):
        cache = CafeCache(32, cost_model=CostModel(1.0))
        for r in small_trace[:1000]:
            cache.handle(r)
        # every cached chunk must have IAT state
        assert cache.tracked_chunks >= len(cache)


class TestCacheAge:
    def test_unbounded_while_not_full(self):
        cache = make_cache(disk=8)
        cache.handle(req(0.0, 1, 0))
        cache.handle(req(1.0, 1, 0))
        assert cache.cache_age(50.0) == float("inf")

    def test_finite_when_full(self):
        cache = make_cache(disk=1)
        cache.handle(req(0.0, 1, 0))
        cache.handle(req(1.0, 1, 0))
        age = cache.cache_age(10.0)
        assert 0.0 < age < float("inf")


class TestAlphaCompliance:
    def test_ingress_decreases_with_alpha(self, small_trace):
        """The core Figure 5 property: Cafe obeys its cost knob."""
        fills = {}
        for alpha in (0.5, 1.0, 4.0):
            cache = CafeCache(128, cost_model=CostModel(alpha))
            result = replay(cache, small_trace)
            fills[alpha] = result.totals.filled_chunks
        assert fills[4.0] < fills[1.0] <= fills[0.5] * 1.05

    def test_fixed_horizon_override(self, small_trace):
        cache = CafeCache(64, cost_model=CostModel(2.0), horizon=3600.0)
        result = replay(cache, small_trace[:500])
        assert result.totals.num_requests == 500
