"""Cafe's one decision walk, differentially against every other lane.

``CafeCache._walk`` is the only Cafe decision path: ``handle_span_block``
runs it per block, ``handle_span`` per request.  Hypothesis drives small
time-sorted traces through

* the walk per block (``handle_span_block``) at block sizes 1, 2 and n,
  with and without a probe attached,
* the per-request ``handle_span`` with a probe attached,
* the independent reference :class:`~repro.verify.oracles.OracleCafe`,

and requires identical responses and end state everywhere, plus
byte-identical probe registries across the probed production lanes.
The configurations reach each branch of the walk: a fixed horizon, no
ghost history, no video estimate, a 1-chunk disk, oversized spans, an
unbounded warm-up horizon and siblings with equal keys.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cafe import CafeCache
from repro.core.costs import CostModel
from repro.obs.probes import CafeProbe
from repro.trace.requests import Request
from repro.verify.oracles import build_oracle

K = 1024

#: name -> (disk chunks, cache knobs, trace shape)
CONFIGS = {
    "default": (6, {}, "mixed"),
    "fixed-horizon": (6, {"horizon": 5.0}, "mixed"),
    "no-ghosts": (6, {"ghost_factor": 0.0}, "mixed"),
    "no-video-estimate": (6, {"use_video_iat_estimate": False}, "mixed"),
    "one-chunk-disk": (1, {}, "mixed"),
    "oversized": (2, {}, "wide"),
    "warm-up": (10_000, {}, "mixed"),
    "equal-key-siblings": (5, {}, "whole-videos"),
}

#: time steps: ties (0), dyadic steps, and gaps long enough to age out
STEPS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 10.0])


def _rows(shape: str):
    """Strategy for one request ``(dt, video, c0, c1)`` of a trace shape."""
    if shape == "whole-videos":
        # every request covers chunks 0..k of its video: chunks first
        # seen together and filled together share (dt, t_last), so cached
        # siblings tie on their Eq. 9 keys when a longer span arrives
        return st.tuples(
            STEPS, st.integers(0, 2), st.just(0), st.integers(0, 2)
        )
    span = 4 if shape == "wide" else 2
    return st.tuples(
        STEPS, st.integers(0, 3), st.integers(0, 4), st.integers(0, span)
    ).map(lambda row: (row[0], row[1], row[2], row[2] + row[3]))


@st.composite
def traces(draw, shape: str):
    rows = draw(st.lists(_rows(shape), min_size=1, max_size=60))
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    t = 0.0
    requests = []
    for dt, video, c0, c1 in rows:
        t += dt
        requests.append(Request(t, video, c0 * K, (c1 + 1) * K - 1))
    return requests, alpha


def _columns(requests):
    return (
        [r.t for r in requests],
        [r.video for r in requests],
        [r.b0 for r in requests],
        [r.b1 for r in requests],
        [r.b0 // K for r in requests],
        [r.b1 // K for r in requests],
    )


def _state(cache: CafeCache):
    """Everything the walk mutates, in order where order is observable."""
    return (
        {chunk: (s.dt, s.t_last) for chunk, s in cache._stats.items()},
        list(cache._cached.raw_index().items()),
        list(cache._ghosts.items()),
        {video: sorted(numbers) for video, numbers in cache._video_chunks.items()},
    )


def _lane(disk, alpha, knobs, columns, block, probed):
    cache = CafeCache(disk, chunk_bytes=K, cost_model=CostModel(alpha), **knobs)
    if probed:
        cache.probe = CafeProbe()
    n = len(columns[0])
    if block is None:
        responses = [cache.handle_span(*row) for row in zip(*columns)]
    else:
        responses = []
        for lo in range(0, n, block):
            responses.extend(
                cache.handle_span_block(*(col[lo : lo + block] for col in columns))
            )
    registry = json.dumps(cache.probe.registry.to_dict()) if probed else None
    return responses, cache, registry


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_walk_matches_handle_span_and_oracle(config):
    disk, knobs, shape = CONFIGS[config]

    @settings(max_examples=40, deadline=None)
    @given(traces(shape))
    def check(case):
        requests, alpha = case
        columns = _columns(requests)
        n = len(requests)
        want, scalar, want_registry = _lane(disk, alpha, knobs, columns, None, True)
        for block in sorted({1, 2, n}):
            for probed in (False, True):
                got, cache, registry = _lane(disk, alpha, knobs, columns, block, probed)
                assert got == want
                assert _state(cache) == _state(scalar)
                if probed:
                    assert registry == want_registry

        oracle = build_oracle("Cafe", disk, alpha_f2r=alpha, chunk_bytes=K, **knobs)
        assert [oracle.handle(r) for r in requests] == want
        assert set(oracle._cached) == set(scalar._cached.raw_index())
        assert {c: tuple(s) for c, s in oracle._stats.items()} == _state(scalar)[0]
        assert sorted(oracle._ghosts, key=oracle._ghosts.get) == list(scalar._ghosts)

    check()


def test_configurations_reach_their_branches():
    """The hand-picked traces below drive the branches the configs name,
    so the hypothesis matrix is not vacuous."""
    # oversized: a 3-chunk span on a 2-chunk disk redirects as such
    probe = CafeProbe()
    cache = CafeCache(2, chunk_bytes=K)
    cache.probe = probe
    cache.handle(Request(0.0, 1, 0, 3 * K - 1))
    assert probe.registry.counters["redirect.oversized"] == 1

    # equal keys: chunks first seen together (redirected at costly
    # ingress), then filled together with own history, share (dt, t_last)
    cache = CafeCache(5, chunk_bytes=K, cost_model=CostModel(4.0))
    assert not cache.handle(Request(0.0, 1, 0, 2 * K - 1)).served
    assert cache.handle(Request(1.0, 1, 0, 2 * K - 1)).filled_chunks == 2
    keys = [cache._cached.score((1, c)) for c in (0, 1)]
    assert keys[0] == keys[1]

    # warm-up: the horizon stays unbounded on a disk that never fills
    cache = CafeCache(10_000, chunk_bytes=K)
    cache.handle(Request(0.0, 1, 0, K - 1))
    assert cache.cache_age(1.0) == float("inf")
