"""handle_span_block: the batched lane must mirror scalar handle_span.

PullLRU, xLRU, LFU and Cafe override :meth:`VideoCache.handle_span_block`
with hoisted-invariant hot loops for the sweep and fleet replay lanes;
the contract is *observable identity* with the scalar path — same response
sequence, same end state, request by request.  These tests drive both
lanes over the same randomized time-sorted stream and compare
responses, disk contents and subsequent scalar behaviour.
"""

from __future__ import annotations

import pytest

from repro.core.base import VideoCache
from repro.sim.runner import build_cache

K = 1024
BLOCK_ALGOS = ["PullLRU", "xLRU", "LFU", "Cafe"]
#: Algorithms relying on the default (scalar-delegating) block method —
#: exercised to pin the base-class contract itself.
DEFAULT_ALGOS = ["LRU-K"]


def request_columns(n: int = 400, videos: int = 23, seed: int = 11):
    """Deterministic time-sorted packed columns with reuse and ties."""
    ts, vids, b0s, b1s, c0s, c1s = [], [], [], [], [], []
    t = 0.0
    state = seed
    for _ in range(n):
        state = (state * 48271) % 2147483647
        t += (state % 4) * 0.25  # ties whenever state % 4 == 0
        video = state % videos
        c0 = state % 7
        c1 = c0 + (state >> 8) % 3
        ts.append(t)
        vids.append(video)
        b0s.append(c0 * K)
        b1s.append((c1 + 1) * K - 1)
        c0s.append(c0)
        c1s.append(c1)
    return ts, vids, b0s, b1s, c0s, c1s


def replay_scalar(cache, columns):
    return [cache.handle_span(*row) for row in zip(*columns)]


def replay_blocks(cache, columns, block: int):
    n = len(columns[0])
    responses = []
    for lo in range(0, n, block):
        responses.extend(
            cache.handle_span_block(*(col[lo : lo + block] for col in columns))
        )
    return responses


def occupancy(cache, videos: int = 23, chunks: int = 16):
    return {
        (v, c)
        for v in range(videos)
        for c in range(chunks)
        if (v, c) in cache
    }


@pytest.mark.parametrize("algo", BLOCK_ALGOS + DEFAULT_ALGOS)
def test_block_method_roles(algo):
    """BLOCK_ALGOS override the block entry; DEFAULT_ALGOS keep the
    base-class default, so both sides of the contract stay covered."""
    overrides = (
        type(build_cache(algo, 8, chunk_bytes=K)).handle_span_block
        is not VideoCache.handle_span_block
    )
    assert overrides == (algo in BLOCK_ALGOS)


@pytest.mark.parametrize("algo", BLOCK_ALGOS + DEFAULT_ALGOS)
@pytest.mark.parametrize("block", [1, 7, 64, 400])
def test_block_lane_matches_scalar_lane(algo, block):
    columns = request_columns()
    scalar = build_cache(algo, 48, chunk_bytes=K)
    batched = build_cache(algo, 48, chunk_bytes=K)
    want = replay_scalar(scalar, columns)
    got = replay_blocks(batched, columns, block)
    assert got == want
    assert len(batched) == len(scalar)
    assert occupancy(batched) == occupancy(scalar)


@pytest.mark.parametrize("algo", BLOCK_ALGOS)
def test_state_after_block_replay_behaves_identically(algo):
    """Post-block caches keep evolving like post-scalar caches."""
    columns = request_columns(300)
    tail = request_columns(120, seed=29)
    last_t = columns[0][-1]
    tail = ([t + last_t for t in tail[0]],) + tail[1:]
    scalar = build_cache(algo, 32, chunk_bytes=K)
    batched = build_cache(algo, 32, chunk_bytes=K)
    replay_scalar(scalar, columns)
    replay_blocks(batched, columns, 50)
    assert replay_scalar(scalar, tail) == replay_scalar(batched, tail)
    assert occupancy(batched) == occupancy(scalar)


@pytest.mark.parametrize("algo", BLOCK_ALGOS + DEFAULT_ALGOS)
def test_empty_block_is_a_noop(algo):
    cache = build_cache(algo, 16, chunk_bytes=K)
    assert cache.handle_span_block([], [], [], [], [], []) == []
    assert len(cache) == 0
