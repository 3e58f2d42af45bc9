"""handle_span_block_kernel: vectorized kernels must mirror the scalar walk.

Every kernel algorithm overrides
:meth:`~repro.core.base.VideoCache.handle_span_block_kernel` with a
numpy pre-screen (admission, residency) whose residue falls back to the
scalar per-request code.  The contract is observable identity with
:meth:`~repro.core.base.VideoCache.handle_span_block` — same responses,
same end state — plus the miss-index contract: ``misses`` is exactly
the ascending index list of every response that is not the interned
``SERVE_HIT``, and ``screened`` counts at most the block.  These tests
drive kernels over adversarial fuzz traces (ties, 1-chunk disks, alpha
extremes, oversized spans) and over the no-numpy fallback.

Probes ride the kernel lane: a probed replay dispatches exactly like a
plain one, and its probe registry is byte-identical on the object lane,
the packed kernel lane and the packed scalar block walk.

Satellite audit: the xLRU cleanup-cadence sweep pins the hand-inlined
tracker cleanup of the batched walks to ``_maybe_cleanup_tracker``
across degenerate intervals.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

import repro.sim.engine as engine_module
from repro.core.base import SERVE_HIT, VideoCache
from repro.obs import Telemetry, TelemetryOptions
from repro.sim.engine import replay
from repro.sim.runner import CACHE_FACTORIES, build_cache
from repro.trace.columnar import _np, pack_trace
from repro.verify.differential import KERNEL_ALGORITHMS, verify_kernel_lane
from repro.verify.fuzz import FuzzScenario, adversarial_trace

K = 1024

#: kernel-lane contract cases: every kernel-native algorithm, plus the
#: base-class default entry point (the scalar block walk plus a miss
#: scan, which KernelCache also takes for screen-less policies) over
#: Cafe's own block walk and over LRU-K's default block method
ENTRY_ALGORITHMS = KERNEL_ALGORITHMS + ("Cafe", "LRU-K")


def replay_kernel(cache, packed, block: int):
    """Block-by-block kernel replay; returns (responses, ok_misses)."""
    responses = []
    ok = True
    n = len(packed)
    for lo in range(0, n, block):
        view = packed.block_view(lo, min(lo + block, n))
        got, misses, screened = cache.handle_span_block_kernel(view)
        ok = ok and 0 <= screened <= view.n
        expected = [i for i, r in enumerate(got) if r is not SERVE_HIT]
        ok = ok and misses == expected
        responses.extend(got)
    return responses, ok


def replay_scalar_blocks(cache, packed, block: int):
    responses = []
    n = len(packed)
    for lo in range(0, n, block):
        view = packed.block_view(lo, min(lo + block, n))
        responses.extend(
            cache.handle_span_block(
                view.ts_l,
                view.videos_l,
                view.b0s_l,
                view.b1s_l,
                view.c0s_l,
                view.c1s_l,
            )
        )
    return responses


@pytest.mark.parametrize("algo", KERNEL_ALGORITHMS)
def test_every_kernel_algorithm_overrides_the_entry_point(algo):
    cache = build_cache(algo, 8, chunk_bytes=K)
    assert (
        type(cache).handle_span_block_kernel
        is not VideoCache.handle_span_block_kernel
    )


@pytest.mark.parametrize("algo", ENTRY_ALGORITHMS)
@pytest.mark.parametrize("seed,disk,alpha", [
    (101, 1, 0.5),
    (102, 2, 4.0),
    (103, 7, 1.0),
    (104, 32, 2.0),
])
@pytest.mark.parametrize("block", [1, 33, 256])
def test_kernel_matches_scalar_block_walk(algo, seed, disk, alpha, block):
    trace = adversarial_trace(seed=seed, num_requests=500, disk_chunks=disk)
    packed = pack_trace(trace, chunk_bytes=K)
    scalar = build_cache(algo, disk, alpha_f2r=alpha, chunk_bytes=K)
    kernel = build_cache(algo, disk, alpha_f2r=alpha, chunk_bytes=K)
    want = replay_scalar_blocks(scalar, packed, block)
    got, misses_ok = replay_kernel(kernel, packed, block)
    assert got == want
    assert misses_ok
    assert len(kernel) == len(scalar)


@pytest.mark.parametrize("algo", ENTRY_ALGORITHMS)
def test_kernel_lane_verifier_passes(algo):
    """The repro-verify kernel-lane check is green on the production caches."""
    scenario = FuzzScenario(
        seed=2024,
        num_requests=600,
        disk_chunks=7,
        chunk_bytes=1000,
        alpha_f2r=2.0,
        cache_kwargs={
            "xLRU": {"tracker_cleanup_interval": 97},
            "LFU": {"aging_interval": 89},
        },
    )
    result = verify_kernel_lane(algo, scenario)
    assert result.ok, str(result.divergence)


@pytest.mark.parametrize("algo", ENTRY_ALGORITHMS)
def test_kernel_state_keeps_evolving_identically(algo):
    """Post-kernel caches behave exactly like post-scalar caches."""
    head = adversarial_trace(seed=7, num_requests=400, disk_chunks=8)
    tail = adversarial_trace(seed=8, num_requests=150, disk_chunks=8)
    shift = head[-1].t
    tail = [type(r)(t=r.t + shift, video=r.video, b0=r.b0, b1=r.b1) for r in tail]
    packed = pack_trace(head, chunk_bytes=K)
    scalar = build_cache(algo, 8, chunk_bytes=K)
    kernel = build_cache(algo, 8, chunk_bytes=K)
    replay_scalar_blocks(scalar, packed, 64)
    replay_kernel(kernel, packed, 64)
    assert [scalar.handle(r) for r in tail] == [kernel.handle(r) for r in tail]


# -- probes ride the kernel lane ------------------------------------------------

#: algorithms whose probe registries must match across every engine lane
PROBE_PARITY_ALGORITHMS = (
    "xLRU", "Cafe", "PullLRU", "LFU", "LFU-PK", "qLRU", "Retention"
)
#: online algorithms whose caches fire probe hooks; PullLRU, the
#: hand-fused LFU, LRU-K and GDS fire none
PROBE_EMITTERS = {"xLRU", "Cafe", "LFU-PK", "qLRU", "Retention"}
#: parity algorithms whose kernels screen (qLRU has no screen, Cafe no kernel)
SCREENING_ALGORITHMS = ("xLRU", "LFU", "LFU-PK", "Retention")
PROBE_DISK = 64
#: small engine blocks, so screens run against full disks mid-trace
PROBE_BLOCK = 128


def _probed_lane(algo, requests):
    """One telemetry replay; returns (registry JSON, result)."""
    telemetry = Telemetry(TelemetryOptions(snapshot_every=0))
    cache = build_cache(algo, PROBE_DISK, alpha_f2r=2.0)
    result = replay(cache, requests, telemetry=telemetry, label=algo)
    return json.dumps(telemetry.lanes[algo].registry.to_dict()), result


@pytest.mark.parametrize("algo", PROBE_PARITY_ALGORITHMS)
def test_probe_registry_identical_across_lanes(algo, small_trace, monkeypatch):
    """Object lane, packed kernel lane and packed scalar block walk
    produce byte-identical probe registries: same counters in the same
    order, same histograms."""
    monkeypatch.setattr(engine_module, "PACKED_BLOCK", PROBE_BLOCK)
    packed = pack_trace(small_trace)
    # an iterator is never auto-packed: the object lane
    objects, object_result = _probed_lane(algo, iter(small_trace))
    monkeypatch.setenv(engine_module.NO_KERNELS_ENV, "0")
    kernel, kernel_result = _probed_lane(algo, packed)
    monkeypatch.setenv(engine_module.NO_KERNELS_ENV, "1")
    walk, _ = _probed_lane(algo, packed)
    assert object_result.report.extra["trace_format"] == "objects"
    assert kernel_result.report.extra["trace_format"] == "packed"
    assert kernel == objects
    assert walk == objects
    if algo in SCREENING_ALGORITHMS and _np is not None:
        # the probed kernel lane really screened
        assert kernel_result.report.extra["screen"][algo]["screened"] > 0
    assert _refilled_chunks(algo, small_trace) > 0


def _refilled_chunks(algo, trace) -> int:
    """How many chunk fills bring back a chunk filled (and evicted)
    earlier: the trace must fill, evict and refill for the parity test
    to cover every lifetime hook."""
    cache = build_cache(algo, PROBE_DISK, alpha_f2r=2.0)
    filled = set()
    refills = 0
    for request in trace:
        absent = [c for c in request.chunk_ids(cache.chunk_bytes) if c not in cache]
        if cache.handle(request).filled_chunks:
            refills += sum(chunk in filled for chunk in absent)
            filled.update(absent)
    return refills


def test_probe_event_emitters_pinned(small_trace):
    online = [
        name
        for name in CACHE_FACTORIES
        if not build_cache(name, PROBE_DISK).offline
    ]
    emitting = set()
    for algo in online:
        registry = json.loads(_probed_lane(algo, small_trace)[0])
        if registry["counters"] or registry["histograms"]:
            emitting.add(algo)
    assert emitting == PROBE_EMITTERS


def _count_entry_points(cache) -> Counter:
    """Wrap the cache's entry points on the instance; count calls."""
    calls: Counter = Counter()
    for name in (
        "handle",
        "handle_span",
        "handle_span_block",
        "handle_span_block_kernel",
    ):
        method = getattr(cache, name)

        def counted(*args, _method=method, _name=name):
            calls[_name] += 1
            return _method(*args)

        setattr(cache, name, counted)
    return calls


@pytest.mark.parametrize("algo", ("xLRU", "Cafe", "PullLRU", "LFU", "LFU-PK"))
def test_probed_and_plain_packed_replays_dispatch_alike(
    algo, small_trace, monkeypatch
):
    monkeypatch.setenv(engine_module.NO_KERNELS_ENV, "0")
    packed = pack_trace(small_trace)
    seen = {}
    for probed in (False, True):
        cache = build_cache(algo, PROBE_DISK, alpha_f2r=2.0)
        calls = _count_entry_points(cache)
        telemetry = Telemetry(TelemetryOptions()) if probed else None
        result = replay(cache, packed, telemetry=telemetry, label=algo)
        assert (cache.probe is not None) == probed
        seen[probed] = (dict(calls), result.report.extra["screen"])
    assert seen[True] == seen[False]
    calls = seen[True][0]
    if algo in KERNEL_ALGORITHMS:
        # no per-request fallback; blocks go to the kernel when numpy
        # columns are live, else to the hoisted block walk
        assert "handle_span" not in calls
        assert (calls.get("handle_span_block_kernel", 0) > 0) == (_np is not None)


# -- satellite audit: xLRU inlined tracker cleanup cadence ---------------------


@pytest.mark.parametrize("interval", [1, 2, 1023])
@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_xlru_cleanup_cadence_parity_across_lanes(interval, alpha):
    """The hand-inlined cleanup in the batched xLRU walks fires at the
    same positions, with the same cutoff and the same strictness, as
    ``_maybe_cleanup_tracker`` — across degenerate intervals (1 = fire
    every request, 2, and one larger than the trace)."""
    trace = adversarial_trace(seed=77, num_requests=700, disk_chunks=6)
    packed = pack_trace(trace, chunk_bytes=K)
    n = len(packed)

    def make():
        return build_cache(
            "xLRU",
            6,
            alpha_f2r=alpha,
            chunk_bytes=K,
            tracker_cleanup_interval=interval,
        )

    scalar = make()
    walker = make()
    kernel = make()
    want = [scalar.handle(r) for r in trace]
    got_walk = replay_scalar_blocks(walker, packed, 97)
    got_kernel, misses_ok = replay_kernel(kernel, packed, 97)
    assert got_walk == want
    assert got_kernel == want
    assert misses_ok
    for other in (walker, kernel):
        assert other._tracker.raw_entries() == scalar._tracker.raw_entries()
        assert other._disk.raw_entries() == scalar._disk.raw_entries()
        assert other._requests_since_cleanup == scalar._requests_since_cleanup
