"""Fleet workload: six paper regions as edges, one parent, the origin.

Every cache is xLRU at alpha = 2.  Edge disks are the scaled 1 TB
(0.18 x each edge's footprint); the parent's disk is 0.18 x the sum.
The timed job is what a fleet replay costs a user:
``FleetTrace(...)`` + ``merge_runs()`` + ``CdnSimulator.run``.  It is
the only workload that runs the ``cdn`` hop walk and the ``trace``
merge plan; the batched fleet lane hands ``core`` each edge's whole
shard and then the parent's buffered hops.
"""

from __future__ import annotations

from perfbench import layers
from perfbench.common import (
    Outcome,
    Sizing,
    check_digest,
    digest,
    put_job_metrics,
    repeat_for,
    scratch_dir,
    timed_setups,
)
from perfbench.inputs import ALPHA, DISK_FRACTION, seeded_generator
from perfbench.layers import attribution, put_generate, traced
from perfbench.spans import Tracer
from perfbench.speed import SpeedSampler

ALGORITHM = "xLRU"
PARENT = "parent"


def edge_seed(seed: int, index: int) -> int:
    """Per-edge generator seed; generators use seed, seed + 1, seed + 2."""
    return seed * 1000 + 10 * index


def _footprint(shard) -> int:
    chunks = set()
    for video, c0, c1 in zip(
        shard.column("video").tolist(),
        shard.column("c0").tolist(),
        shard.column("c1").tolist(),
    ):
        chunks.update((video, c) for c in range(c0, c1 + 1))
    return len(chunks)


def fleet_shards(sizing: Sizing, seed: int):
    """Packed per-edge shards and each edge's disk size (chunks)."""
    from repro.workload.servers import paper_server_profiles

    profiles = paper_server_profiles()
    shards = {
        name: seeded_generator(
            profiles[name].scaled(sizing.profile_scale), edge_seed(seed, i), sizing.days
        ).generate_packed(days=sizing.days)
        for i, name in enumerate(sorted(profiles))
    }
    footprints = {name: _footprint(shard) for name, shard in shards.items()}
    return shards, footprints


def simulator(footprints):
    from repro.cdn.multiserver import CdnSimulator
    from repro.cdn.topology import hierarchy
    from repro.sim.runner import build_cache

    def cache(footprint: int):
        return build_cache(
            ALGORITHM, max(16, int(footprint * DISK_FRACTION)), alpha_f2r=ALPHA
        )

    edges = {name: cache(fp) for name, fp in footprints.items()}
    return CdnSimulator(
        hierarchy(edges, cache(sum(footprints.values())), parent_name=PARENT)
    )


def fleet_job(shards, sim):
    """The timed job; returns ``(fleet, result)``."""
    from repro.trace.fleet import FleetTrace

    fleet = FleetTrace(shards)
    fleet.merge_runs()
    return fleet, sim.run(fleet)


def fingerprint(result) -> dict:
    """Every exact count of one CDN replay, JSON-able."""
    return {
        "per_server": {
            name: result.summary(name).to_dict() for name in sorted(result.per_server)
        },
        "origin_bytes": result.origin_bytes,
        "origin_requests": result.origin_requests,
        "origin_fill_requests": result.origin_fill_requests,
        "origin_fill_bytes": result.origin_fill_bytes,
        "origin_redirect_bytes": result.origin_redirect_bytes,
        "redirect_hops": sorted(result.redirect_hops.items()),
        "num_user_requests": result.num_user_requests,
        "user_requested_bytes": result.user_requested_bytes,
        "requests_lost": result.requests_lost,
    }


def _lane_check(outcome: Outcome, shards, footprints, limit: int) -> None:
    """Packed fleet lane vs the object lane on the fleet's first requests.

    The shards are cut at one time so the prefix is a real fleet prefix.
    """
    from repro.trace.columnar import pack_trace

    ts = sorted(t for shard in shards.values() for t in shard.column("t").tolist())
    cut = ts[min(limit, len(ts)) - 1]
    objects = {}
    packed = {}
    for name, shard in shards.items():
        head = [r for r in shard if r.t <= cut]
        objects[name] = head
        packed[name] = pack_trace(head, chunk_bytes=shard.chunk_bytes)
    object_result = simulator(footprints).run(objects)
    packed_result = simulator(footprints).run(packed)
    outcome.check(
        "fleet.packed-equals-object",
        fingerprint(object_result) == fingerprint(packed_result),
        f"packed and object lanes differ on the first {limit} requests",
    )


def run_fleet(
    seed: int, seconds: float, trace_on: bool, sizing: Sizing, sampler: SpeedSampler
) -> Outcome:
    outcome = Outcome()
    tracer = Tracer(f"fleet-hierarchy/{seed}") if trace_on else None
    if tracer is not None:
        layers.install(tracer)
    try:
        setup, (shards, footprints) = timed_setups(lambda: fleet_shards(sizing, seed), sampler)
        if tracer is not None:
            put_generate(outcome, tracer)
            tracer.uninstall()
        n = sum(len(shard) for shard in shards.values())
        job, (fleet, result) = repeat_for(
            lambda sim: fleet_job(shards, sim),
            seconds,
            sampler,
            prepare=lambda: simulator(footprints),
        )
        runs = len(fleet.merge_runs()[0])
        put_job_metrics(
            outcome, setup, job, n,
            f"fleet-hierarchy: {n} user requests on {len(shards)} edges, "
            f"{runs} merge runs",
        )
        outcome.check(
            "fleet.lane",
            result.report.extra.get("trace_format") == "packed-batched",
            f"fleet replayed on lane {result.report.extra.get('trace_format')}",
        )
        outcome.check(
            "fleet.requests", result.num_user_requests == n,
            f"{result.num_user_requests} of {n} user requests replayed",
        )
        check_digest(outcome, "fleet-hierarchy", sizing, seed, digest(fingerprint(result)))
        _lane_check(outcome, shards, footprints, sizing.fleet_check_requests)

        if tracer is not None:
            sim = simulator(footprints)
            root, (_fleet, traced_result), traced_run = traced(
                tracer, sampler, lambda: fleet_job(shards, sim)
            )
            outcome.check(
                "traced-equals-untraced",
                fingerprint(traced_result) == fingerprint(result),
                "tracing changed the fleet replay",
            )
            attribution(outcome, tracer, root, traced_run, job)
            _fleet_layers(outcome, tracer, root, traced_result, n, runs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcome


def _fleet_layers(outcome, tracer, root, result, n, runs) -> None:
    selfs = tracer.self_times()
    inside = tracer.subtree(root)

    def total(group, own=False):
        return sum(
            selfs[i] if own else tracer.duration(i)
            for i in inside
            if tracer.groups[i] == group
        )

    core = [i for i in inside if tracer.groups[i] == "core"]
    core_requests = sum(tracer.tags[i][2] for i in core)
    outcome.put("trace.fleet_build_s", total("trace.fleet_build"), "s")
    outcome.put("trace.merge_plan_s", total("trace.merge_plan"), "s")
    outcome.put("trace.merge_runs", runs, "count")
    outcome.put("trace.requests_per_run", n / max(runs, 1), "req/run")
    outcome.put("core.fleet_block_s", sum(selfs[i] for i in core), "s")
    outcome.put("core.fleet_block_size", core_requests / max(len(core), 1), "req/call")
    outcome.put("core.block_calls", len(core), "count")
    outcome.put("sim.metrics_s", total("sim.metrics", own=True), "s")
    outcome.put("cdn.run_s", total("cdn"), "s")
    outcome.put("cdn.walk_self_s", total("cdn", own=True), "s")
    outcome.put("cdn.parent_requests", result.summary(PARENT).num_requests, "count")
    outcome.put("cdn.origin_requests", result.origin_requests, "count")
    outcome.put("cdn.origin_bytes", result.origin_bytes, "B")
    tracer.write(str(scratch_dir() / "spans.jsonl"))
