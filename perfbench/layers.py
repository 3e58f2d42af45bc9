"""Which program entry points belong to which layer, and their wrappers.

The layers are the repository's modules: ``workload``, ``trace``,
``core`` (``core.policy`` and ``structures`` run inside cache calls),
``sim``, ``cdn``, ``serve`` and ``obs``.  :func:`install` wraps the
public entry points each layer exposes to the next one up; work done
below an entry point (a cache's data structures, a probe's hooks) is
attributed to the layer whose entry point was called.

Core spans carry the tag ``(algorithm, entry point, requests)`` so the
benchmark can split cache time per algorithm and count how many block
calls went to a decision kernel.  Metrics spans carry the collector's
``id`` so their time can be charged to the algorithm that owns it.
"""

from __future__ import annotations

from typing import Callable, Dict

from perfbench.common import SETUP_REPEATS, Outcome, Timing, timed
from perfbench.spans import Tracer
from perfbench.speed import SpeedSampler

__all__ = ["CORE_ENTRY_POINTS", "attribution", "install", "put_generate", "traced"]

#: Largest share of a traced job's wall time its layers may leave
#: unattributed (the benchmark's own glue inside the job).
ATTRIBUTION_TOLERANCE = 0.05
LAYERS = ("trace", "core", "sim", "cdn", "serve", "obs")

#: cache methods the engine, the CDN walk and the daemon call
CORE_ENTRY_POINTS = (
    "handle_span_block_kernel",
    "handle_span_block",
    "handle_span",
    "handle",
)


def _cache_classes():
    from repro.core.base import VideoCache
    from repro.sim.runner import build_cache, CACHE_FACTORIES

    classes = set()
    for algorithm, factory in CACHE_FACTORIES.items():
        if getattr(factory, "offline", False):
            continue
        classes.update(type(build_cache(algorithm, 64)).__mro__)
    return [cls for cls in classes if issubclass(cls, VideoCache)]


def _core_tag(entry: str):
    if entry == "handle_span_block_kernel":
        return lambda cache, block: (cache.name, entry, block.n)
    if entry == "handle_span_block":
        return lambda cache, ts, *rest: (cache.name, entry, len(ts))
    return lambda cache, *rest: (cache.name, entry, 1)


def _collector_tag(collector, *rest):
    return id(collector)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; ``tracer.uninstall()`` undoes it."""
    from repro.cdn.multiserver import CdnSimulator
    from repro.obs.jsonl import write_telemetry
    from repro.obs.telemetry import LaneTelemetry
    from repro.serve.daemon import DecisionService
    from repro.serve.protocol import parse_line
    from repro.sim.engine import MultiReplay, replay
    from repro.sim.metrics import MetricsCollector
    from repro.sim.runner import results_table, run_matrix
    from repro.sim.schedule import SweepScheduler
    from repro.trace.columnar import PackedTrace, pack_trace
    from repro.trace.fleet import FleetTrace
    from repro.workload.generator import TraceGenerator

    for attr in ("generate", "generate_packed"):
        tracer.install_method(TraceGenerator, attr, "workload")
    tracer.install_function(pack_trace, "trace.pack")
    tracer.install_method(FleetTrace, "__init__", "trace.fleet_build")
    tracer.install_method(FleetTrace, "_compute_runs", "trace.merge_plan")
    tracer.install_method(PackedTrace, "block_view", "trace.view")
    tracer.install_method(PackedTrace, "hot_columns", "trace.view")
    for cls in _cache_classes():
        for entry in CORE_ENTRY_POINTS:
            tracer.install_method(cls, entry, "core", _core_tag(entry))
    for fn in (run_matrix, results_table, replay):
        tracer.install_function(fn, "sim.engine")
    tracer.install_method(SweepScheduler, "run", "sim.engine")
    tracer.install_method(MultiReplay, "run", "sim.engine")
    for attr in ("record_packed_block", "record_packed", "record_raw", "record"):
        tracer.install_method(MetricsCollector, attr, "sim.metrics", _collector_tag)
    tracer.install_method(CdnSimulator, "run", "cdn")
    tracer.install_function(parse_line, "serve.parse")
    tracer.install_method(DecisionService, "apply", "serve.apply")
    tracer.install_function(write_telemetry, "obs.write")
    tracer.install_method(LaneTelemetry, "sample", "obs.sample")
    tracer.install_method(LaneTelemetry, "finish", "obs.sample")


def traced(tracer: Tracer, sampler: SpeedSampler, job: Callable[[], object]):
    """Run ``job`` once with every layer wrapped, under a root span.

    Returns ``(root span index, result, timing)``; the wrappers are
    removed again before this returns.
    """
    timing = Timing()

    def work():
        with tracer.span("job", "bench") as root:
            return root, job()

    install(tracer)
    try:
        root, result = timed(timing, 0, sampler, work)
    finally:
        tracer.uninstall()
    return root, result, timing


def attribution(
    outcome: Outcome,
    tracer: Tracer,
    root: int,
    traced_run: Timing,
    untraced: Timing,
    check: bool = True,
) -> Dict[str, float]:
    """Per-layer self seconds of the job, the sum check and overheads.

    With ``check``, the layers' self times must add up to the traced
    job's wall time within :data:`ATTRIBUTION_TOLERANCE`; what is left
    is the benchmark's own code inside the job.  The tracing overhead
    compares speed-scaled times of the traced run and the untraced
    repeats.
    """
    wall = tracer.duration(root)
    per_layer = tracer.layer_self(root)
    attributed = sum(s for layer, s in per_layer.items() if layer != "bench")
    unattributed = wall - attributed
    if check:
        outcome.check(
            "attribution",
            abs(unattributed) <= ATTRIBUTION_TOLERANCE * wall,
            f"layers cover {attributed:.4f}s of {wall:.4f}s traced wall "
            f"(tolerance {ATTRIBUTION_TOLERANCE:.0%})",
        )
    outcome.notes.append(
        f"traced job {wall:.4f}s = "
        + " + ".join(f"{layer} {s:.4f}s" for layer, s in sorted(per_layer.items()))
    )
    outcome.put("bench.unattributed_share", unattributed / wall, "ratio")
    outcome.put("bench.trace_overhead", traced_run.median / untraced.median - 1.0, "ratio")
    outcome.notes.append(
        f"tracing overhead: traced {traced_run.median:.4f}s vs untraced median "
        f"{untraced.median:.4f}s (speed-scaled)"
    )
    for layer in LAYERS:
        outcome.put(f"{layer}.self_s", per_layer.get(layer, 0.0), "s")
    return per_layer


def put_generate(outcome: Outcome, tracer: Tracer) -> None:
    """Mean trace-generation seconds per traced set-up."""
    total = sum(
        tracer.duration(i)
        for i in range(len(tracer.starts))
        if tracer.groups[i] == "workload"
    )
    outcome.put("workload.generate_s", total / SETUP_REPEATS, "s")
