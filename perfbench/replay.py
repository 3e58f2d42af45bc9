"""Replay workloads: the Fig. 4/5 sweep and the probed ``repro sim``.

``replay-sweep`` is the paper's Fig. 4/5 job on the whole Europe trace:
``pack_trace`` -> ``run_matrix`` -> ``results_table`` over xLRU and
Cafe at four alphas plus the cost-blind policies at alpha = 2.  The
cache decisions (``core``) and the packed engine (``sim``) do nearly all
the work; no ``cdn``, ``serve`` or ``obs`` code runs.

``replay-probed`` is ``repro sim --telemetry``: xLRU, PullLRU and LFU-PK
replayed with cache probes attached, ending with ``write_telemetry``.
It is the only workload in which ``obs`` runs.
"""

from __future__ import annotations

from typing import Dict

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
from perfbench.inputs import ALPHA, europe_trace
from perfbench.layers import attribution, put_generate, traced
from perfbench.spans import Tracer
from perfbench.speed import SpeedSampler

SWEEP_ALPHAS = (0.5, 1.0, 2.0, 4.0)
SWEEP_COST_BLIND = ("PullLRU", "LFU", "LFU-PK", "qLRU", "Retention")
SWEEP_ALGORITHMS = ("xLRU", "Cafe") + SWEEP_COST_BLIND
PROBED_ALGORITHMS = ("xLRU", "PullLRU", "LFU-PK")


def sweep_configs(disk: int):
    from repro.sim.runner import RunConfig

    configs = [
        RunConfig(algo, disk, alpha, label=f"{algo}@{alpha:g}")
        for algo in ("xLRU", "Cafe")
        for alpha in SWEEP_ALPHAS
    ]
    configs += [
        RunConfig(algo, disk, ALPHA, label=f"{algo}@{ALPHA:g}")
        for algo in SWEEP_COST_BLIND
    ]
    return configs


def _algo(label: str) -> str:
    return label.split("@", 1)[0]


def totals_by_cell(results) -> Dict[str, dict]:
    return {key: result.totals.to_dict() for key, result in results.items()}


def sweep_job(trace, configs):
    """The timed Fig. 4/5 job; returns ``(results, table rows)``."""
    from repro.sim.runner import results_table, run_matrix
    from repro.trace.columnar import pack_trace

    packed = pack_trace(trace)
    results = run_matrix(configs, packed, mode="serial")
    return results, results_table(results)


def probed_job(trace, disk: int, out_path: str):
    """``repro sim --telemetry`` for each probed algorithm, then export."""
    from repro.obs import Telemetry, TelemetryOptions, write_telemetry
    from repro.sim.engine import replay
    from repro.sim.runner import build_cache

    telemetry = Telemetry(TelemetryOptions())
    results = {}
    for algo in PROBED_ALGORITHMS:
        cache = build_cache(algo, disk, alpha_f2r=ALPHA)
        results[algo] = replay(cache, trace, telemetry=telemetry, label=algo)
    reports = [r.report for r in results.values() if r.report is not None]
    write_telemetry(out_path, telemetry, reports=reports)
    return results


def plain_job(trace, disk: int, algo: str):
    from repro.sim.engine import replay
    from repro.sim.runner import build_cache

    return replay(build_cache(algo, disk, alpha_f2r=ALPHA), trace)


def _oracle_check(outcome: Outcome, trace, disk: int, algorithms, prefix: int) -> None:
    """Production caches vs the reference oracles on a trace prefix."""
    from repro.sim.engine import replay
    from repro.sim.runner import build_cache
    from repro.verify.oracles import build_oracle

    head = trace[:prefix]
    for algo in algorithms:
        fast = replay(build_cache(algo, disk, alpha_f2r=ALPHA), head).totals
        slow = replay(build_oracle(algo, disk, alpha_f2r=ALPHA), head).totals
        outcome.check(
            f"oracle.{algo}", fast == slow,
            f"first {len(head)} requests: cache {fast} vs oracle {slow}",
        )


def _layer_block_metrics(outcome: Outcome, tracer: Tracer, root: int, results, algorithms) -> None:
    """core/sim per-algorithm split of a traced sweep."""
    selfs = tracer.self_times()
    inside = tracer.subtree(root)
    owner = {id(result.metrics): _algo(key) for key, result in results.items()}
    core_s = {algo: 0.0 for algo in algorithms}
    metrics_s = {algo: 0.0 for algo in algorithms}
    block_calls = kernel_calls = 0
    for i in inside:
        group = tracer.groups[i]
        if group == "core":
            algo, entry, _n = tracer.tags[i]
            core_s[algo] = core_s.get(algo, 0.0) + selfs[i]
            if entry in ("handle_span_block_kernel", "handle_span_block"):
                block_calls += 1
                kernel_calls += entry == "handle_span_block_kernel"
        elif group == "sim.metrics":
            algo = owner.get(tracer.tags[i])
            if algo is not None:
                metrics_s[algo] = metrics_s.get(algo, 0.0) + selfs[i]
    for algo in algorithms:
        outcome.put(f"core.block_s.{algo}", core_s[algo], "s")
        outcome.put(f"sim.replay_s.{algo}", core_s[algo] + metrics_s[algo], "s")
    outcome.put("core.block_calls", block_calls, "count")
    outcome.put("core.kernel_call_share", kernel_calls / max(block_calls, 1), "ratio")
    outcome.put(
        "sim.metrics_s",
        sum(selfs[i] for i in inside if tracer.groups[i] == "sim.metrics"),
        "s",
    )
    outcome.put(
        "sim.engine_self_s",
        sum(selfs[i] for i in inside if tracer.groups[i] == "sim.engine"),
        "s",
    )
    outcome.put(
        "trace.pack_s",
        sum(tracer.duration(i) for i in inside if tracer.groups[i] == "trace.pack"),
        "s",
    )


def run_sweep(
    seed: int, seconds: float, trace_on: bool, sizing: Sizing, sampler: SpeedSampler
) -> Outcome:
    outcome = Outcome()
    tracer = Tracer(f"replay-sweep/{seed}") if trace_on else None
    if tracer is not None:
        layers.install(tracer)
    try:
        setup, (trace, disk) = timed_setups(lambda: europe_trace(sizing, seed), sampler)
        if tracer is not None:
            put_generate(outcome, tracer)
            tracer.uninstall()
        configs = sweep_configs(disk)
        job, (results, rows) = repeat_for(
            lambda: sweep_job(trace, configs), seconds, sampler
        )
        put_job_metrics(
            outcome, setup, job, len(trace) * len(configs),
            f"replay-sweep: {len(trace)} requests x {len(configs)} cells, "
            f"disk {disk} chunks",
        )
        cells = totals_by_cell(results)
        outcome.check("rows", len(rows) == len(configs), f"{len(rows)} table rows")
        check_digest(outcome, "replay-sweep", sizing, seed, digest(cells))

        if tracer is not None:
            root, (traced_results, _rows), traced_run = traced(
                tracer, sampler, lambda: sweep_job(trace, configs)
            )
            outcome.check(
                "traced-equals-untraced",
                totals_by_cell(traced_results) == cells,
                "tracing changed the replay totals",
            )
            attribution(outcome, tracer, root, traced_run, job)
            _layer_block_metrics(outcome, tracer, root, traced_results, SWEEP_ALGORITHMS)
            for key, result in results.items():
                algo, alpha = key.split("@")
                if float(alpha) != ALPHA:
                    continue
                totals = result.totals
                outcome.put(f"core.{algo}.efficiency", totals.efficiency, "ratio")
                outcome.put(f"core.{algo}.redirect_ratio", totals.redirect_ratio, "ratio")
                outcome.put(f"core.{algo}.fill_chunks", totals.filled_chunks, "count")
                outcome.put(
                    f"core.{algo}.evicted_chunks",
                    totals.filled_chunks - len(result.cache),
                    "count",
                )
            tracer.write(str(scratch_dir() / "spans.jsonl"))

        _oracle_check(outcome, trace, disk, SWEEP_ALGORITHMS, sizing.oracle_prefix)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcome


def run_probed(
    seed: int, seconds: float, trace_on: bool, sizing: Sizing, sampler: SpeedSampler
) -> Outcome:
    outcome = Outcome()
    tracer = Tracer(f"replay-probed/{seed}") if trace_on else None
    if tracer is not None:
        layers.install(tracer)
    out_path = str(scratch_dir() / "telemetry.jsonl")
    try:
        setup, (trace, disk) = timed_setups(lambda: europe_trace(sizing, seed), sampler)
        if tracer is not None:
            put_generate(outcome, tracer)
            tracer.uninstall()
        cells = len(PROBED_ALGORITHMS)
        job, results = repeat_for(
            lambda: probed_job(trace, disk, out_path), seconds, sampler
        )
        put_job_metrics(
            outcome, setup, job, len(trace) * cells,
            f"replay-probed: {len(trace)} requests x {cells} probed cells, "
            f"disk {disk} chunks",
        )
        probed_totals = {algo: r.totals for algo, r in results.items()}
        plain = {algo: plain_job(trace, disk, algo) for algo in PROBED_ALGORITHMS}
        for algo in PROBED_ALGORITHMS:
            outcome.check(
                f"probed-equals-plain.{algo}",
                probed_totals[algo] == plain[algo].totals,
                f"probes changed {algo}'s totals",
            )
        with open(out_path, encoding="utf-8") as records:
            count = sum(1 for _ in records)
        outcome.check("telemetry-written", count > 0, "empty telemetry export")
        check_digest(
            outcome, "replay-probed", sizing, seed,
            digest({a: t.to_dict() for a, t in probed_totals.items()}),
        )

        if tracer is not None:
            _probed_layers(
                outcome, tracer, trace, disk, out_path, job, seconds, sampler
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcome


def _probed_layers(outcome, tracer, trace, disk, out_path, job, seconds, sampler):
    """Plain vs probed replay per algorithm, then the traced job."""
    budget = seconds / (4 * len(PROBED_ALGORITHMS))
    for algo in PROBED_ALGORITHMS:
        plain_s = repeat_for(lambda: plain_job(trace, disk, algo), budget, sampler)[0].median
        probed_s = repeat_for(
            lambda: _probed_one(trace, disk, algo), budget, sampler
        )[0].median
        outcome.put(f"obs.plain_replay_s.{algo}", plain_s, "s")
        outcome.put(f"obs.probed_replay_s.{algo}", probed_s, "s")
        outcome.put(f"obs.probe_overhead.{algo}", probed_s / plain_s, "ratio")
        outcome.notes.append(
            f"probe overhead {algo}: probed {probed_s:.4f}s / plain {plain_s:.4f}s"
        )
    tracer.collapsed.clear()
    root, results, traced_run = traced(
        tracer, sampler, lambda: probed_job(trace, disk, out_path)
    )
    attribution(outcome, tracer, root, traced_run, job)
    inside = tracer.subtree(root)
    outcome.put(
        "obs.write_s",
        sum(tracer.duration(i) for i in inside if tracer.groups[i] == "obs.write"),
        "s",
    )
    handled = len(trace) * len(PROBED_ALGORITHMS)
    scalar = sum(
        count for name, count in tracer.collapsed.items()
        if name.endswith((".handle_span", ".handle"))
    )
    outcome.put("obs.scalar_fallback_share", scalar / handled, "ratio")
    _layer_block_metrics(outcome, tracer, root, results, PROBED_ALGORITHMS)
    tracer.write(str(scratch_dir() / "spans.jsonl"))


def _probed_one(trace, disk: int, algo: str):
    from repro.obs import Telemetry, TelemetryOptions
    from repro.sim.engine import replay
    from repro.sim.runner import build_cache

    telemetry = Telemetry(TelemetryOptions())
    return replay(build_cache(algo, disk, alpha_f2r=ALPHA), trace, telemetry=telemetry, label=algo)
