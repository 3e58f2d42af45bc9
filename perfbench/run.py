"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload replay-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` also runs the job once under span wrappers and prints the
per-layer metrics instead.  Metric names and units come from
``BENCHMARK.json``.  Every metric is printed as a ``name = value unit``
line; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check makes ``correct`` false and the exit code 1; other
failed operations (a request the daemon did not answer with a decision)
only count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"


def _workloads():
    from perfbench.fleet import run_fleet
    from perfbench.replay import run_probed, run_sweep
    from perfbench.serve import run_serve

    return {
        "replay-sweep": run_sweep,
        "fleet-hierarchy": run_fleet,
        "serve-openloop": run_serve,
        "replay-probed": run_probed,
    }


def select_metrics(spec: dict, outcome, trace_on: bool) -> dict:
    """The ``metrics`` object of the result line.

    With tracing off every end-to-end metric must have been measured.
    With tracing on, a per-layer metric whose layer this workload does
    not run reads 0.
    """
    rows = spec["per_layer"] if trace_on else spec["end_to_end"]
    out = {}
    for row in rows:
        name, unit = row["name"], row["unit"]
        measured = outcome.metrics.get(name)
        if measured is None:
            if not trace_on:
                outcome.check(f"metric.{name}", False, "end-to-end metric not measured")
                continue
            measured = (0.0, unit)
        value, measured_unit = measured
        outcome.check(
            f"unit.{name}", measured_unit == unit,
            f"measured in {measured_unit}, BENCHMARK.json says {unit}",
        )
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None, sizing=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print(
            f"error: {SRC / 'repro'} and {SPEC_PATH} are required; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # the serve daemon is a child interpreter importing the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    from perfbench.common import FULL, remove_scratch, scratch_dir
    from perfbench.speed import SpeedSampler

    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
    spec = json.loads(SPEC_PATH.read_text())
    run = workloads[args.workload]
    try:
        with SpeedSampler(scratch_dir() / "speed.log") as sampler:
            outcome = run(
                args.seed, args.seconds, bool(args.trace), sizing or FULL, sampler
            )
    finally:
        remove_scratch()
    metrics = select_metrics(spec, outcome, bool(args.trace))

    import numpy

    outcome.notes.append(
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    for line in outcome.notes:
        print(line)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"failed_frac = {failed_frac!r} ratio ({outcome.failed}/{outcome.attempted})")
    print(
        json.dumps(
            {
                "correct": outcome.incorrect == 0,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.incorrect == 0 else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
