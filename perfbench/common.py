"""Shared pieces of the benchmark: sizing, outcomes, timing, digests."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.speed import SpeedSampler

__all__ = [
    "FULL",
    "TINY",
    "Outcome",
    "Sizing",
    "Timing",
    "digest",
    "load_digests",
    "median",
    "peak_rss_mb",
    "quantile",
    "repeat_for",
    "remove_scratch",
    "scratch_dir",
    "timed",
    "timed_setups",
]

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Sizing:
    """Input sizes of one benchmark run."""

    name: str
    #: multiplier on each server profile (catalog and session volume)
    profile_scale: float
    days: float
    #: requests of the trace prefix checked against the reference oracles
    oracle_prefix: int
    #: requests checked object lane vs packed lane in the fleet
    fleet_check_requests: int
    #: requests of the in-process serve pass (traced run only)
    serve_inprocess_requests: int


#: The benchmark's inputs: the FULL scale of the repository's
#: experiments (profile 0.25, 30 days).
FULL = Sizing(
    name="full",
    profile_scale=0.25,
    days=30.0,
    oracle_prefix=1500,
    fleet_check_requests=40_000,
    serve_inprocess_requests=20_000,
)

#: Smoke-test inputs: every code path, a fraction of a second each.
TINY = Sizing(
    name="tiny",
    profile_scale=0.02,
    days=2.0,
    oracle_prefix=200,
    fleet_check_requests=2_000,
    serve_inprocess_requests=300,
)


@dataclass
class Outcome:
    """Everything one workload run reports."""

    #: metric name -> (value, unit)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: failed correctness checks (a subset of ``failed``)
    incorrect: int = 0
    #: human-readable lines printed before the result line
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Count one correctness check; a failure is noted by name."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.incorrect += 1
            self.notes.append(f"CHECK FAILED {name}: {detail}")
        return ok

    def ops(self, attempted: int, failed: int = 0) -> None:
        """Count operations that are not checks (jobs, requests, windows)."""
        self.attempted += attempted
        self.failed += failed


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (no interpolation)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return float(ordered[rank])


@dataclass
class Timing:
    """Wall times of repeated work and the same times speed-scaled.

    See :mod:`perfbench.speed`; the end-to-end metrics report medians of
    the scaled times.
    """

    wall: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)

    @property
    def median(self) -> float:
        return median(self.scaled)

    @property
    def median_wall(self) -> float:
        return median(self.wall)

    def describe(self) -> str:
        return (
            f"{len(self.wall)} repeats, median {self.median_wall:.4f}s wall, "
            f"{self.median:.4f}s speed-scaled"
        )


def timed(timing: Timing, turn: int, sampler: SpeedSampler, work: Callable[[], object]):
    """Run ``work`` on CPU ``turn`` (see :func:`on_cpu`), adding its
    wall and speed-scaled seconds to ``timing``; returns its result."""
    with on_cpu(turn) as cpu:
        sampler.follow(cpu)
        start = time.monotonic()
        t0 = time.perf_counter()
        result = work()
        seconds = time.perf_counter() - t0
        end = time.monotonic()
    timing.wall.append(seconds)
    timing.scaled.append(seconds * sampler.scale(start, end))
    return result


def repeat_for(
    job: Callable[..., object],
    seconds: float,
    sampler: SpeedSampler,
    prepare: Optional[Callable[[], object]] = None,
) -> Tuple[Timing, object]:
    """Run ``job`` back to back for about ``seconds``; time each repeat.

    A repeat starts only while the elapsed time plus the median repeat
    so far stays within ``seconds``, so a run overshoots by less than
    one repeat and always completes at least one.  ``prepare()`` runs
    before each repeat, outside the timed region, and its result is
    passed to ``job`` (fresh caches, for instance).  Garbage is
    collected before each repeat too, so one repeat's garbage is not
    billed to the next.  Repeats take turns on the CPUs.
    """
    timing = Timing()
    result = None
    began = time.perf_counter()
    while True:
        args = () if prepare is None else (prepare(),)
        result = None  # the previous result must not inflate the peak RSS
        gc.collect()
        result = timed(timing, len(timing.wall), sampler, lambda: job(*args))
        if time.perf_counter() - began + timing.median_wall > seconds:
            return timing, result


def timed_setups(setup: Callable[[], object], sampler: SpeedSampler) -> Tuple[Timing, object]:
    """:data:`SETUP_REPEATS` timed set-ups; the last one's result."""
    timing = Timing()
    result = None
    for turn in range(SETUP_REPEATS):
        result = None
        gc.collect()
        result = timed(timing, turn, sampler, setup)
    return timing, result


@contextmanager
def on_cpu(turn: int) -> Iterator[int]:
    """Run the body pinned to CPU ``turn`` modulo the CPUs allowed.

    Each CPU of a shared virtual host drifts in speed on its own.  Left
    alone, the scheduler keeps a process on one CPU, so a whole run
    would land on whichever CPU it got; taking turns makes a run's
    median cover every CPU.  Yields the CPU.
    """
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    cpu = cpus[turn % len(cpus)]
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def digest(payload) -> str:
    """Short stable hash of a JSON-able result summary."""
    text = json.dumps(payload, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _jsonable(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")


def load_digests() -> Dict[str, Dict[str, str]]:
    """workload -> seed -> digest of the FULL-size result."""
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


def check_digest(outcome: Outcome, workload: str, sizing: Sizing, seed: int, value: str) -> None:
    """Compare ``value`` with the recorded digest, when one exists."""
    outcome.notes.append(f"digest {workload} seed={seed}: {value}")
    if sizing.name != FULL.name:
        return
    expected = load_digests().get(workload, {}).get(str(seed))
    if expected is not None:
        outcome.check(
            f"{workload}.digest", value == expected,
            f"totals digest {value} != recorded {expected}",
        )


SCRATCH_ROOT = Path(".perfbench-run")


def scratch_dir() -> Path:
    """Run-local directory for sockets and exports, inside the checkout."""
    path = SCRATCH_ROOT / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_scratch() -> None:
    """Delete this run's scratch directory (and the root, once empty)."""
    shutil.rmtree(SCRATCH_ROOT / str(os.getpid()), ignore_errors=True)
    try:
        SCRATCH_ROOT.rmdir()
    except OSError:
        pass


def put_job_metrics(
    outcome: Outcome, setup: Timing, job: Timing, requests: int, what: str
) -> None:
    """The end-to-end metrics of a batch job, from speed-scaled times.

    ``requests`` is the work of one job (requests x cells).
    """
    outcome.ops(len(job.wall))
    outcome.put("setup_s", setup.median, "s")
    outcome.put("throughput_rps", requests / job.median, "req/s")
    outcome.put("latency_ms", job.median * 1e3, "ms")
    outcome.put("peak_rss_mb", peak_rss_mb(), "MiB")
    outcome.notes.append(f"{what}; job: {job.describe()}; set-up: {setup.describe()}")
