"""Engine observability: stage timers, throughput counters, run reports.

The simulation layers (``replay``, ``MultiReplay``, ``SweepScheduler``,
``CdnSimulator``) attach a :class:`RunReport` to their results: a
JSON-serializable record of where wall-time went (per-stage timings),
how fast the engine ran (requests/s) and how the work was executed
(serial, broadcast or parallel).  Reports are deliberately cheap to
produce — a handful of ``perf_counter`` calls per run, never per
request — so they stay on in production-scale sweeps.

:class:`ProgressTicker` provides the periodic progress callbacks: it
invokes a user callback every ``every`` requests with the running count,
the total (when known) and the elapsed seconds.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Union

__all__ = [
    "EngineEvent",
    "StageTiming",
    "StageTimer",
    "ProgressTicker",
    "RunReport",
]

#: Signature of a progress callback: ``(done, total, elapsed_seconds)``.
#: ``total`` is None when the request stream is not sized.
ProgressCallback = Callable[[int, Optional[int], float], None]


@dataclass(frozen=True, slots=True)
class EngineEvent:
    """One notable engine occurrence: a fault applied, a worker retry.

    ``t`` is producer-defined: simulation time for replay-level events
    (cache wipes), wall-clock seconds since run start for executor
    events (group crashes, retries, checkpoint resumes).  ``kind`` is a
    short machine-friendly tag; ``detail`` is free-form context;
    ``level`` grades severity with the telemetry event-log levels
    (``debug``/``info``/``warning``/``error``).
    """

    t: float
    kind: str
    detail: str = ""
    level: str = "info"

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "kind": self.kind,
            "detail": self.detail,
            "level": self.level,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EngineEvent":
        return cls(
            t=data["t"],
            kind=data["kind"],
            detail=data.get("detail", ""),
            level=data.get("level", "info"),
        )

    def __str__(self) -> str:
        suffix = f": {self.detail}" if self.detail else ""
        tag = f" {self.level.upper()}" if self.level != "info" else ""
        return f"[{self.t:g}]{tag} {self.kind}{suffix}"


@dataclass
class StageTiming:
    """Wall-time (and optional item count) of one named engine stage."""

    name: str
    seconds: float
    items: int = 0

    @property
    def rate(self) -> float:
        """Items per second (0 when the stage timed nothing)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.items / self.seconds

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "items": self.items,
            "rate": self.rate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StageTiming":
        return cls(
            name=data["name"],
            seconds=data["seconds"],
            items=data.get("items", 0),
        )


class StageTimer:
    """Accumulates per-stage wall time.

    Usage::

        timer = StageTimer()
        with timer.stage("prepare"):
            cache.prepare(trace)
        with timer.stage("replay", items=len(trace)):
            ...
    """

    def __init__(self) -> None:
        self._stages: Dict[str, List[float]] = {}
        self._order: List[str] = []

    @contextmanager
    def stage(self, name: str, items: int = 0) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0, items)

    def add(self, name: str, seconds: float, items: int = 0) -> None:
        """Fold ``seconds`` (and ``items``) into stage ``name``."""
        if name not in self._stages:
            self._stages[name] = [0.0, 0]
            self._order.append(name)
        acc = self._stages[name]
        acc[0] += seconds
        acc[1] += items

    def seconds(self, name: str) -> float:
        """Accumulated wall time of one stage (0 if never entered)."""
        acc = self._stages.get(name)
        return acc[0] if acc else 0.0

    def timings(self) -> List[StageTiming]:
        """All stages, in first-entered order."""
        return [
            StageTiming(name, self._stages[name][0], int(self._stages[name][1]))
            for name in self._order
        ]


class ProgressTicker:
    """Invokes a callback every ``every`` processed items.

    The tick itself is one modulo and one comparison; the callback (and
    a ``perf_counter`` call) only fire on the cadence, so a ticker can
    sit in a per-request loop without measurable cost.
    """

    def __init__(
        self,
        callback: Optional[ProgressCallback],
        every: int = 8192,
        total: Optional[int] = None,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if total is not None and total < 0:
            raise ValueError(f"total must be >= 0 or None, got {total}")
        self.callback = callback
        self.every = every
        #: None when the trace length is unknown up front (streaming or
        #: generator traces) — callbacks receive ``total=None`` and must
        #: render count-only progress.
        self.total = total
        self._t0 = time.perf_counter()
        self._next = every

    def tick(self, done: int) -> None:
        """Report progress if ``done`` sits on the cadence."""
        if self.callback is not None and done % self.every == 0:
            self.callback(done, self.total, time.perf_counter() - self._t0)

    def tick_batch(self, done: int) -> None:
        """Report progress after a batch advance of arbitrary size.

        Batched replay loops move the counter by whole blocks, so
        ``done`` may never sit exactly on the cadence; this variant
        fires whenever at least one cadence boundary was crossed since
        the last report.
        """
        if self.callback is not None and done >= self._next:
            self._next = done - done % self.every + self.every
            self.callback(done, self.total, time.perf_counter() - self._t0)

    def finish(self, done: int) -> None:
        """Report final progress (always fires when a callback is set)."""
        if self.callback is not None:
            self.callback(done, self.total, time.perf_counter() - self._t0)


@dataclass
class RunReport:
    """JSON-serializable record of one engine run.

    ``num_requests`` counts trace requests driven through the engine;
    ``num_caches`` is how many caches shared that pass (broadcast runs
    amortize one pass over many caches).  ``requests_per_second`` is
    trace-requests over wall time; multiply by ``num_caches`` for
    cache-handle operations per second.
    """

    engine: str
    mode: str = "serial"
    wall_seconds: float = 0.0
    num_requests: int = 0
    num_caches: int = 1
    workers: int = 1
    stages: List[StageTiming] = field(default_factory=list)
    extra: Dict[str, Union[int, float, str, dict]] = field(default_factory=dict)
    #: notable occurrences (faults applied, worker retries, checkpoint
    #: resumes); empty for ordinary runs
    events: List[EngineEvent] = field(default_factory=list)

    @property
    def requests_per_second(self) -> float:
        """Trace requests per wall-clock second (0 when nothing ran)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.num_requests / self.wall_seconds

    @property
    def handles_per_second(self) -> float:
        """Cache-handle operations per second (requests x caches)."""
        return self.requests_per_second * self.num_caches

    def to_dict(self) -> dict:
        """Plain-dict form, safe for ``json.dumps``."""
        return {
            "engine": self.engine,
            "mode": self.mode,
            "wall_seconds": self.wall_seconds,
            "num_requests": self.num_requests,
            "num_caches": self.num_caches,
            "workers": self.workers,
            "requests_per_second": self.requests_per_second,
            "stages": [s.to_dict() for s in self.stages],
            "extra": dict(self.extra),
            "events": [e.to_dict() for e in self.events],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        return cls(
            engine=data["engine"],
            mode=data.get("mode", "serial"),
            wall_seconds=data.get("wall_seconds", 0.0),
            num_requests=data.get("num_requests", 0),
            num_caches=data.get("num_caches", 1),
            workers=data.get("workers", 1),
            stages=[StageTiming.from_dict(s) for s in data.get("stages", [])],
            extra=dict(data.get("extra", {})),
            events=[EngineEvent.from_dict(e) for e in data.get("events", [])],
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [
            f"{self.engine}[{self.mode}]",
            f"{self.num_requests} requests",
        ]
        if self.num_caches != 1:
            parts.append(f"x {self.num_caches} caches")
        if self.workers != 1:
            parts.append(f"({self.workers} workers)")
        parts.append(f"in {self.wall_seconds:.3f}s")
        parts.append(f"= {self.requests_per_second:,.0f} req/s")
        return " ".join(parts)
