"""The ``repro-serve`` daemon: a crash-safe live decision service.

Architecture (DESIGN.md §13)::

    connections ──parse──► admission ──► bounded queue ──► decision
      (unix/tcp/stdin)    (token bucket,                  worker
                           shed + degrade)                 │
    subscribers ◄── telemetry publisher          snapshotter (atomic,
                                                  watermarked)

Every robustness defense lives in exactly one place:

* **malformed input** is absorbed at the parse step — an error
  *response*, a counter bump, never a disconnect or crash;
* **overload** is refused at admission — the token bucket and queue
  bound answer latency, and a graceful-degradation mode turns off
  telemetry publishing and periodic snapshots *before* any request is
  shed;
* **transient decision failures** are retried with bounded exponential
  backoff inside the worker; a worker crash is caught by the
  supervisor, which restarts it and keeps serving;
* **process death** is covered by the snapshotter: cache state, traffic
  totals and the request-sequence watermark persist as one atomic unit,
  and the exactly-once protocol (:mod:`repro.serve.protocol`) lets
  clients resume from ``watermark + 1`` with nothing double-counted.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from repro.cdn.sharding import shard_of
from repro.obs.events import EventLog
from repro.serve.limiter import TokenBucket
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decide_and_account,
    decision_response,
    duplicate_response,
    error_response,
    line_too_long_response,
    new_totals,
    parse_line,
    read_line,
    shed_response,
)
from repro.serve.slo import ServeSLO
from repro.serve.snapshotter import SnapshotStore
from repro.sim.runner import build_cache
from repro.trace.requests import DEFAULT_CHUNK_BYTES

__all__ = [
    "ServeConfig",
    "DecisionService",
    "ServeDaemon",
    "TransientDecisionError",
]


class TransientDecisionError(Exception):
    """A decision failure worth retrying (raised before any mutation)."""


@dataclass(frozen=True)
class ServeConfig:
    """Every knob of one daemon instance (all orthogonal to the wire)."""

    algorithm: str = "xLRU"
    disk_chunks: int = 4096
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    alpha_f2r: float = 2.0
    #: admission tokens/second (<= 0 disables rate limiting)
    rate: float = 0.0
    burst: float = 256.0
    #: bounded request queue: beyond this, requests are shed
    queue_limit: int = 1024
    snapshot_dir: Optional[str] = None
    #: applied requests between periodic cache snapshots (0 disables)
    snapshot_every: int = 5000
    snapshot_keep: int = 2
    #: per-request deadline covering queue wait (seconds)
    request_timeout: float = 5.0
    #: transient-failure retries (bounded exponential backoff)
    max_retries: int = 3
    retry_base_delay: float = 0.005
    #: queue-depth fractions driving graceful degradation
    degrade_high: float = 0.75
    degrade_low: float = 0.25
    #: seconds between telemetry pushes to subscribers
    publish_interval: float = 1.0
    #: JSONL telemetry written at graceful shutdown (repro.obs schema)
    telemetry_path: Optional[str] = None
    #: enable test-only ops (crash-worker) and fault injection
    test_hooks: bool = False
    #: injected transient-failure probability per decision attempt
    fault_rate: float = 0.0
    fault_seed: int = 0
    #: sharded-fleet identity: ``None`` = unsharded (PR 8 wire, v1
    #: fingerprint); otherwise this worker owns the videos with
    #: ``shard_of(video, num_shards, num_buckets) == shard_id``
    shard_id: Optional[int] = None
    num_shards: int = 1
    num_buckets: int = 1024

    def fingerprint(self) -> str:
        """Binds snapshots to the decision-relevant configuration.

        A sharded worker bakes its shard coordinates into the
        fingerprint, so a resumed fleet can never cross-load state: a
        snapshot written by shard 2-of-4 refuses to restore into shard
        2-of-8 (or into shard 3), loudly, at startup.
        """
        text = (
            f"serve-v1|{self.algorithm}|{self.disk_chunks}|{self.chunk_bytes}"
        )
        if self.shard_id is not None:
            text += (
                f"|shard={self.shard_id}/{self.num_shards}"
                f"|buckets={self.num_buckets}"
            )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class DecisionService:
    """The synchronous decision core: cache + ledger + snapshots.

    Deliberately asyncio-free so the exactly-once discipline is unit
    testable without an event loop; :class:`ServeDaemon` wraps it with
    admission, queueing and supervision.
    """

    def __init__(self, config: ServeConfig, events: Optional[EventLog] = None):
        self.config = config
        self.events = events if events is not None else EventLog()
        self.cache = build_cache(
            config.algorithm,
            config.disk_chunks,
            alpha_f2r=config.alpha_f2r,
            chunk_bytes=config.chunk_bytes,
        )
        self.totals = new_totals()
        self.watermark = 0
        self.last_t = float("-inf")
        self.resumed = False
        self.snapshots_written = 0
        self._applied_since_snapshot = 0
        self._crash_next = False
        self._rng = random.Random(config.fault_seed)
        self.store: Optional[SnapshotStore] = None
        if config.snapshot_dir is not None:
            self.store = SnapshotStore(
                config.snapshot_dir,
                keep=config.snapshot_keep,
                on_warning=self.events.info,
            )
            restored = self.store.load(self.cache, config.fingerprint())
            if restored is not None:
                self.watermark = restored.watermark
                self.totals = dict(restored.totals)
                self.last_t = restored.last_t
                self.resumed = True
                self.events.info(
                    "snapshot-resume",
                    f"warm restart from {restored.path} "
                    f"(watermark {restored.watermark})",
                )

    def apply(self, request: dict) -> dict:
        """Apply one parsed decision request under the seq discipline.

        Exactly one of: a ``decision`` response (seq consumed), a
        ``duplicate`` ack (nothing changed), a ``sequence-gap`` error
        (nothing changed), or an exception (nothing changed — transient
        failures and injected crashes fire *before* any mutation, so a
        retry or a restart replays safely).
        """
        if self.config.shard_id is not None:
            owner = shard_of(
                request["video"], self.config.num_shards, self.config.num_buckets
            )
            if owner != self.config.shard_id:
                # defense in depth against a buggy router: a misrouted
                # video must never enter this shard's cache or consume
                # its sequence space (it belongs to another stream)
                return error_response(
                    "misrouted",
                    f"video {request['video']} belongs to shard {owner}, "
                    f"this is shard {self.config.shard_id}/"
                    f"{self.config.num_shards}",
                    request["seq"],
                )
        seq = request["seq"]
        if seq is None:
            seq = self.watermark + 1
        if seq <= self.watermark:
            return duplicate_response(seq, self.watermark)
        if seq != self.watermark + 1:
            return error_response(
                "sequence-gap",
                f"seq {seq} but watermark {self.watermark}; "
                f"resend from {self.watermark + 1}",
                seq,
            )
        if self._crash_next:
            self._crash_next = False
            raise RuntimeError("injected worker crash (crash-worker op)")
        if self.config.fault_rate > 0 and (
            self._rng.random() < self.config.fault_rate
        ):
            raise TransientDecisionError("injected transient decision failure")
        fields, self.last_t = decide_and_account(
            self.cache,
            self.totals,
            request["t"],
            request["video"],
            request["b0"],
            request["b1"],
            self.last_t,
        )
        self.watermark = seq
        self._applied_since_snapshot += 1
        return decision_response(seq, fields)

    def arm_crash(self) -> None:
        """Test hook: the next :meth:`apply` raises (worker crash)."""
        self._crash_next = True

    def snapshot_due(self) -> bool:
        return (
            self.store is not None
            and self.config.snapshot_every > 0
            and self._applied_since_snapshot >= self.config.snapshot_every
        )

    def snapshot_now(self) -> Optional[str]:
        """Persist the ledger atomically; returns the payload path."""
        if self.store is None:
            return None
        path = self.store.save(
            self.cache,
            self.watermark,
            self.totals,
            self.last_t,
            self.config.fingerprint(),
        )
        self._applied_since_snapshot = 0
        self.snapshots_written += 1
        return str(path)

    def stats(self) -> dict:
        out = {
            "watermark": self.watermark,
            "totals": dict(self.totals),
            "occupancy": len(self.cache),
            "disk_used": self.cache.disk_used_fraction,
            "snapshots_written": self.snapshots_written,
            "resumed": self.resumed,
        }
        if self.config.shard_id is not None:
            out["shard"] = self.config.shard_id
            out["num_shards"] = self.config.num_shards
        return out


#: one queued request: (parsed request, reply writer, enqueue perf time)
_QueueItem = Tuple[dict, asyncio.StreamWriter, float]


@dataclass
class _DaemonState:
    """Mutable run-state the tasks share (kept off the config)."""

    degraded: bool = False
    worker_restarts: int = 0
    stopping: bool = False
    snapshots_skipped_degraded: int = 0
    lane_snapshots: list = field(default_factory=list)


class ServeDaemon:
    """Asyncio front half: sockets, admission, worker, publisher."""

    def __init__(self, config: ServeConfig, events: Optional[EventLog] = None):
        self.config = config
        self.events = events if events is not None else EventLog()
        self.service = DecisionService(config, self.events)
        self.slo = ServeSLO()
        self.bucket = TokenBucket(config.rate, config.burst)
        self.state = _DaemonState()
        self.queue: "asyncio.Queue[_QueueItem]" = asyncio.Queue()
        self.subscribers: Set[asyncio.StreamWriter] = set()
        self._servers: list = []
        self._tasks: list = []
        self._stopped = asyncio.Event()
        self._stop_requested = asyncio.Event()
        self._started_wall = time.time()
        self._started_perf = time.perf_counter()
        self._stdio = False

    # -- lifecycle -----------------------------------------------------------

    async def start(
        self,
        unix_path: Optional[str] = None,
        tcp: Optional[Tuple[str, int]] = None,
        stdio: bool = False,
    ) -> None:
        """Bind endpoints and start the background tasks."""
        if not (unix_path or tcp or stdio):
            raise ValueError("need at least one of unix_path, tcp, stdio")
        if unix_path:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_conn, path=unix_path, limit=MAX_LINE_BYTES
                )
            )
        if tcp:
            host, port = tcp
            self._servers.append(
                await asyncio.start_server(
                    self._handle_conn, host, port, limit=MAX_LINE_BYTES
                )
            )
        if stdio:
            self._stdio = True
            reader, writer = await _stdio_streams()
            self._tasks.append(
                asyncio.create_task(
                    self._handle_conn(reader, writer, stop_on_eof=True),
                    name="serve-stdio",
                )
            )
        self._tasks.append(
            asyncio.create_task(self._supervisor(), name="serve-supervisor")
        )
        if self.config.publish_interval > 0:
            self._tasks.append(
                asyncio.create_task(self._publisher(), name="serve-publisher")
            )
        self.events.info(
            "serve-start",
            f"{self.config.algorithm} disk={self.config.disk_chunks} "
            f"watermark={self.service.watermark}"
            f"{' (resumed)' if self.service.resumed else ''}",
        )

    def request_stop(self) -> None:
        """Idempotent graceful-stop trigger (signal/op/stdin-EOF safe)."""
        self._stop_requested.set()

    async def run(
        self,
        unix_path: Optional[str] = None,
        tcp: Optional[Tuple[str, int]] = None,
        stdio: bool = False,
        install_signal_handlers: bool = True,
    ) -> int:
        """Start, serve until stopped, shut down cleanly.  Returns 0."""
        await self.start(unix_path=unix_path, tcp=tcp, stdio=stdio)
        if install_signal_handlers:
            import signal

            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_stop)
                except (NotImplementedError, RuntimeError):
                    pass
        await self._stop_requested.wait()
        await self.shutdown()
        return 0

    async def shutdown(self, drain_timeout: float = 10.0) -> None:
        """Drain, snapshot, flush telemetry, close everything."""
        if self.state.stopping:
            await self._stopped.wait()
            return
        self.state.stopping = True
        for server in self._servers:
            server.close()
        try:
            await asyncio.wait_for(self.queue.join(), timeout=drain_timeout)
        except asyncio.TimeoutError:
            self.events.error(
                "drain-timeout",
                f"{self.queue.qsize()} request(s) abandoned after "
                f"{drain_timeout:g}s",
            )
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        path = self.service.snapshot_now()
        if path is not None:
            self.events.info("final-snapshot", path)
        if self.config.telemetry_path is not None:
            records = self.write_telemetry(self.config.telemetry_path)
            self.events.info(
                "telemetry-flushed",
                f"{records} record(s) -> {self.config.telemetry_path}",
            )
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        for writer in list(self.subscribers):
            self._close_writer(writer)
        self._stopped.set()

    # -- connection handling -------------------------------------------------

    async def _handle_conn(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        stop_on_eof: bool = False,
    ) -> None:
        try:
            while not self.state.stopping:
                line = await read_line(reader)
                if line is None:
                    # counted, answered, skipped — like any malformed line
                    self.slo.count("serve.malformed")
                    await self._send(writer, line_too_long_response())
                    continue
                if not line:
                    break
                await self._handle_line(line.decode("utf-8", "replace"), writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self.subscribers.discard(writer)
            if not self._stdio or stop_on_eof is False:
                self._close_writer(writer)
            if stop_on_eof:
                self.request_stop()

    async def _handle_line(self, line: str, writer: asyncio.StreamWriter) -> None:
        try:
            parsed = parse_line(line)
        except ProtocolError as exc:
            # counted, reported, answered — never fatal
            self.slo.count("serve.malformed")
            await self._send(writer, error_response(exc.code, exc.detail))
            return
        if parsed["type"] == "op":
            await self._handle_op(parsed["op"], writer)
            return
        self.slo.count("serve.requests")
        shed = self._admission(parsed)
        if shed is not None:
            self.slo.count("serve.shed")
            await self._send(writer, shed)
            return
        self.slo.count("serve.admitted")
        self.queue.put_nowait((parsed, writer, time.perf_counter()))
        self._update_degraded()

    def _admission(self, parsed: dict) -> Optional[dict]:
        """None when admitted; otherwise the structured shed response."""
        config = self.config
        depth = self.queue.qsize()
        if depth >= config.queue_limit:
            response = shed_response(
                retry_after=self._drain_estimate(depth),
                detail=f"queue full ({depth}/{config.queue_limit})",
            )
        else:
            wait = self.bucket.try_acquire()
            if wait <= 0:
                return None
            response = shed_response(
                retry_after=wait, detail="admission rate exceeded"
            )
        if parsed.get("seq") is not None:
            response["seq"] = parsed["seq"]
        return response

    def _drain_estimate(self, depth: int) -> float:
        qps = self.slo.sustained_qps()
        if qps > 0:
            return depth / qps
        return 0.05

    async def _handle_op(self, op: str, writer: asyncio.StreamWriter) -> None:
        config = self.config
        service = self.service
        if op == "hello":
            hello = {
                "ok": True,
                "kind": "hello",
                "watermark": service.watermark,
                "algorithm": config.algorithm,
                "disk_chunks": config.disk_chunks,
                "chunk_bytes": config.chunk_bytes,
                "alpha_f2r": config.alpha_f2r,
                "resumed": service.resumed,
            }
            if config.shard_id is not None:
                hello["shard"] = config.shard_id
                hello["num_shards"] = config.num_shards
                hello["num_buckets"] = config.num_buckets
            await self._send(writer, hello)
        elif op == "stats":
            stats = service.stats()
            stats.update(
                {
                    "ok": True,
                    "kind": "stats",
                    "counters": {
                        name: value
                        for name, value in self.slo.registry.counters.items()
                    },
                    "slo": self.slo.summary(),
                    "queue_depth": self.queue.qsize(),
                    "degraded": self.state.degraded,
                    "worker_restarts": self.state.worker_restarts,
                    "uptime_seconds": time.perf_counter() - self._started_perf,
                    # full registry (histogram sketches included) so a
                    # fronting router can merge SLOs *exactly* via the
                    # repro.obs cross-process sketch merge
                    "registry": self.slo.registry.to_dict(),
                }
            )
            await self._send(writer, stats)
        elif op == "snapshot":
            if service.store is None:
                await self._send(
                    writer,
                    error_response("unsupported", "daemon runs without --snapshot-dir"),
                )
                return
            path = service.snapshot_now()
            await self._send(
                writer,
                {
                    "ok": True,
                    "kind": "snapshot",
                    "watermark": service.watermark,
                    "path": path,
                },
            )
        elif op == "subscribe":
            self.subscribers.add(writer)
            await self._send(
                writer,
                {
                    "ok": True,
                    "kind": "subscribed",
                    "publish_interval": config.publish_interval,
                },
            )
        elif op == "shutdown":
            await self._send(writer, {"ok": True, "kind": "stopping"})
            self.request_stop()
        elif op == "crash-worker":
            if not config.test_hooks:
                await self._send(
                    writer,
                    error_response(
                        "unsupported", "crash-worker needs --test-hooks"
                    ),
                )
                return
            service.arm_crash()
            await self._send(writer, {"ok": True, "kind": "crash-armed"})

    # -- decision worker + supervisor ----------------------------------------

    async def _worker(self) -> None:
        queue = self.queue
        while True:
            item = await queue.get()
            try:
                await self._process_item(item)
            finally:
                queue.task_done()
                self._update_degraded()

    async def _process_item(self, item: _QueueItem) -> None:
        parsed, writer, enqueued = item
        config = self.config
        waited = time.perf_counter() - enqueued
        if waited > config.request_timeout:
            # the deadline covers queue wait: answering late is worse
            # than a structured timeout the client can retry (seq was
            # not consumed, so the retry is exactly-once safe)
            self.slo.count("serve.timeouts")
            await self._send(
                writer,
                error_response(
                    "timeout",
                    f"queued {waited:.3f}s > deadline {config.request_timeout:g}s",
                    parsed.get("seq"),
                ),
            )
            return
        t0 = time.perf_counter()
        response: Optional[dict] = None
        for attempt in range(config.max_retries + 1):
            try:
                response = self.service.apply(parsed)
                break
            except TransientDecisionError as exc:
                self.slo.count("serve.retries")
                if attempt >= config.max_retries:
                    self.slo.count("serve.decision_failures")
                    response = error_response(
                        "decision-failed",
                        f"{exc} (after {attempt + 1} attempts)",
                        parsed.get("seq"),
                    )
                    break
                await asyncio.sleep(config.retry_base_delay * (2**attempt))
        elapsed = time.perf_counter() - t0
        self.slo.observe_decision(elapsed)
        if self.service.snapshot_due():
            if self.state.degraded:
                # degradation sheds observability first, decisions last
                self.state.snapshots_skipped_degraded += 1
            else:
                self.service.snapshot_now()
        await self._send(writer, response)

    async def _supervisor(self) -> None:
        """Restart the decision worker whenever it crashes."""
        while not self.state.stopping:
            worker = asyncio.create_task(self._worker(), name="serve-worker")
            try:
                await worker
            except asyncio.CancelledError:
                worker.cancel()
                raise
            except Exception as exc:
                self.state.worker_restarts += 1
                self.slo.count("serve.worker_restarts")
                self.events.error("worker-crash", f"restarting worker: {exc!r}")
                continue

    # -- telemetry -----------------------------------------------------------

    def _lane_snapshot(self) -> dict:
        service = self.service
        last_t = service.last_t
        out = {
            "t": last_t if last_t != float("-inf") else 0.0,
            "done": service.watermark,
            "occupancy": len(service.cache),
            "disk_used": service.cache.disk_used_fraction,
            "queue_depth": self.queue.qsize(),
            "shed": self.slo.counter("serve.shed"),
            "malformed": self.slo.counter("serve.malformed"),
            "degraded": int(self.state.degraded),
            "worker_restarts": self.state.worker_restarts,
        }
        if self.config.shard_id is not None:
            out["shard"] = self.config.shard_id
        return out

    async def _publisher(self) -> None:
        interval = self.config.publish_interval
        while True:
            await asyncio.sleep(interval)
            if self.state.degraded:
                # graceful degradation: observability is shed first
                continue
            snapshot = self._lane_snapshot()
            snapshots = self.state.lane_snapshots
            snapshots.append(snapshot)
            if len(snapshots) > 4096:
                self.state.lane_snapshots = snapshots[::2] + snapshots[-1:]
            if not self.subscribers:
                continue
            record = {"kind": "snapshot", "lane": "serve"}
            record.update(snapshot)
            payload = (json.dumps(record) + "\n").encode()
            for writer in list(self.subscribers):
                try:
                    writer.write(payload)
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    self.subscribers.discard(writer)

    def write_telemetry(self, path: str) -> int:
        """Export the run as ``repro.obs`` schema JSONL (validated by
        ``repro-report --check``)."""
        from repro.obs import Telemetry, TelemetryOptions
        from repro.obs.jsonl import write_telemetry

        service = self.service
        telemetry = Telemetry(
            options=TelemetryOptions(probes=False),
            events=self.events,
            meta={
                "source": "repro-serve",
                "algorithm": self.config.algorithm,
                "disk_chunks": self.config.disk_chunks,
                "watermark": service.watermark,
                "resumed": service.resumed,
                **(
                    {
                        "shard": self.config.shard_id,
                        "num_shards": self.config.num_shards,
                    }
                    if self.config.shard_id is not None
                    else {}
                ),
            },
        )
        lane = telemetry.lane("serve")
        lane.algorithm = self.config.algorithm
        lane.registry = self.slo.registry
        lane.snapshots = list(self.state.lane_snapshots)
        lane.num_requests = service.totals["requests"]
        lane.totals = dict(service.totals)
        registry = self.slo.registry
        registry.gauge("occupancy", len(service.cache))
        registry.gauge("disk_used", service.cache.disk_used_fraction)
        registry.gauge("watermark", service.watermark)
        registry.gauge("queue_depth", self.queue.qsize())
        registry.gauge("worker_restarts", self.state.worker_restarts)
        slo = self.slo.summary()
        report = {
            "engine": "serve",
            "mode": "daemon",
            "wall_seconds": time.perf_counter() - self._started_perf,
            "num_requests": service.totals["requests"],
            "extra": {
                "watermark": service.watermark,
                "sustained_qps": slo["sustained_qps"],
                "latency_ms": slo["latency_ms"],
                "snapshots_skipped_degraded": (
                    self.state.snapshots_skipped_degraded
                ),
            },
        }
        return write_telemetry(path, telemetry, reports=[report])

    # -- helpers -------------------------------------------------------------

    def _update_degraded(self) -> None:
        depth = self.queue.qsize()
        limit = self.config.queue_limit
        if not self.state.degraded and depth >= self.config.degrade_high * limit:
            self.state.degraded = True
            self.slo.count("serve.degrade_entered")
            self.events.info(
                "degraded",
                f"queue depth {depth}/{limit}: probes/snapshots off",
            )
        elif self.state.degraded and depth <= self.config.degrade_low * limit:
            self.state.degraded = False
            self.events.info("recovered", f"queue depth {depth}/{limit}")

    async def _send(self, writer: asyncio.StreamWriter, response: dict) -> None:
        try:
            writer.write((json.dumps(response) + "\n").encode())
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away; its loss is not our crash

    def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except Exception:
            pass


class _BlockingStdinReader:
    """``readuntil`` duck-type over ``sys.stdin`` for non-pipe stdio.

    ``connect_read_pipe`` refuses regular files (``repro-serve --stdin
    < requests.jsonl``); reading in the default executor keeps the loop
    responsive while preserving the one-line-in semantics.  Lines are
    not length-limited here: a regular file cannot flood the loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    async def readuntil(self, separator: bytes = b"\n") -> bytes:
        line = await self._loop.run_in_executor(
            None, sys.stdin.buffer.readline
        )
        if not line.endswith(separator):
            raise asyncio.IncompleteReadError(line, None)
        return line


class _BlockingStdoutWriter:
    """``write``/``drain``/``close`` duck-type over ``sys.stdout``."""

    def write(self, data: bytes) -> None:
        sys.stdout.buffer.write(data)

    async def drain(self) -> None:
        sys.stdout.buffer.flush()

    def close(self) -> None:
        try:
            sys.stdout.buffer.flush()
        except (ValueError, OSError):
            pass


async def _stdio_streams():
    """Wrap stdin/stdout as a stream pair (the ``--stdin`` lane).

    Pipes and terminals get real asyncio transports; redirected regular
    files fall back to blocking shims run off-loop, so
    ``repro-serve --stdin < in.jsonl > out.jsonl`` works too."""
    loop = asyncio.get_running_loop()
    try:
        reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
    except (ValueError, OSError):
        reader = _BlockingStdinReader(loop)
    try:
        transport, protocol = await loop.connect_write_pipe(
            asyncio.streams.FlowControlMixin, sys.stdout
        )
        writer = asyncio.StreamWriter(transport, protocol, None, loop)
    except (ValueError, OSError):
        writer = _BlockingStdoutWriter()
    return reader, writer
