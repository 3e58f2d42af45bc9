"""Video-hash request router fronting a sharded ``repro-serve`` fleet.

Topology (DESIGN.md §14): one **stateless** asyncio router process owns
the public endpoint; N worker daemons each own a private unix socket,
one event loop, and one cache shard.  Every decision request is
forwarded verbatim to the shard its video hashes to
(:func:`repro.cdn.sharding.shard_of` — the same stable blake2b routing
the offline :class:`~repro.cdn.sharding.ShardedServer` uses), so a
video's chunks always hit the same shard and per-video cache state
stays coherent.

The router was chosen over ``SO_REUSEPORT`` acceptors deliberately:

* kernel ``SO_REUSEPORT`` spreads *connections*, not *videos* — the
  same video arriving on two client connections would land on two
  acceptors, so every request would need an in-handshake redirect
  round-trip (and redirect-following clients, breaking the PR 8 wire);
* a router keeps the exactly-once ledger **entirely inside the
  workers**: the router holds no sequence state, so SIGKILLing it loses
  nothing — clients reconnect, re-``hello``, and resume from the
  per-shard watermarks the workers report.

Data path: per ``(client connection, shard)`` the router lazily opens
one upstream connection and a pump task copying responses back; the
worker answers exactly one line per forwarded line, so responses need
no correlation state.  If a worker dies mid-flight, the pump answers
each outstanding request with a structured ``overloaded`` shed (seq
never consumed) and the client resyncs via ``hello``.

Fan-out ops: ``hello``/``stats``/``snapshot``/``shutdown`` scatter to
every shard over fresh control connections and fold the replies —
totals summed, SLO histogram sketches merged *exactly* through
:func:`repro.serve.slo.merged_summary`, sustained QPS summed, and a
per-shard breakdown kept alongside the merged view so a hot shard is
diagnosable from one ``stats`` call.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cdn.sharding import DEFAULT_NUM_BUCKETS, shard_of
from repro.obs.events import EventLog
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    error_response,
    line_too_long_response,
    parse_line,
    read_line,
    shed_response,
)
from repro.serve.slo import merged_summary

__all__ = ["ShardRouter", "main"]

#: how long a fan-out op keeps retrying an unreachable worker before
#: answering ``worker-down`` (covers a supervisor restart window)
DEFAULT_OP_RETRY = 8.0

#: per-request upstream connect budget before shedding ``overloaded``
DEFAULT_DATA_RETRY = 0.3

#: totals keys are summed field-wise when folding worker stats
_MERGED_COUNTER_KEYS = (
    "queue_depth",
    "worker_restarts",
    "snapshots_written",
    "occupancy",
)


@dataclass
class _Upstream:
    """One lazily opened router→worker connection for one client."""

    shard: int
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    pump: Optional[asyncio.Task] = None
    outstanding: int = 0
    dead: bool = False


@dataclass
class _ClientState:
    """Per-client-connection routing state."""

    writer: asyncio.StreamWriter
    upstreams: Dict[int, _Upstream] = field(default_factory=dict)


class ShardRouter:
    """Thin asyncio front: parse, route by video hash, fold fan-outs."""

    def __init__(
        self,
        worker_paths: Sequence[str],
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        events: Optional[EventLog] = None,
        op_retry: float = DEFAULT_OP_RETRY,
        data_retry: float = DEFAULT_DATA_RETRY,
    ) -> None:
        if not worker_paths:
            raise ValueError("need at least one worker socket")
        if num_buckets < len(worker_paths):
            raise ValueError(
                f"need at least as many buckets ({num_buckets}) as workers "
                f"({len(worker_paths)})"
            )
        self.worker_paths = list(worker_paths)
        self.num_shards = len(worker_paths)
        self.num_buckets = num_buckets
        self.events = events if events is not None else EventLog()
        self.op_retry = op_retry
        self.data_retry = data_retry
        self.counters: Dict[str, int] = {}
        self.subscribers: Set[asyncio.StreamWriter] = set()
        self._servers: list = []
        self._tasks: list = []
        self._stopping = False
        self._stopped = asyncio.Event()
        self._stop_requested = asyncio.Event()
        self._started_perf = time.perf_counter()

    # -- lifecycle -----------------------------------------------------------

    async def start(
        self,
        unix_path: Optional[str] = None,
        tcp: Optional[Tuple[str, int]] = None,
    ) -> None:
        if not (unix_path or tcp):
            raise ValueError("need at least one of unix_path, tcp")
        if unix_path:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_client, path=unix_path, limit=MAX_LINE_BYTES
                )
            )
        if tcp:
            host, port = tcp
            self._servers.append(
                await asyncio.start_server(
                    self._handle_client, host, port, limit=MAX_LINE_BYTES
                )
            )
        for shard in range(self.num_shards):
            self._tasks.append(
                asyncio.create_task(
                    self._subscription_pump(shard),
                    name=f"router-sub-{shard}",
                )
            )
        self.events.info(
            "router-start",
            f"{self.num_shards} shard(s), {self.num_buckets} buckets",
        )

    def request_stop(self) -> None:
        self._stop_requested.set()

    async def run(
        self,
        unix_path: Optional[str] = None,
        tcp: Optional[Tuple[str, int]] = None,
        install_signal_handlers: bool = True,
    ) -> int:
        await self.start(unix_path=unix_path, tcp=tcp)
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

    async def shutdown(self) -> None:
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        for server in self._servers:
            server.close()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        self._stopped.set()

    # -- client connections --------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        state = _ClientState(writer=writer)
        try:
            while not self._stopping:
                line = await read_line(reader)
                if line is None:
                    self._count("router.malformed")
                    await self._send(writer, line_too_long_response())
                    continue
                if not line:
                    break
                await self._handle_line(line, state)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self.subscribers.discard(writer)
            for up in state.upstreams.values():
                self._close_upstream(up)
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_line(self, raw: bytes, state: _ClientState) -> None:
        try:
            parsed = parse_line(raw.decode("utf-8", "replace"))
        except ProtocolError as exc:
            self._count("router.malformed")
            await self._send(state.writer, error_response(exc.code, exc.detail))
            return
        if parsed["type"] == "op":
            self._count("router.ops")
            await self._handle_op(parsed["op"], state)
            return
        self._count("router.requests")
        shard = shard_of(parsed["video"], self.num_shards, self.num_buckets)
        await self._forward(state, shard, raw, parsed.get("seq"))

    async def _forward(
        self, state: _ClientState, shard: int, raw: bytes, seq: Optional[int]
    ) -> None:
        up = state.upstreams.get(shard)
        if up is None or up.dead:
            up = await self._open_upstream(state, shard)
        if up is None:
            self._count("router.shed")
            await self._send(state.writer, self._worker_shed(shard, seq))
            return
        up.outstanding += 1
        try:
            up.writer.write(raw if raw.endswith(b"\n") else raw + b"\n")
            await up.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            up.outstanding -= 1
            up.dead = True
            self._count("router.shed")
            await self._send(state.writer, self._worker_shed(shard, seq))

    def _worker_shed(self, shard: int, seq: Optional[int]) -> dict:
        response = shed_response(
            retry_after=0.25,
            detail=f"shard {shard} unavailable (worker restarting)",
        )
        if seq is not None:
            response["seq"] = seq
        return response

    async def _open_upstream(
        self, state: _ClientState, shard: int
    ) -> Optional[_Upstream]:
        deadline = time.perf_counter() + self.data_retry
        while True:
            try:
                reader, writer = await asyncio.open_unix_connection(
                    self.worker_paths[shard]
                )
                break
            except OSError:
                if time.perf_counter() >= deadline:
                    return None
                await asyncio.sleep(0.02)
        up = _Upstream(shard=shard, reader=reader, writer=writer)
        up.pump = asyncio.create_task(
            self._pump(up, state.writer), name=f"router-pump-{shard}"
        )
        state.upstreams[shard] = up
        return up

    async def _pump(
        self, up: _Upstream, client_writer: asyncio.StreamWriter
    ) -> None:
        """Copy one worker's responses back to one client, 1:1."""
        cancelled = False
        try:
            while True:
                line = await up.reader.readline()
                if not line:
                    break
                if up.outstanding > 0:
                    up.outstanding -= 1
                try:
                    client_writer.write(line)
                    await client_writer.drain()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    break
        except asyncio.CancelledError:
            cancelled = True
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            up.dead = True
            flush, up.outstanding = up.outstanding, 0
            if not cancelled and flush > 0:
                # the worker died with requests in flight: every one of
                # them gets a structured shed (seq never consumed), so
                # the client can resync via hello instead of hanging
                self._count("router.worker_lost_inflight", flush)
                for _ in range(flush):
                    await self._send(
                        client_writer, self._worker_shed(up.shard, None)
                    )
            try:
                up.writer.close()
            except Exception:
                pass
        if cancelled:
            raise asyncio.CancelledError

    def _close_upstream(self, up: _Upstream) -> None:
        up.dead = True
        if up.pump is not None:
            up.pump.cancel()
        try:
            up.writer.close()
        except Exception:
            pass

    # -- fan-out ops ---------------------------------------------------------

    async def _handle_op(self, op: str, state: _ClientState) -> None:
        writer = state.writer
        if op == "subscribe":
            self.subscribers.add(writer)
            await self._send(
                writer,
                {
                    "ok": True,
                    "kind": "subscribed",
                    "workers": self.num_shards,
                },
            )
            return
        if op == "crash-worker":
            await self._send(
                writer,
                error_response(
                    "unsupported",
                    "crash-worker must target a worker socket directly",
                ),
            )
            return
        if op not in ("hello", "stats", "snapshot", "shutdown"):
            await self._send(
                writer, error_response("unsupported", f"unknown op {op!r}")
            )
            return
        replies = await self._scatter({"op": op})
        down = [shard for shard, reply in enumerate(replies) if reply is None]
        if down:
            self._count("router.worker_down")
            await self._send(
                writer,
                error_response(
                    "worker-down",
                    f"shard(s) {down} unreachable for op {op!r}; "
                    f"retry after the supervisor restarts them",
                ),
            )
            return
        if op == "hello":
            await self._send(writer, self._fold_hello(replies))
        elif op == "stats":
            await self._send(writer, self._fold_stats(replies))
        elif op == "snapshot":
            await self._send(writer, self._fold_snapshot(replies))
        elif op == "shutdown":
            await self._send(
                writer,
                {"ok": True, "kind": "stopping", "workers": self.num_shards},
            )
            self.events.info("router-shutdown", "scattered to all shards")
            self.request_stop()

    async def _scatter(self, payload: dict) -> List[Optional[dict]]:
        """Send one op to every worker; ``None`` marks an unreachable one."""
        raw = (json.dumps(payload) + "\n").encode()
        return list(
            await asyncio.gather(
                *(
                    self._ask_worker(shard, raw)
                    for shard in range(self.num_shards)
                )
            )
        )

    async def _ask_worker(self, shard: int, raw: bytes) -> Optional[dict]:
        """One request/response over a fresh control connection.

        Fresh connections sidestep stale sockets after a worker restart;
        ops are rare, so the per-op connect cost is irrelevant.  Retries
        cover one supervisor restart window, then give up (``None``).
        """
        deadline = time.perf_counter() + self.op_retry
        while True:
            writer = None
            try:
                reader, writer = await asyncio.open_unix_connection(
                    self.worker_paths[shard]
                )
                writer.write(raw)
                await writer.drain()
                line = await reader.readline()
                if not line:
                    raise ConnectionError("worker closed without answering")
                return json.loads(line)
            except (OSError, ValueError, ConnectionError):
                if time.perf_counter() >= deadline:
                    return None
                await asyncio.sleep(0.05)
            finally:
                if writer is not None:
                    try:
                        writer.close()
                    except Exception:
                        pass

    # -- folds ---------------------------------------------------------------

    def _fold_hello(self, replies: List[dict]) -> dict:
        first = replies[0]
        shards = [
            {
                "shard": shard,
                "watermark": reply.get("watermark", 0),
                "resumed": bool(reply.get("resumed")),
            }
            for shard, reply in enumerate(replies)
        ]
        return {
            "ok": True,
            "kind": "hello",
            "protocol": PROTOCOL_VERSION,
            "workers": self.num_shards,
            "num_buckets": self.num_buckets,
            "algorithm": first.get("algorithm"),
            "disk_chunks": first.get("disk_chunks"),
            "chunk_bytes": first.get("chunk_bytes"),
            "alpha_f2r": first.get("alpha_f2r"),
            "watermark": sum(s["watermark"] for s in shards),
            "resumed": any(s["resumed"] for s in shards),
            "shards": shards,
        }

    def _fold_stats(self, replies: List[dict]) -> dict:
        totals: Dict[str, int] = {}
        counters: Dict[str, float] = {}
        for reply in replies:
            for key, value in (reply.get("totals") or {}).items():
                totals[key] = totals.get(key, 0) + int(value)
            for key, value in (reply.get("counters") or {}).items():
                counters[key] = counters.get(key, 0) + value
        slo = merged_summary(
            [reply.get("registry", {}) for reply in replies],
            [
                (reply.get("slo") or {}).get("sustained_qps", 0.0)
                for reply in replies
            ],
        )
        shards = [
            {
                "shard": shard,
                "watermark": reply.get("watermark", 0),
                "queue_depth": reply.get("queue_depth", 0),
                "degraded": bool(reply.get("degraded")),
                "shed": (reply.get("counters") or {}).get("serve.shed", 0),
                "malformed": (reply.get("counters") or {}).get(
                    "serve.malformed", 0
                ),
                "worker_restarts": reply.get("worker_restarts", 0),
                "occupancy": reply.get("occupancy", 0),
                "disk_used": reply.get("disk_used", 0.0),
                "snapshots_written": reply.get("snapshots_written", 0),
                "resumed": bool(reply.get("resumed")),
                "decisions": (reply.get("slo") or {}).get("decisions", 0),
                "sustained_qps": (reply.get("slo") or {}).get(
                    "sustained_qps", 0.0
                ),
            }
            for shard, reply in enumerate(replies)
        ]
        merged: dict = {
            "ok": True,
            "kind": "stats",
            "workers": self.num_shards,
            "watermark": sum(s["watermark"] for s in shards),
            "totals": totals,
            "counters": counters,
            "slo": slo,
            "degraded": any(s["degraded"] for s in shards),
            "resumed": any(s["resumed"] for s in shards),
            "shards": shards,
            "router": {
                "counters": dict(self.counters),
                "uptime_seconds": time.perf_counter() - self._started_perf,
            },
        }
        for key in _MERGED_COUNTER_KEYS:
            merged[key] = sum(reply.get(key, 0) for reply in replies)
        return merged

    def _fold_snapshot(self, replies: List[dict]) -> dict:
        shards = [
            {
                "shard": shard,
                "watermark": reply.get("watermark", 0),
                "path": reply.get("path"),
            }
            for shard, reply in enumerate(replies)
        ]
        return {
            "ok": True,
            "kind": "snapshot",
            "watermark": sum(s["watermark"] for s in shards),
            "shards": shards,
        }

    # -- telemetry rebroadcast -----------------------------------------------

    async def _subscription_pump(self, shard: int) -> None:
        """Subscribe to one worker and rebroadcast its publications.

        Workers tag their lane snapshots with their shard id, so the
        rebroadcast needs no rewriting.  The pump reconnects forever —
        a restarting worker just causes a gap in its publications.
        """
        path = self.worker_paths[shard]
        while not self._stopping:
            writer = None
            try:
                reader, writer = await asyncio.open_unix_connection(path)
                writer.write(b'{"op": "subscribe"}\n')
                await writer.drain()
                ack = await reader.readline()  # "subscribed" — dropped
                if not ack:
                    raise ConnectionError("no subscribe ack")
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    for sub in list(self.subscribers):
                        try:
                            sub.write(line)
                            await sub.drain()
                        except (
                            ConnectionResetError,
                            BrokenPipeError,
                            OSError,
                        ):
                            self.subscribers.discard(sub)
            except (OSError, ConnectionError):
                pass
            finally:
                if writer is not None:
                    try:
                        writer.close()
                    except Exception:
                        pass
            await asyncio.sleep(0.2)

    # -- helpers -------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    async def _send(self, writer: asyncio.StreamWriter, response: dict) -> None:
        try:
            writer.write((json.dumps(response) + "\n").encode())
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


def _parse_tcp(value: str) -> Tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"--tcp needs HOST:PORT, got {value!r}")
    return host, int(port)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the shard router (normally spawned by ``repro-serve --workers N``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.router", description=main.__doc__
    )
    parser.add_argument("--socket", default=None, help="public unix socket")
    parser.add_argument("--tcp", type=_parse_tcp, default=None)
    parser.add_argument(
        "--worker",
        action="append",
        default=[],
        metavar="PATH",
        help="worker unix socket, in shard order (repeat N times)",
    )
    parser.add_argument("--num-buckets", type=int, default=DEFAULT_NUM_BUCKETS)
    parser.add_argument("--op-retry", type=float, default=DEFAULT_OP_RETRY)
    parser.add_argument("--echo-events", action="store_true")
    args = parser.parse_args(argv)
    if not (args.socket or args.tcp):
        parser.error("need at least one endpoint: --socket or --tcp")
    if not args.worker:
        parser.error("need at least one --worker socket")
    router = ShardRouter(
        args.worker,
        num_buckets=args.num_buckets,
        events=EventLog(echo=args.echo_events),
        op_retry=args.op_retry,
    )
    try:
        return asyncio.run(router.run(unix_path=args.socket, tcp=args.tcp))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C race
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
