"""Fault-soak harness: traffic + kills against a live ``repro-serve``.

The soak replays a (diurnal) trace against a daemon subprocess while a
seeded :class:`~repro.cdn.faults.FaultSchedule` of ``restart`` events
SIGKILLs and restarts it mid-run, injecting hostile lines along the
way: malformed JSON and, in turn, lines over
:data:`~repro.serve.protocol.MAX_LINE_BYTES`.  The pass criterion is
exactness, not survival alone: the final traffic totals must be
**byte-identical** to an uninterrupted batch
replay of the same trace (both sides run
:func:`repro.serve.protocol.decide_and_account`), the request-sequence
watermark must equal the trace length (nothing double-counted, nothing
lost), and every hostile line must have been answered (``malformed``
or ``line-too-long``) without dropping the connection.

Runnable directly — the CI ``serve-smoke`` job and ``make serve-soak``
both call ``python -m repro.serve.soak``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cdn.faults import FaultEvent, FaultSchedule
from repro.cdn.sharding import DEFAULT_NUM_BUCKETS, shard_of
from repro.serve.client import ServeClient, connect_with_retry
from repro.serve.daemon import ServeConfig
from repro.serve.protocol import MAX_LINE_BYTES, decide_and_account, new_totals
from repro.sim.runner import build_cache
from repro.trace.requests import Request

__all__ = [
    "DaemonProcess",
    "FleetProcess",
    "SoakOutcome",
    "batch_totals",
    "kill_schedule",
    "run_soak",
    "run_sharded_soak",
    "shard_plan",
    "sharded_batch_totals",
    "main",
]


def batch_totals(config: ServeConfig, requests: Sequence[Request]) -> Dict[str, int]:
    """The uninterrupted batch replay the daemon must match exactly."""
    cache = build_cache(
        config.algorithm,
        config.disk_chunks,
        alpha_f2r=config.alpha_f2r,
        chunk_bytes=config.chunk_bytes,
    )
    totals = new_totals()
    last_t = float("-inf")
    for r in requests:
        _, last_t = decide_and_account(
            cache, totals, r.t, r.video, r.b0, r.b1, last_t
        )
    return totals


def shard_plan(
    requests: Sequence[Request],
    workers: int,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
):
    """Precomputed per-shard routing/sequencing of one trace.

    Returns ``(shards, seqs, positions)`` where ``shards[i]`` is the
    owning shard of request ``i``, ``seqs[i]`` its 1-based per-shard
    sequence number (the seq a sharded client must attach — fixed for
    the whole soak, resends included), and ``positions[k][n]`` the
    global index of shard ``k``'s ``(n+1)``-th request (the resume
    cursor map: after a crash, replay restarts at the minimum over
    shards of ``positions[k][watermark_k]``).
    """
    shards: List[int] = []
    seqs: List[int] = []
    positions: List[List[int]] = [[] for _ in range(workers)]
    for index, r in enumerate(requests):
        shard = shard_of(r.video, workers, num_buckets)
        shards.append(shard)
        positions[shard].append(index)
        seqs.append(len(positions[shard]))
    return shards, seqs, positions


def sharded_batch_totals(
    config: ServeConfig,
    requests: Sequence[Request],
    workers: int,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
) -> Dict[str, int]:
    """The uninterrupted *sharded* replay the fleet must match exactly.

    N independent caches (one per shard, each sized ``disk_chunks``
    like its live counterpart), each with its own stale-timestamp
    cursor, fed through the same :func:`shard_of` routing the router
    applies — then totals summed.  This is the fleet's ground truth;
    it intentionally differs from the single-cache :func:`batch_totals`
    (different cache partitioning ⇒ different hit patterns).
    """
    caches = [
        build_cache(
            config.algorithm,
            config.disk_chunks,
            alpha_f2r=config.alpha_f2r,
            chunk_bytes=config.chunk_bytes,
        )
        for _ in range(workers)
    ]
    per_shard = [new_totals() for _ in range(workers)]
    last_t = [float("-inf")] * workers
    for r in requests:
        shard = shard_of(r.video, workers, num_buckets)
        _, last_t[shard] = decide_and_account(
            caches[shard], per_shard[shard], r.t, r.video, r.b0, r.b1,
            last_t[shard],
        )
    totals: Dict[str, int] = {}
    for shard_totals in per_shard:
        for key, value in shard_totals.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def kill_schedule(
    requests: Sequence[Request], restarts: int, seed: int
) -> FaultSchedule:
    """Seeded restart events inside the middle 80% of the trace span."""
    events: List[FaultEvent] = []
    if restarts > 0 and len(requests) >= 2:
        rng = random.Random(seed)
        t0, t1 = requests[0].t, requests[-1].t
        span = max(t1 - t0, 1.0)
        for _ in range(restarts):
            events.append(
                FaultEvent(
                    kind="restart",
                    server="serve",
                    t=t0 + span * rng.uniform(0.1, 0.9),
                    duration=1.0,
                )
            )
    return FaultSchedule(events, seed=seed)


class DaemonProcess:
    """A ``repro-serve`` subprocess bound to one unix socket."""

    def __init__(
        self,
        socket_path: str,
        config: ServeConfig,
        telemetry_path: Optional[str] = None,
    ) -> None:
        self.socket_path = socket_path
        self.config = config
        self.telemetry_path = telemetry_path
        self.proc: Optional[subprocess.Popen] = None
        self.starts = 0

    def args(self) -> List[str]:
        config = self.config
        argv = [
            sys.executable,
            "-m",
            "repro.serve.cli",
            "--socket",
            self.socket_path,
            "--algorithm",
            config.algorithm,
            "--disk-chunks",
            str(config.disk_chunks),
            "--chunk-bytes",
            str(config.chunk_bytes),
            "--alpha",
            str(config.alpha_f2r),
            "--rate",
            str(config.rate),
            "--queue-limit",
            str(config.queue_limit),
            "--snapshot-every",
            str(config.snapshot_every),
            "--publish-interval",
            str(config.publish_interval),
        ]
        if config.snapshot_dir:
            argv += ["--snapshot-dir", config.snapshot_dir]
        if self.telemetry_path:
            argv += ["--telemetry", self.telemetry_path]
        if config.test_hooks:
            argv += ["--test-hooks"]
        return argv

    def start(self) -> None:
        # stale socket from a SIGKILLed predecessor must not block bind
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self.proc = subprocess.Popen(self.args())
        self.starts += 1

    def kill(self) -> None:
        """SIGKILL — the crash the snapshot watermark must survive."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=30)

    def wait(self, timeout: float = 30.0) -> Optional[int]:
        if self.proc is None:
            return None
        return self.proc.wait(timeout=timeout)

    def connect(self, retry_for: float = 20.0) -> ServeClient:
        return connect_with_retry(self.socket_path, retry_for=retry_for)


class FleetProcess:
    """A ``repro-serve --workers N`` supervisor tree on one unix socket.

    The supervisor's pidfile names every role's live pid, so the soak
    can SIGKILL a *specific* worker or the router — the two fleet
    deaths the acceptance gate requires — and let the supervisor's
    restart logic (not the harness) bring the victim back.
    """

    def __init__(
        self,
        socket_path: str,
        run_dir: str,
        config: ServeConfig,
        workers: int,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        telemetry_path: Optional[str] = None,
    ) -> None:
        self.socket_path = socket_path
        self.run_dir = run_dir
        self.config = config
        self.workers = workers
        self.num_buckets = num_buckets
        self.telemetry_path = telemetry_path
        self.pidfile = os.path.join(run_dir, "fleet.json")
        self.proc: Optional[subprocess.Popen] = None

    def args(self) -> List[str]:
        config = self.config
        argv = [
            sys.executable,
            "-m",
            "repro.serve.cli",
            "--socket",
            self.socket_path,
            "--workers",
            str(self.workers),
            "--num-buckets",
            str(self.num_buckets),
            "--run-dir",
            self.run_dir,
            "--algorithm",
            config.algorithm,
            "--disk-chunks",
            str(config.disk_chunks),
            "--chunk-bytes",
            str(config.chunk_bytes),
            "--alpha",
            str(config.alpha_f2r),
            "--rate",
            str(config.rate),
            "--queue-limit",
            str(config.queue_limit),
            "--snapshot-every",
            str(config.snapshot_every),
            "--publish-interval",
            str(config.publish_interval),
        ]
        if config.snapshot_dir:
            argv += ["--snapshot-dir", config.snapshot_dir]
        if self.telemetry_path:
            argv += ["--telemetry", self.telemetry_path]
        if config.test_hooks:
            argv += ["--test-hooks"]
        return argv

    def start(self) -> None:
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self.proc = subprocess.Popen(self.args())

    def pidmap(self, retry_for: float = 20.0) -> dict:
        """The supervisor's role->pid map, waiting out startup races."""
        deadline = time.monotonic() + retry_for
        while True:
            try:
                with open(self.pidfile, "r", encoding="utf-8") as stream:
                    return json.load(stream)
            except (OSError, json.JSONDecodeError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def _sigkill(self, pid: Optional[int]) -> bool:
        if not pid:
            return False
        try:
            os.kill(pid, signal.SIGKILL)
            return True
        except (ProcessLookupError, OSError):
            return False

    def kill_worker(self, shard: int) -> bool:
        """SIGKILL one worker; the supervisor warm-restarts it alone."""
        entries = self.pidmap().get("workers", [])
        for entry in entries:
            if entry.get("shard") == shard:
                return self._sigkill(entry.get("pid"))
        return False

    def kill_router(self) -> bool:
        """SIGKILL the router; stateless, so nothing is lost."""
        return self._sigkill(self.pidmap().get("router", {}).get("pid"))

    def connect(self, retry_for: float = 30.0) -> ServeClient:
        return connect_with_retry(self.socket_path, retry_for=retry_for)

    def wait(self, timeout: float = 60.0) -> Optional[int]:
        if self.proc is None:
            return None
        return self.proc.wait(timeout=timeout)

    def terminate(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


@dataclass
class SoakOutcome:
    """What one soak run produced (see :func:`run_soak`)."""

    sent: int = 0
    watermark: int = 0
    restarts: int = 0
    resumed_restarts: int = 0
    #: sharded-soak extras (zero / empty in single-daemon soaks)
    workers: int = 1
    worker_kills: int = 0
    router_kills: int = 0
    malformed_sent: int = 0
    malformed_acked: int = 0
    overlong_sent: int = 0
    overlong_acked: int = 0
    shed: int = 0
    duplicates: int = 0
    recoveries: int = 0
    totals: Dict[str, int] = field(default_factory=dict)
    batch: Dict[str, int] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return self.totals == self.batch and self.watermark == self.sent

    @property
    def ok(self) -> bool:
        return (
            self.exact
            and self.malformed_acked == self.malformed_sent
            and self.overlong_acked == self.overlong_sent
        )

    def describe(self) -> str:
        lines = [
            f"soak: {self.sent} requests, {self.restarts} kill(s) "
            + (
                f"[{self.workers} workers: {self.worker_kills} worker, "
                f"{self.router_kills} router] "
                if self.workers > 1
                else ""
            )
            + f"({self.resumed_restarts} warm resume(s)), "
            f"{self.malformed_sent} malformed line(s) "
            f"({self.malformed_acked} acked), {self.overlong_sent} over-long "
            f"line(s) ({self.overlong_acked} acked), {self.duplicates} duplicate "
            f"ack(s), {self.shed} shed, {self.recoveries} recover(ies)",
            f"watermark: {self.watermark} (expected {self.sent})",
            f"totals exact vs batch replay: {self.totals == self.batch}",
        ]
        if self.totals != self.batch:
            for key in sorted(set(self.totals) | set(self.batch)):
                a, b = self.totals.get(key), self.batch.get(key)
                if a != b:
                    lines.append(f"  MISMATCH {key}: daemon={a} batch={b}")
        return "\n".join(lines)


_MALFORMED_LINE = '{"t": "not-a-number", "video": -3'
#: longer than the daemon's line limit: answered ``line-too-long``
_OVERLONG_LINE = '{"pad": "' + "x" * MAX_LINE_BYTES + '"}'


def _hostile_line(outcome: "SoakOutcome") -> str:
    """The next injected line, alternating malformed and over-long,
    counted as sent."""
    if outcome.malformed_sent > outcome.overlong_sent:
        outcome.overlong_sent += 1
        return _OVERLONG_LINE
    outcome.malformed_sent += 1
    return _MALFORMED_LINE


def _count_hostile_ack(outcome: "SoakOutcome", code: Optional[str]) -> bool:
    """Count an error ack answering an injected line; False for any
    other error."""
    if code == "malformed":
        outcome.malformed_acked += 1
    elif code == "line-too-long":
        outcome.overlong_acked += 1
    else:
        return False
    return True


def run_soak(
    requests: Sequence[Request],
    config: ServeConfig,
    restarts: int = 1,
    fault_seed: int = 20140413,
    malformed_every: int = 0,
    window: int = 256,
    socket_path: Optional[str] = None,
    telemetry_path: Optional[str] = None,
    progress: bool = False,
) -> SoakOutcome:
    """Drive the full soak; returns the outcome (caller asserts ``.ok``).

    ``requests`` must be time-sorted.  ``config.snapshot_dir`` should
    be set when ``restarts > 0`` — without it a kill falls back to a
    cold start, which is still *exact* (the client resends everything)
    but no longer tests warm recovery.
    """
    outcome = SoakOutcome(sent=len(requests), restarts=0)
    outcome.batch = batch_totals(config, requests)

    schedule = kill_schedule(requests, restarts, fault_seed)
    kill_times = [event.t for event in schedule.events if event.kind == "restart"]

    with tempfile.TemporaryDirectory(prefix="repro-serve-soak-") as workdir:
        sock = socket_path or os.path.join(workdir, "serve.sock")
        daemon = DaemonProcess(sock, config, telemetry_path=telemetry_path)
        daemon.start()
        client = daemon.connect()
        hello = client.hello()
        next_seq = hello["watermark"] + 1
        kill_index = 0
        since_malformed = 0

        try:
            while next_seq <= len(requests):
                # the fault schedule fires between windows: SIGKILL,
                # restart, reconnect, resume from the restored watermark
                if (
                    kill_index < len(kill_times)
                    and requests[next_seq - 1].t >= kill_times[kill_index]
                ):
                    kill_index += 1
                    outcome.restarts += 1
                    client.close()
                    daemon.kill()
                    daemon.start()
                    client = daemon.connect()
                    hello = client.hello()
                    if hello.get("resumed"):
                        outcome.resumed_restarts += 1
                    next_seq = hello["watermark"] + 1
                    if progress:
                        print(
                            f"  killed + restarted at seq {next_seq - 1} "
                            f"(warm={hello.get('resumed')})",
                            file=sys.stderr,
                        )

                count = min(window, len(requests) - next_seq + 1)
                if kill_index < len(kill_times):
                    # never let a window jump past a pending kill: clamp
                    # it to the requests before the kill time so the
                    # next loop iteration fires the restart
                    boundary = kill_times[kill_index]
                    ahead = 0
                    while (
                        ahead < count
                        and requests[next_seq - 1 + ahead].t < boundary
                    ):
                        ahead += 1
                    count = max(ahead, 1)
                injected = 0
                try:
                    for offset in range(count):
                        r = requests[next_seq - 1 + offset]
                        client.send(
                            {
                                "seq": next_seq + offset,
                                "t": r.t,
                                "video": r.video,
                                "b0": r.b0,
                                "b1": r.b1,
                            }
                        )
                        since_malformed += 1
                        if malformed_every and since_malformed >= malformed_every:
                            since_malformed = 0
                            injected += 1
                            client.send_raw(_hostile_line(outcome))
                    client.flush()
                    retry_after = 0.0
                    clean = True
                    for _ in range(count + injected):
                        response = client.read_response()
                        if response.get("ok"):
                            if response.get("kind") == "duplicate":
                                outcome.duplicates += 1
                            continue
                        code = response.get("error")
                        if _count_hostile_ack(outcome, code):
                            continue
                        clean = False
                        if code == "overloaded":
                            outcome.shed += 1
                            retry_after = max(
                                retry_after, response.get("retry_after", 0.0)
                            )
                    if clean:
                        next_seq += count
                    else:
                        # something was shed/gapped/failed: the watermark
                        # is the one source of truth for where to resume
                        if retry_after > 0:
                            time.sleep(min(retry_after, 1.0))
                        next_seq = client.hello()["watermark"] + 1
                        outcome.recoveries += 1
                except (ConnectionError, OSError, ValueError):
                    # daemon died mid-window (or a kill raced us):
                    # reconnect — possibly to a restarted process — and
                    # resume from its watermark
                    client.close()
                    if daemon.proc is not None and daemon.proc.poll() is not None:
                        daemon.start()
                        outcome.restarts += 1
                    client = daemon.connect()
                    hello = client.hello()
                    if hello.get("resumed"):
                        outcome.resumed_restarts += 1
                    next_seq = hello["watermark"] + 1
                    outcome.recoveries += 1

            stats = client.stats()
            outcome.stats = stats
            outcome.watermark = stats["watermark"]
            outcome.totals = {k: int(v) for k, v in stats["totals"].items()}
            client.shutdown()
            client.close()
            daemon.wait()
        finally:
            try:
                daemon.kill()
            except Exception:
                pass
    return outcome


def _fleet_op(
    fleet: "FleetProcess",
    client: ServeClient,
    name: str,
    retry_for: float = 30.0,
):
    """One router fan-out op, healing the connection as needed.

    Two failure modes are expected and retried: a ``worker-down``
    refusal (the router answers it while a SIGKILLed shard is being
    restarted by the supervisor), and a dead connection — SIGKILL
    delivery is asynchronous, so a reconnect issued right after
    ``kill_router`` can still land on the dying process and get reset
    on first read.  Returns ``(client, response)`` with ``client``
    possibly replaced by a fresh connection.
    """
    deadline = time.monotonic() + retry_for
    while True:
        try:
            response = client.op(name)
            if response.get("ok"):
                return client, response
        except (ConnectionError, OSError, ValueError):
            response = None
            client.close()
            client = fleet.connect(
                retry_for=max(deadline - time.monotonic(), 1.0)
            )
        if time.monotonic() >= deadline:
            raise RuntimeError(f"fleet op {name!r} kept failing: {response}")
        time.sleep(0.1)


def _resume_cursor(hello: dict, positions: Sequence[Sequence[int]], n: int) -> int:
    """Global resume index from a router ``hello``'s per-shard watermarks.

    Each shard k must next receive its ``(watermark_k + 1)``-th request;
    the global cursor is the *earliest* of those positions.  Requests
    before other shards' positions get resent and acked as duplicates —
    per-shard watermark independence makes the overlap harmless, and
    the duplicate count proves nothing was applied twice.
    """
    cursor = n
    for entry in hello.get("shards", []):
        pos = positions[entry["shard"]]
        watermark = entry.get("watermark", 0)
        if watermark < len(pos):
            cursor = min(cursor, pos[watermark])
    return cursor


def run_sharded_soak(
    requests: Sequence[Request],
    config: ServeConfig,
    workers: int,
    restarts: int = 2,
    fault_seed: int = 20140413,
    malformed_every: int = 0,
    window: int = 256,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    socket_path: Optional[str] = None,
    telemetry_path: Optional[str] = None,
    progress: bool = False,
) -> SoakOutcome:
    """Soak a sharded fleet, SIGKILLing workers *and* the router.

    Same exactness contract as :func:`run_soak`, against the sharded
    ground truth: merged fleet totals must be byte-identical to
    :func:`sharded_batch_totals` and the summed watermark must equal
    the trace length.  Kill events alternate victim — first a randomly
    chosen worker (supervisor warm-restarts it from its own snapshots),
    then the router (stateless; clients reconnect and resume from
    worker watermarks) — so one soak exercises both failure rows of the
    DESIGN.md §14 matrix.
    """
    outcome = SoakOutcome(sent=len(requests), workers=workers)
    outcome.batch = sharded_batch_totals(config, requests, workers, num_buckets)
    _, seqs, positions = shard_plan(requests, workers, num_buckets)

    schedule = kill_schedule(requests, restarts, fault_seed)
    kill_times = sorted(event.t for event in schedule.events)
    kill_rng = random.Random(fault_seed + 1)
    n = len(requests)

    with tempfile.TemporaryDirectory(prefix="repro-serve-fleet-soak-") as workdir:
        sock = socket_path or os.path.join(workdir, "fleet.sock")
        fleet = FleetProcess(
            sock,
            os.path.join(workdir, "run"),
            config,
            workers,
            num_buckets=num_buckets,
            telemetry_path=telemetry_path,
        )
        fleet.start()
        client = fleet.connect()
        client, hello = _fleet_op(fleet, client, "hello")
        cursor = _resume_cursor(hello, positions, n)
        kill_index = 0
        since_malformed = 0

        try:
            while cursor < n:
                if kill_index < len(kill_times) and (
                    requests[cursor].t >= kill_times[kill_index]
                ):
                    target_router = kill_index % 2 == 1
                    kill_index += 1
                    outcome.restarts += 1
                    if target_router:
                        if fleet.kill_router():
                            outcome.router_kills += 1
                    else:
                        shard = kill_rng.randrange(workers)
                        if fleet.kill_worker(shard):
                            outcome.worker_kills += 1
                    client, hello = _fleet_op(fleet, client, "hello")
                    if hello.get("resumed"):
                        outcome.resumed_restarts += 1
                    cursor = _resume_cursor(hello, positions, n)
                    if progress:
                        victim = "router" if target_router else f"worker-{shard}"
                        print(
                            f"  SIGKILLed {victim}, resumed at index {cursor} "
                            f"(warm={hello.get('resumed')})",
                            file=sys.stderr,
                        )

                count = min(window, n - cursor)
                if kill_index < len(kill_times):
                    boundary = kill_times[kill_index]
                    ahead = 0
                    while ahead < count and requests[cursor + ahead].t < boundary:
                        ahead += 1
                    count = max(ahead, 1)
                injected = 0
                try:
                    for offset in range(count):
                        r = requests[cursor + offset]
                        client.send(
                            {
                                "seq": seqs[cursor + offset],
                                "t": r.t,
                                "video": r.video,
                                "b0": r.b0,
                                "b1": r.b1,
                            }
                        )
                        since_malformed += 1
                        if malformed_every and since_malformed >= malformed_every:
                            since_malformed = 0
                            injected += 1
                            client.send_raw(_hostile_line(outcome))
                    client.flush()
                    retry_after = 0.0
                    clean = True
                    for _ in range(count + injected):
                        response = client.read_response()
                        if response.get("ok"):
                            if response.get("kind") == "duplicate":
                                outcome.duplicates += 1
                            continue
                        code = response.get("error")
                        if _count_hostile_ack(outcome, code):
                            continue
                        clean = False
                        if code == "overloaded":
                            outcome.shed += 1
                            retry_after = max(
                                retry_after, response.get("retry_after", 0.0)
                            )
                    if clean:
                        cursor += count
                    else:
                        # a shard refused (shed / gap while its worker
                        # restarts): jittered wait, then the per-shard
                        # watermarks say exactly where to resume
                        if retry_after > 0:
                            time.sleep(
                                min(client.backoff(retry_after), 1.0)
                            )
                        client, hello = _fleet_op(fleet, client, "hello")
                        cursor = _resume_cursor(hello, positions, n)
                        outcome.recoveries += 1
                except (ConnectionError, OSError, ValueError):
                    # the router died mid-window (or a kill raced us):
                    # reconnect through the restarted router and resume
                    client, hello = _fleet_op(fleet, client, "hello")
                    if hello.get("resumed"):
                        outcome.resumed_restarts += 1
                    cursor = _resume_cursor(hello, positions, n)
                    outcome.recoveries += 1

            client, stats = _fleet_op(fleet, client, "stats")
            outcome.stats = stats
            outcome.watermark = stats["watermark"]
            outcome.totals = {k: int(v) for k, v in stats["totals"].items()}
            client, _ = _fleet_op(fleet, client, "shutdown")
            client.close()
            fleet.wait()
        finally:
            try:
                fleet.terminate()
            except Exception:
                pass
    return outcome


def _generate(server: str, scale: float, days: float, seed: int) -> List[Request]:
    from repro.workload.generator import TraceGenerator
    from repro.workload.servers import SERVER_PROFILES

    profile = SERVER_PROFILES[server].scaled(scale)
    return list(TraceGenerator(profile, seed=seed).generate(days=days))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Soak/smoke a live daemon against the batch replay (exactness gate)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.soak", description=main.__doc__
    )
    parser.add_argument("--trace", default=None, help="replay this trace file")
    parser.add_argument(
        "--server", default="europe", help="generated-trace profile"
    )
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--days", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--requests", type=int, default=None, help="truncate the trace"
    )
    parser.add_argument("--algorithm", default="xLRU")
    parser.add_argument("--disk-chunks", type=int, default=2048)
    parser.add_argument("--alpha", type=float, default=2.0)
    parser.add_argument(
        "--restarts", type=int, default=1, help="seeded SIGKILL count"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=">1 soaks the sharded fleet (kills alternate worker/router)",
    )
    parser.add_argument("--num-buckets", type=int, default=DEFAULT_NUM_BUCKETS)
    parser.add_argument("--fault-seed", type=int, default=20140413)
    parser.add_argument(
        "--malformed-every",
        type=int,
        default=0,
        help="inject one hostile line every N requests "
        "(malformed and over-long in turn)",
    )
    parser.add_argument("--window", type=int, default=256)
    parser.add_argument("--snapshot-every", type=int, default=1000)
    parser.add_argument(
        "--telemetry", default=None, help="daemon telemetry JSONL output"
    )
    args = parser.parse_args(argv)

    if args.trace:
        from repro.trace.io import read_trace_csv, read_trace_jsonl

        reader = read_trace_jsonl if ".jsonl" in args.trace else read_trace_csv
        requests = list(reader(args.trace))
    else:
        requests = _generate(args.server, args.scale, args.days, args.seed)
    if args.requests is not None:
        requests = requests[: args.requests]
    if not requests:
        print("empty trace", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="repro-serve-snap-") as snapdir:
        config = ServeConfig(
            algorithm=args.algorithm,
            disk_chunks=args.disk_chunks,
            alpha_f2r=args.alpha,
            snapshot_dir=snapdir,
            snapshot_every=args.snapshot_every,
            publish_interval=0.5,
        )
        t0 = time.perf_counter()
        if args.workers > 1:
            outcome = run_sharded_soak(
                requests,
                config,
                workers=args.workers,
                restarts=args.restarts,
                fault_seed=args.fault_seed,
                malformed_every=args.malformed_every,
                window=args.window,
                num_buckets=args.num_buckets,
                telemetry_path=args.telemetry,
                progress=True,
            )
        else:
            outcome = run_soak(
                requests,
                config,
                restarts=args.restarts,
                fault_seed=args.fault_seed,
                malformed_every=args.malformed_every,
                window=args.window,
                telemetry_path=args.telemetry,
                progress=True,
            )
        wall = time.perf_counter() - t0

    print(outcome.describe())
    print(
        f"wall: {wall:.1f}s "
        f"({outcome.sent / wall:,.0f} req/s end-to-end incl. restarts)"
    )
    if args.telemetry:
        print(f"telemetry: {args.telemetry}")
    if not outcome.ok:
        print("SOAK FAILED", file=sys.stderr)
        print(json.dumps({"totals": outcome.totals, "batch": outcome.batch}))
        return 1
    print("soak ok: totals byte-identical, watermark exact")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
