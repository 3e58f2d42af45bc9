"""Serve workload: one ``repro-serve`` daemon fed the Europe trace.

A single worker on a unix socket runs Cafe at the scaled 1 TB disk,
alpha = 2, with snapshots and publishing off.  The trace is sent in
order, repeated with a time offset when the run needs more requests,
on one request sequence.  The load comes in rounds; each round is

1. open loop at :data:`LOW_RATE` requests/s for :data:`LOW_SECONDS`,
2. open loop at :data:`HIGH_RATE` requests/s for :data:`HIGH_SECONDS`,
3. a pipelined closed loop keeping :data:`WINDOW` requests in flight.

A figure is the median of its per-round values.  Rounds alternate which
CPU the daemon and the generator run on, so a CPU that the host slows
for a while moves some rounds, not the figure.

The generator is one thread with one non-blocking socket: request ``i``
of an open-loop phase is due at ``start + i / rate`` and its round trip
is timed from when it was due, so a stall is charged to every request
it delays.  An open-loop phase in which the generator itself sent later
than :data:`GEN_LATE_BOUND_MS` at p99 (the host stalled it) is late: its
round trips are left out of the figures instead of averaged in.  Its
requests were still answered, so it is not a failed operation.
"""

from __future__ import annotations

import gc
import json
import math
import os
import selectors
import socket
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench import layers
from perfbench.common import (
    Outcome,
    Sizing,
    median,
    peak_rss_mb,
    quantile,
    repeat_for,
    scratch_dir,
    timed_setups,
)
from perfbench.inputs import ALPHA, europe_trace
from perfbench.layers import attribution, put_generate, traced
from perfbench.spans import Tracer
from perfbench.speed import SpeedSampler

ALGORITHM = "Cafe"
#: Fixed open-loop rates (requests/s): about 1/8 and 1/2 of the
#: daemon's pipelined capacity with Cafe on a 2-CPU host.
LOW_RATE = 2000.0
HIGH_RATE = 8000.0
LOW_SECONDS = 0.75
HIGH_SECONDS = 0.75
#: Requests in flight during the pipelined phase (below the daemon's
#: queue limit, so nothing is shed) and requests per pipelined phase.
WINDOW = 128
PIPELINED_REQUESTS = 6000
#: Share of ``--seconds`` spent sending load; set-up and checks take
#: the rest.  A round lasts about ROUND_SECONDS (the pipelined phase
#: runs near 16k requests/s).
LOAD_SHARE = 0.8
ROUND_SECONDS = LOW_SECONDS + HIGH_SECONDS + PIPELINED_REQUESTS / 16000
#: p99 of how late the generator sent a phase's requests, beyond which
#: the phase's round trips are not trusted and are left out.
GEN_LATE_BOUND_MS = 10.0
#: The daemon's queue limit: two seconds of the high rate, so a host
#: stall of that length queues requests instead of shedding them (a
#: shed breaks the request sequence for every later request).
QUEUE_LIMIT = 16384
#: How long a request may wait in the daemon's queue before it is
#: answered with a timeout: far beyond any host stall the queue limit
#: absorbs, so a stall delays requests instead of failing one.
REQUEST_TIMEOUT = 30.0
#: The generator polls instead of sleeping when the next request is due
#: within this many seconds.
SPIN_SECONDS = 0.002
#: A phase with no reply for this long has stalled.
STALL_SECONDS = 30.0


@dataclass
class Phase:
    """What one load phase measured."""

    name: str
    sent: int = 0
    #: round trip of each request, from when it was due (seconds)
    rtts: List[float] = field(default_factory=list)
    #: how late each request was handed to the socket (seconds)
    late: List[float] = field(default_factory=list)
    #: when each reply arrived (perf_counter seconds)
    arrived: List[float] = field(default_factory=list)
    failed: int = 0
    #: host-speed scale over the phase (see :mod:`perfbench.speed`)
    scale: float = 1.0

    @property
    def on_time(self) -> bool:
        return quantile(self.late, 0.99) * 1e3 <= GEN_LATE_BOUND_MS

    def completion_rate(self) -> float:
        """Replies per second between the first and the last reply."""
        return (self.sent - 1) / (max(self.arrived) - min(self.arrived))


def serve_config(disk: int):
    from repro.serve.daemon import ServeConfig

    return ServeConfig(
        algorithm=ALGORITHM,
        disk_chunks=disk,
        alpha_f2r=ALPHA,
        snapshot_every=0,
        publish_interval=0.0,
        queue_limit=QUEUE_LIMIT,
        request_timeout=REQUEST_TIMEOUT,
    )


class Daemon:
    """One ``repro-serve`` child process and its control connection."""

    def __init__(self, socket_path: str, config) -> None:
        from repro.serve.soak import DaemonProcess

        self.path = socket_path
        # ``DaemonProcess`` passes every knob the benchmark sets but this one.
        argv = DaemonProcess(socket_path, config).args() + [
            "--request-timeout", str(config.request_timeout)
        ]
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        self.control = None

    def connect(self, retry_for: float = 60.0) -> socket.socket:
        deadline = time.monotonic() + retry_for
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.path)
                return sock
            except OSError:
                sock.close()
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise
                time.sleep(0.002)

    def hello(self) -> dict:
        from repro.serve.client import ServeClient

        self.control = ServeClient(self.connect())
        return self.control.hello()

    def stop(self) -> Optional[int]:
        """Graceful shutdown; SIGKILL if the daemon does not exit."""
        try:
            if self.control is not None and self.proc.poll() is None:
                self.control.shutdown()
        except (OSError, ValueError):
            pass
        finally:
            if self.control is not None:
                self.control.close()
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
            return None


def pin(daemon_pid: int, cpus: List[int], round_index: int) -> int:
    """Put the generator and the daemon on different CPUs, if there are two.

    The generator polls, so it never sleeps; unpinned, the kernel wakes
    the daemon on the generator's CPU and the two share one core in
    turns of a few milliseconds.  Odd rounds swap the two CPUs.  Returns
    the daemon's CPU.
    """
    if len(cpus) < 2:
        return cpus[0]
    first, second = cpus[0], cpus[1]
    if round_index % 2:
        first, second = second, first
    os.sched_setaffinity(daemon_pid, {second})
    os.sched_setaffinity(0, {first})
    return second


def request_stream(trace, count: int):
    """``count`` requests: the trace in order, repeated with a time shift."""
    from repro.trace.requests import Request

    span = trace[-1].t - trace[0].t + 1.0
    out = []
    lap = 0
    while len(out) < count:
        shift = lap * span
        for r in trace:
            if len(out) == count:
                break
            out.append(Request(r.t + shift, r.video, r.b0, r.b1) if shift else r)
        lap += 1
    return out


def wire_lines(requests, first_seq: int = 1) -> List[bytes]:
    return [
        (
            json.dumps(
                {"seq": first_seq + i, "t": r.t, "video": r.video, "b0": r.b0, "b1": r.b1}
            )
            + "\n"
        ).encode()
        for i, r in enumerate(requests)
    ]


def drive(sock: socket.socket, lines: List[bytes], first_seq: int, name: str,
          rate: float = 0.0, window: int = 0) -> Phase:
    """Send ``lines`` open-loop at ``rate``, or closed-loop with ``window``.

    One thread, one non-blocking socket: requests are appended to the
    send buffer when due (or when a window slot frees up), and replies
    are matched to requests by ``seq``.
    """
    n = len(lines)
    phase = Phase(
        name, sent=n, rtts=[math.nan] * n, late=[0.0] * n, arrived=[math.nan] * n
    )
    due = [0.0] * n
    done = [False] * n
    sock.setblocking(False)
    selector = selectors.DefaultSelector()
    selector.register(sock, selectors.EVENT_READ)
    out = bytearray()
    pending = b""
    sent = received = 0
    start = time.perf_counter() + 0.002
    last_progress = time.perf_counter()
    try:
        while received < n:
            now = time.perf_counter()
            if rate > 0:
                while sent < n and start + sent / rate <= now:
                    due[sent] = start + sent / rate
                    phase.late[sent] = now - due[sent]
                    out += lines[sent]
                    sent += 1
            else:
                while sent < n and sent - received < window:
                    due[sent] = now
                    out += lines[sent]
                    sent += 1
            if out:
                try:
                    del out[: sock.send(out)]
                except BlockingIOError:
                    pass
            if out:
                timeout = 0.0
            elif rate > 0 and sent < n:
                # Sleeping overshoots by up to milliseconds on a busy or
                # virtualised host, so the last SPIN_SECONDS before a
                # request is due are spent polling.
                wait = start + sent / rate - time.perf_counter() - SPIN_SECONDS
                timeout = max(0.0, wait)
            else:
                timeout = 0.05
            if not selector.select(timeout):
                if time.perf_counter() - last_progress > STALL_SECONDS:
                    raise TimeoutError(f"{name}: no reply for {STALL_SECONDS:g}s")
                continue
            data = sock.recv(1 << 16)
            if not data:
                raise ConnectionError(f"{name}: daemon closed the connection")
            arrived = time.perf_counter()
            last_progress = arrived
            *replies, pending = (pending + data).split(b"\n")
            for raw in replies:
                reply = json.loads(raw)
                index = reply.get("seq", 0) - first_seq
                if not (0 <= index < n) or done[index]:
                    phase.failed += 1
                    continue
                done[index] = True
                received += 1
                if not (reply.get("ok") and reply.get("kind") == "decision"):
                    phase.failed += 1
                phase.rtts[index] = arrived - due[index]
                phase.arrived[index] = arrived
    finally:
        selector.close()
        sock.setblocking(True)
    return phase


def load_rounds(
    daemon: Daemon, lines: List[bytes], rounds: int, sampler: SpeedSampler
) -> Dict[str, List[Phase]]:
    """Send every round; returns each phase name's per-round phases.

    The speed sampler follows the daemon, whose CPU does most of the
    work, and each phase's scale is taken over the phase.
    """
    per_round = [
        ("low", int(LOW_RATE * LOW_SECONDS), {"rate": LOW_RATE}),
        ("high", int(HIGH_RATE * HIGH_SECONDS), {"rate": HIGH_RATE}),
        ("pipelined", PIPELINED_REQUESTS, {"window": WINDOW}),
    ]
    phases: Dict[str, List[Phase]] = {name: [] for name, _, _ in per_round}
    everywhere = os.sched_getaffinity(0)
    cpus = sorted(everywhere)
    data = daemon.connect()
    # The generator's own garbage collections (the trace and the wire
    # lines are hundreds of thousands of objects) would stall it for
    # milliseconds; it allocates little per request, so it runs with
    # the collector off.
    gc.collect()
    gc.disable()
    seq = 1
    try:
        for r in range(rounds):
            sampler.follow(pin(daemon.proc.pid, cpus, r))
            for name, count, load in per_round:
                chunk = lines[seq - 1: seq - 1 + count]
                start = time.monotonic()
                phase = drive(data, chunk, seq, name, **load)
                phase.scale = sampler.scale(start, time.monotonic())
                phases[name].append(phase)
                seq += count
    finally:
        os.sched_setaffinity(0, everywhere)
        gc.enable()
        data.close()
    return phases


def requests_needed(rounds: int) -> int:
    return rounds * (
        int(LOW_RATE * LOW_SECONDS) + int(HIGH_RATE * HIGH_SECONDS) + PIPELINED_REQUESTS
    )


def in_process_pass(lines: List[bytes], config, tracer: Optional[Tracer] = None):
    """parse -> apply -> encode on a fresh service, as the daemon does."""
    from repro.serve.daemon import DecisionService
    from repro.serve.protocol import parse_line

    service = DecisionService(config)
    texts = [line.decode() for line in lines]
    if tracer is None:
        for text in texts:
            json.dumps(service.apply(parse_line(text)))
        return service
    span = tracer.span
    for text in texts:
        response = service.apply(parse_line(text))
        with span("json.dumps", "serve.encode"):
            json.dumps(response)
    return service


def _open_loop_figures(outcome: Outcome, phases: List[Phase], rate: float):
    """Round-trip figures of the on-time rounds, in ms: wall p50 (median
    of rounds), speed-scaled p50 (median of rounds) and wall p99 (over
    their requests)."""
    kept = [p for p in phases if p.on_time] or phases
    late = sum(not p.on_time for p in phases)
    outcome.ops(sum(p.sent for p in phases), sum(p.failed for p in phases))
    p50 = median(quantile(p.rtts, 0.5) for p in kept) * 1e3
    scaled_p50 = median(quantile(p.rtts, 0.5) * p.scale for p in kept) * 1e3
    p99 = quantile([x for p in kept for x in p.rtts], 0.99) * 1e3
    outcome.notes.append(
        f"{phases[0].name}: {len(phases)} rounds of {phases[0].sent} requests at "
        f"{rate:g}/s, {late} late; rtt p50 {p50:.4f} ms wall, {scaled_p50:.4f} ms "
        f"speed-scaled (medians of rounds), p99 {p99:.4f} ms wall"
    )
    return p50, scaled_p50, p99


def run_serve(
    seed: int, seconds: float, trace_on: bool, sizing: Sizing, sampler: SpeedSampler
) -> Outcome:
    from repro.serve.soak import batch_totals

    outcome = Outcome()
    tracer = Tracer(f"serve-openloop/{seed}") if trace_on else None
    work = scratch_dir()
    daemons: List[Daemon] = []

    def start_daemon():
        trace, disk = europe_trace(sizing, seed)
        daemon = Daemon(str(work / f"serve-{len(daemons)}.sock"), serve_config(disk))
        daemons.append(daemon)
        hello = daemon.hello()
        return trace, disk, daemon, hello

    if tracer is not None:
        layers.install(tracer)
    try:
        setup, (trace, disk, daemon, hello) = timed_setups(start_daemon, sampler)
        if tracer is not None:
            put_generate(outcome, tracer)
            tracer.uninstall()
        for spare in daemons[:-1]:
            spare.stop()
        outcome.check("hello", hello.get("ok") and hello.get("watermark") == 0,
                      f"unexpected hello {hello}")
        config = serve_config(disk)
        rounds = max(2, int(seconds * LOAD_SHARE / ROUND_SECONDS))
        requests = request_stream(trace, requests_needed(rounds))
        lines = wire_lines(requests)
        phases = load_rounds(daemon, lines, rounds, sampler)
        stats = daemon.control.stats()
        rss = peak_rss_mb(daemon.proc.pid)
        code = daemon.stop()
        outcome.check("daemon-exit", code == 0, f"daemon exited with {code}")

        low_p50, _, low_p99 = _open_loop_figures(outcome, phases["low"], LOW_RATE)
        high_p50, scaled_high_p50, high_p99 = _open_loop_figures(
            outcome, phases["high"], HIGH_RATE
        )
        pipelined = phases["pipelined"]
        outcome.ops(sum(p.sent for p in pipelined), sum(p.failed for p in pipelined))
        rates = [p.completion_rate() for p in pipelined]
        capacity = median(rates)
        scaled_capacity = median(p.completion_rate() / p.scale for p in pipelined)
        outcome.notes.append(
            f"pipelined: {len(pipelined)} rounds of {PIPELINED_REQUESTS} requests, "
            f"window {WINDOW}: " + ", ".join(f"{r:.0f}/s" for r in rates)
            + f"; median {capacity:.1f}/s wall, {scaled_capacity:.1f}/s speed-scaled"
        )
        gen_late_ms = quantile(
            [x for name in ("low", "high") for p in phases[name] for x in p.late], 0.99
        ) * 1e3
        counters = stats.get("counters", {})
        shed = int(counters.get("serve.shed", 0))
        timeouts = int(counters.get("serve.timeouts", 0))
        outcome.check("shed", shed == 0, f"{shed} requests shed")
        outcome.check("timeouts", timeouts == 0, f"{timeouts} requests timed out")
        outcome.check(
            "watermark", stats.get("watermark") == len(requests),
            f"watermark {stats.get('watermark')} after {len(requests)} requests",
        )
        expected = batch_totals(config, requests)
        outcome.check(
            "totals", stats.get("totals") == expected,
            f"daemon totals {stats.get('totals')} != batch replay {expected}",
        )

        outcome.put("setup_s", setup.median, "s")
        outcome.put("peak_rss_mb", rss, "MiB")
        outcome.put("throughput_rps", scaled_capacity, "req/s")
        outcome.put("latency_ms", scaled_high_p50, "ms")
        outcome.notes.append(f"set-up: {setup.describe()}")
        slo = stats.get("slo", {}).get("latency_ms", {})
        for name, value, unit in (
            ("serve.rtt_low_p50_ms", low_p50, "ms"),
            ("serve.rtt_low_p99_ms", low_p99, "ms"),
            ("serve.rtt_high_p50_ms", high_p50, "ms"),
            ("serve.rtt_high_p99_ms", high_p99, "ms"),
            ("serve.capacity_rps", capacity, "req/s"),
            ("serve.decide_p50_ms", slo.get("p50") or 0.0, "ms"),
            ("serve.decide_p99_ms", slo.get("p99") or 0.0, "ms"),
            ("serve.shed", shed, "count"),
            ("bench.gen_late_p99_ms", gen_late_ms, "ms"),
        ):
            outcome.put(name, value, unit)
            outcome.notes.append(f"{name} = {value!r} {unit}")

        if tracer is not None:
            _serve_layers(outcome, tracer, lines[: sizing.serve_inprocess_requests],
                          config, low_p50, sampler)
    finally:
        if tracer is not None:
            tracer.uninstall()
        for d in daemons:
            if d.proc.poll() is None:
                d.stop()
    return outcome


def _serve_layers(outcome, tracer, lines, config, rtt_low_p50_ms, sampler) -> None:
    """In-process parse/apply/encode split beside the client round trip."""
    untraced, _ = repeat_for(lambda: in_process_pass(lines, config), 1.0, sampler)
    root, service, traced_run = traced(
        tracer, sampler, lambda: in_process_pass(lines, config, tracer)
    )
    outcome.check(
        "in-process-totals", service.totals == in_process_pass(lines, config).totals,
        "tracing changed the in-process decisions",
    )
    attribution(outcome, tracer, root, traced_run, untraced, check=False)
    inside = tracer.subtree(root)
    m = len(lines)

    def per_request_us(group):
        return sum(tracer.duration(i) for i in inside if tracer.groups[i] == group) / m * 1e6

    parse_us = per_request_us("serve.parse")
    apply_us = per_request_us("serve.apply")
    encode_us = per_request_us("serve.encode")
    in_process_us = untraced.median_wall / m * 1e6
    outcome.put("serve.parse_us", parse_us, "us")
    outcome.put("serve.apply_us", apply_us, "us")
    outcome.put("serve.encode_us", encode_us, "us")
    outcome.put("serve.inprocess_us", in_process_us, "us")
    outcome.put("serve.outside_share", 1.0 - in_process_us / 1e3 / rtt_low_p50_ms, "ratio")
    outcome.notes.append(
        f"in-process {in_process_us:.2f} us/request (untraced; traced split: parse "
        f"{parse_us:.2f} + apply {apply_us:.2f} + encode {encode_us:.2f} us) vs "
        f"client rtt_low_p50 {rtt_low_p50_ms * 1e3:.2f} us"
    )
    tracer.write(str(scratch_dir() / "spans.jsonl"))
