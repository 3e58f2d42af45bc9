"""In-process sharded-router tests: N worker daemons + the router in
one event loop, real unix sockets, no subprocesses.

Covers the §14 contract: video-hash routing coherence, exact SLO merge
across shards, per-worker stats breakdown, fan-out ops, the misrouted
defense inside workers, and structured shedding while a shard is down.
"""

import asyncio
import json

from repro.cdn.sharding import shard_of
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.router import ShardRouter

K = 1024
BUCKETS = 64


def run(coro):
    """Drive one test coroutine with a hard safety timeout."""
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


def videos_for_shard(shard, workers, count=5):
    """The first ``count`` video ids hashing to ``shard``."""
    out = []
    video = 0
    while len(out) < count:
        if shard_of(video, workers, BUCKETS) == shard:
            out.append(video)
        video += 1
    return out


class FleetHarness:
    """N sharded daemons + one router, all in this test's event loop."""

    def __init__(self, tmp_path, workers=2, **kw):
        self.workers = workers
        self.worker_paths = [
            str(tmp_path / f"worker-{shard}.sock") for shard in range(workers)
        ]
        self.daemons = []
        for shard in range(workers):
            kw_shard = dict(kw)
            snapshot_dir = kw_shard.pop("snapshot_root", None)
            if snapshot_dir is not None:
                kw_shard["snapshot_dir"] = str(snapshot_dir / f"shard-{shard}")
            kw_shard.setdefault("algorithm", "PullLRU")
            kw_shard.setdefault("disk_chunks", 64)
            kw_shard.setdefault("chunk_bytes", K)
            kw_shard.setdefault("publish_interval", 0.0)
            self.daemons.append(
                ServeDaemon(
                    ServeConfig(
                        shard_id=shard,
                        num_shards=workers,
                        num_buckets=BUCKETS,
                        **kw_shard,
                    )
                )
            )
        self.router = ShardRouter(
            self.worker_paths,
            num_buckets=BUCKETS,
            op_retry=2.0,
            data_retry=0.2,
        )
        self.router_path = str(tmp_path / "router.sock")

    async def __aenter__(self):
        for daemon, path in zip(self.daemons, self.worker_paths):
            await daemon.start(unix_path=path)
        await self.router.start(unix_path=self.router_path)
        return self

    async def __aexit__(self, *exc):
        await self.router.shutdown()
        for daemon in self.daemons:
            daemon.request_stop()
            await daemon.shutdown(drain_timeout=10)

    async def connect(self):
        return await asyncio.open_unix_connection(self.router_path)

    @staticmethod
    async def send_line(writer, text):
        writer.write(text.encode() + b"\n")
        await writer.drain()

    @staticmethod
    async def read_json(reader):
        line = await reader.readline()
        assert line, "router closed the connection"
        return json.loads(line)

    async def rpc(self, reader, writer, obj):
        await self.send_line(writer, json.dumps(obj))
        return await self.read_json(reader)

    async def request(self, reader, writer, seq, t, video, b0=0, b1=K - 1):
        return await self.rpc(
            reader, writer,
            {"seq": seq, "t": t, "video": video, "b0": b0, "b1": b1},
        )


class TestRoutingCoherence:
    def test_requests_land_on_their_video_shard(self, tmp_path):
        async def scenario():
            async with FleetHarness(tmp_path, workers=2) as h:
                reader, writer = await h.connect()
                next_seq = [1, 1]
                sent_per_shard = [0, 0]
                for video in range(24):
                    shard = shard_of(video, 2, BUCKETS)
                    response = await h.request(
                        reader, writer, next_seq[shard], float(video), video
                    )
                    assert response["ok"], response
                    assert response["seq"] == next_seq[shard]
                    next_seq[shard] += 1
                    sent_per_shard[shard] += 1
                # each worker's ledger saw exactly its own subsequence
                for shard, daemon in enumerate(h.daemons):
                    assert daemon.service.watermark == sent_per_shard[shard]
                    assert (
                        daemon.service.totals["requests"]
                        == sent_per_shard[shard]
                    )
                writer.close()

        run(scenario())

    def test_worker_rejects_misrouted_video(self, tmp_path):
        async def scenario():
            async with FleetHarness(tmp_path, workers=2) as h:
                # talk straight to worker 0, violating the routing
                reader, writer = await asyncio.open_unix_connection(
                    h.worker_paths[0]
                )
                wrong = videos_for_shard(1, 2)[0]
                response = await h.rpc(
                    reader, writer,
                    {"seq": 1, "t": 1.0, "video": wrong, "b0": 0, "b1": K - 1},
                )
                assert response["ok"] is False
                assert response["error"] == "misrouted"
                # the refusal consumed nothing: shard 0's own stream is intact
                mine = videos_for_shard(0, 2)[0]
                response = await h.rpc(
                    reader, writer,
                    {"seq": 1, "t": 2.0, "video": mine, "b0": 0, "b1": K - 1},
                )
                assert response["ok"], response
                assert h.daemons[0].service.watermark == 1
                writer.close()

        run(scenario())


class TestFanoutOps:
    def test_hello_reports_protocol_and_per_shard_watermarks(self, tmp_path):
        async def scenario():
            async with FleetHarness(tmp_path, workers=2) as h:
                reader, writer = await h.connect()
                video = videos_for_shard(1, 2)[0]
                await h.request(reader, writer, 1, 1.0, video)
                hello = await h.rpc(reader, writer, {"op": "hello"})
                assert hello["ok"] and hello["kind"] == "hello"
                assert hello["protocol"] == PROTOCOL_VERSION
                assert hello["workers"] == 2
                assert hello["num_buckets"] == BUCKETS
                assert hello["watermark"] == 1
                by_shard = {s["shard"]: s["watermark"] for s in hello["shards"]}
                assert by_shard == {0: 0, 1: 1}
                writer.close()

        run(scenario())

    def test_stats_fold_merges_slo_exactly(self, tmp_path):
        async def scenario():
            async with FleetHarness(tmp_path, workers=2) as h:
                reader, writer = await h.connect()
                seqs = [1, 1]
                for video in range(30):
                    shard = shard_of(video, 2, BUCKETS)
                    await h.request(
                        reader, writer, seqs[shard], float(video), video
                    )
                    seqs[shard] += 1
                stats = await h.rpc(reader, writer, {"op": "stats"})
                assert stats["ok"] and stats["kind"] == "stats"
                assert stats["workers"] == 2
                assert stats["watermark"] == 30
                assert stats["totals"]["requests"] == 30
                # exact sketch merge: merged decision count is the sum,
                # and the quantiles come from the merged histogram
                assert stats["slo"]["decisions"] == 30
                assert stats["slo"]["latency_ms"]["p99"] is not None
                per_shard = sum(
                    d.slo.summary()["decisions"] for d in h.daemons
                )
                assert per_shard == 30
                qps_sum = sum(d.slo.sustained_qps() for d in h.daemons)
                assert abs(stats["slo"]["sustained_qps"] - qps_sum) < 1e-6
                # per-worker breakdown rides alongside the merged view
                rows = stats["shards"]
                assert [row["shard"] for row in rows] == [0, 1]
                for row in rows:
                    assert "queue_depth" in row
                    assert "watermark" in row
                    assert "shed" in row
                assert sum(row["watermark"] for row in rows) == 30
                assert sum(row["decisions"] for row in rows) == 30
                assert "router" in stats
                writer.close()

        run(scenario())

    def test_snapshot_fans_out_per_shard_paths(self, tmp_path):
        async def scenario():
            async with FleetHarness(
                tmp_path, workers=2, snapshot_root=tmp_path / "snaps"
            ) as h:
                reader, writer = await h.connect()
                seqs = [1, 1]
                for video in range(8):
                    shard = shard_of(video, 2, BUCKETS)
                    await h.request(
                        reader, writer, seqs[shard], float(video), video
                    )
                    seqs[shard] += 1
                response = await h.rpc(reader, writer, {"op": "snapshot"})
                assert response["ok"], response
                assert response["watermark"] == 8
                paths = [row["path"] for row in response["shards"]]
                assert len(paths) == 2 and all(paths)
                assert f"shard-0" in paths[0] and f"shard-1" in paths[1]
                writer.close()

        run(scenario())

    def test_shutdown_scatters_to_every_worker(self, tmp_path):
        async def scenario():
            async with FleetHarness(tmp_path, workers=2) as h:
                reader, writer = await h.connect()
                response = await h.rpc(reader, writer, {"op": "shutdown"})
                assert response["ok"] and response["kind"] == "stopping"
                assert response["workers"] == 2
                for daemon in h.daemons:
                    assert daemon._stop_requested.is_set()
                assert h.router._stop_requested.is_set()
                writer.close()

        run(scenario())

    def test_crash_worker_is_refused_at_the_router(self, tmp_path):
        async def scenario():
            async with FleetHarness(tmp_path, workers=2) as h:
                reader, writer = await h.connect()
                response = await h.rpc(reader, writer, {"op": "crash-worker"})
                assert response["ok"] is False
                assert response["error"] == "unsupported"
                writer.close()

        run(scenario())


class TestFailureHandling:
    def test_dead_shard_sheds_structurally_siblings_serve(self, tmp_path):
        async def scenario():
            async with FleetHarness(tmp_path, workers=2) as h:
                # murder worker 1's endpoint (in-process equivalent of
                # a worker crash: connect refused until a restart)
                h.daemons[1].request_stop()
                await h.daemons[1].shutdown(drain_timeout=5)
                reader, writer = await h.connect()
                dead = videos_for_shard(1, 2)[0]
                response = await h.request(reader, writer, 1, 1.0, dead)
                assert response["ok"] is False
                assert response["error"] == "overloaded"
                assert response["seq"] == 1
                assert response["retry_after"] > 0
                # the sibling shard is untouched
                alive = videos_for_shard(0, 2)[0]
                response = await h.request(reader, writer, 1, 2.0, alive)
                assert response["ok"], response
                writer.close()

        run(scenario())

    def test_malformed_line_answered_at_the_router(self, tmp_path):
        async def scenario():
            async with FleetHarness(tmp_path, workers=2) as h:
                reader, writer = await h.connect()
                await h.send_line(writer, '{"t": "nope", "video":')
                response = await h.read_json(reader)
                assert response["ok"] is False
                assert response["error"] == "malformed"
                # connection survives; counters recorded at the router
                hello = await h.rpc(reader, writer, {"op": "hello"})
                assert hello["ok"]
                assert h.router.counters.get("router.malformed") == 1
                writer.close()

        run(scenario())

    def test_line_over_64k_answered_at_the_router(self, tmp_path):
        async def scenario():
            async with FleetHarness(tmp_path, workers=2) as h:
                reader, writer = await h.connect()
                big = json.dumps({"pad": "x" * (70 * 1024)})
                writer.write(big.encode() + b"\n" + b'{"op": "hello"}\n')
                await writer.drain()
                first = await h.read_json(reader)
                assert first["ok"] is False
                assert first["error"] == "line-too-long"
                hello = await h.read_json(reader)
                assert hello["ok"] and hello["kind"] == "hello"
                assert h.router.counters.get("router.malformed") == 1
                writer.close()

        run(scenario())


class TestSubscribe:
    def test_subscribe_rebroadcasts_shard_tagged_snapshots(self, tmp_path):
        async def scenario():
            async with FleetHarness(
                tmp_path, workers=2, publish_interval=0.05
            ) as h:
                reader, writer = await h.connect()
                ack = await h.rpc(reader, writer, {"op": "subscribe"})
                assert ack["ok"] and ack["kind"] == "subscribed"
                assert ack["workers"] == 2
                record = await asyncio.wait_for(
                    h.read_json(reader), timeout=10
                )
                assert record["kind"] == "snapshot"
                assert record["lane"] == "serve"
                assert record["shard"] in (0, 1)
                writer.close()

        run(scenario())
