"""The packed fast lane: golden equivalence and fallback rules.

The columnar lane promises *byte-identical* metrics to the object path
for every registered algorithm — the batched ``handle_span`` hot paths
are the same code both lanes call, so equivalence here is equivalence
by construction, and these tests are the tripwire for anyone breaking
that property later.
"""

import pytest

import repro.sim.engine as engine_module
from repro.sim.engine import MultiReplay, replay
from repro.sim.metrics import MetricsCollector
from repro.sim.runner import CACHE_FACTORIES, build_cache
from repro.trace.columnar import _np, pack_trace

ALL = sorted(CACHE_FACTORIES)

DISK = 64


@pytest.fixture(scope="module")
def trace(small_trace):
    return small_trace[:800]


@pytest.fixture(scope="module")
def packed(trace):
    cache = build_cache(ALL[0], DISK)
    return pack_trace(trace, chunk_bytes=cache.chunk_bytes)


@pytest.fixture(scope="module")
def object_baseline(trace):
    """Object-path replay of every algorithm (auto-pack disabled)."""
    out = {}
    original = engine_module.AUTO_PACK_MIN_REQUESTS
    engine_module.AUTO_PACK_MIN_REQUESTS = 10**9
    try:
        for algo in ALL:
            result = replay(build_cache(algo, DISK, alpha_f2r=2.0), trace)
            assert result.report.extra["trace_format"] == "objects"
            out[algo] = result
    finally:
        engine_module.AUTO_PACK_MIN_REQUESTS = original
    return out


class TestPackedEquivalence:
    @pytest.mark.parametrize("kernels", ["on", "off"])
    @pytest.mark.parametrize("algo", ALL)
    def test_explicit_packed_trace_matches_objects(
        self, algo, kernels, packed, object_baseline, monkeypatch
    ):
        # both gears of the packed lane — the vectorized decision
        # kernels and the scalar block walk — must be byte-identical
        # to the object path, regardless of the CI job's env.
        monkeypatch.setenv(
            engine_module.NO_KERNELS_ENV, "1" if kernels == "off" else "0"
        )
        result = replay(build_cache(algo, DISK, alpha_f2r=2.0), packed)
        baseline = object_baseline[algo]
        assert result.totals == baseline.totals, algo
        assert result.steady == baseline.steady, algo
        assert [
            (s.t_start, s.summary) for s in result.metrics.series()
        ] == [(s.t_start, s.summary) for s in baseline.metrics.series()]

    def test_auto_pack_kicks_in_above_threshold(self, trace, monkeypatch):
        monkeypatch.setattr(engine_module, "AUTO_PACK_MIN_REQUESTS", 100)
        result = replay(build_cache("xLRU", DISK), trace)
        assert result.report.extra["trace_format"] == "packed"
        stages = {s.name for s in result.report.stages}
        assert "pack" in stages and "replay" in stages

    def test_short_traces_stay_on_object_path(self, trace, monkeypatch):
        monkeypatch.setattr(
            engine_module, "AUTO_PACK_MIN_REQUESTS", len(trace) + 1
        )
        result = replay(build_cache("xLRU", DISK), trace)
        assert result.report.extra["trace_format"] == "objects"

    def test_multireplay_all_algorithms_one_packed_pass(
        self, packed, object_baseline
    ):
        caches = {a: build_cache(a, DISK, alpha_f2r=2.0) for a in ALL}
        results = MultiReplay(caches).run(packed)
        for algo in ALL:
            assert results[algo].report.extra["trace_format"] == "packed"
            assert results[algo].totals == object_baseline[algo].totals, algo
            assert results[algo].steady == object_baseline[algo].steady, algo

    def test_mismatched_chunk_size_is_rechunked_exactly(self, trace):
        cache_k = build_cache("xLRU", DISK)
        small_k = cache_k.chunk_bytes // 2
        packed_small = pack_trace(trace, chunk_bytes=small_k)
        via_packed = replay(build_cache("xLRU", DISK), packed_small)
        via_objects = replay(build_cache("xLRU", DISK), trace)
        assert via_packed.report.extra["trace_format"] == "packed"
        assert via_packed.totals == via_objects.totals


class TestPackedFallbacks:
    def test_on_request_hook_forces_object_path(self, packed):
        seen = []
        result = replay(
            build_cache("xLRU", DISK),
            packed,
            on_request=lambda i, r: seen.append(i),
        )
        assert result.report.extra["trace_format"] == "objects"
        assert len(seen) == len(packed)

    def test_record_overriding_collector_forces_object_path(self, packed):
        class CountingCollector(MetricsCollector):
            calls = 0

            def record_raw(self, t, num_bytes, num_chunks, response):
                type(self).calls += 1
                super().record_raw(t, num_bytes, num_chunks, response)

        cache = build_cache("xLRU", DISK)
        collector = CountingCollector(cache.cost_model, chunk_bytes=cache.chunk_bytes)
        result = replay(cache, packed, metrics=collector)
        assert result.report.extra["trace_format"] == "objects"
        assert CountingCollector.calls == len(packed)

    def test_generator_trace_streams_object_path(self, trace, monkeypatch):
        monkeypatch.setattr(engine_module, "AUTO_PACK_MIN_REQUESTS", 100)
        result = replay(build_cache("xLRU", DISK), iter(trace))
        assert result.report.extra["trace_format"] == "objects"
        assert result.num_requests == len(trace)

    def test_duck_typed_cache_without_handle_span(self, packed):
        """A non-VideoCache duck type must fall back, not crash."""

        class MinimalCache:
            chunk_bytes = 2 * 1024 * 1024
            offline = False

            def __init__(self):
                from repro.core.costs import CostModel

                self.cost_model = CostModel(2.0)

            def handle(self, request):
                from repro.core.base import SERVE_HIT

                return SERVE_HIT

        results = MultiReplay({"duck": MinimalCache()}).run(packed)
        assert results["duck"].report.extra["trace_format"] == "objects"
        assert results["duck"].num_requests == len(packed)


class TestRecordPacked:
    def test_matches_record_raw(self, trace):
        from repro.core.costs import CostModel

        cache_a = build_cache("Cafe", DISK)
        cache_b = build_cache("Cafe", DISK)
        k = cache_a.chunk_bytes
        col_a = MetricsCollector(CostModel(2.0), chunk_bytes=k)
        col_b = MetricsCollector(CostModel(2.0), chunk_bytes=k)

        ts, nbs, ncs, responses = [], [], [], []
        for r in trace:
            response = cache_a.handle(r)
            col_a.record_raw(r.t, r.num_bytes, r.num_chunks(k), response)
            ts.append(r.t)
            nbs.append(r.num_bytes)
            ncs.append(r.num_chunks(k))
            responses.append(cache_b.handle(r))
        col_b.record_packed(ts, nbs, ncs, responses)

        assert col_a.totals() == col_b.totals()
        assert [
            (b.t_start, b.summary) for b in col_a.series()
        ] == [(b.t_start, b.summary) for b in col_b.series()]

    def test_empty_batch_is_noop(self):
        from repro.core.costs import CostModel

        collector = MetricsCollector(CostModel(2.0))
        collector.record_packed([], [], [], [])
        assert collector.totals().num_requests == 0


ONLINE = [algo for algo in ALL if not build_cache(algo, DISK).offline]


class TestScreenYield:
    """Every RunReport says how many requests each lane's decision
    kernel screened and how many it walked request by request."""

    @staticmethod
    def _yields(packed, telemetry=None):
        from repro.obs import Telemetry, TelemetryOptions

        caches = {algo: build_cache(algo, DISK, alpha_f2r=2.0) for algo in ONLINE}
        tel = Telemetry(TelemetryOptions()) if telemetry else None
        results = MultiReplay(caches, telemetry=tel).run(packed)
        report = next(iter(results.values())).report
        return report.extra["screen"], report.num_requests

    def test_screened_plus_residue_is_every_request(self, packed, monkeypatch):
        monkeypatch.setattr(engine_module, "PACKED_BLOCK", 64)
        monkeypatch.setenv(engine_module.NO_KERNELS_ENV, "0")
        screen, n = self._yields(packed)
        assert set(screen) == set(ONLINE)
        for algo, lane in screen.items():
            assert lane["screened"] + lane["residue"] == n == len(packed), algo
            assert lane["screened"] >= 0
        # no numpy columns: every lane walks its residue
        assert (screen["xLRU"]["screened"] > 0) == (_np is not None)
        assert screen["Cafe"]["screened"] == 0  # no kernel: all residue

    def test_probed_and_plain_yields_equal(self, packed, monkeypatch):
        monkeypatch.setattr(engine_module, "PACKED_BLOCK", 64)
        monkeypatch.setenv(engine_module.NO_KERNELS_ENV, "0")
        assert self._yields(packed, telemetry=True) == self._yields(packed)

    def test_kernels_off_and_object_lane_report_all_residue(
        self, trace, packed, monkeypatch
    ):
        monkeypatch.setenv(engine_module.NO_KERNELS_ENV, "1")
        screen, n = self._yields(packed)
        assert all(lane == {"screened": 0, "residue": n} for lane in screen.values())
        monkeypatch.setattr(engine_module, "AUTO_PACK_MIN_REQUESTS", 10**9)
        result = replay(build_cache("xLRU", DISK), trace)
        assert result.report.extra["trace_format"] == "objects"
        assert result.report.extra["screen"] == {
            "xLRU": {"screened": 0, "residue": len(trace)}
        }
