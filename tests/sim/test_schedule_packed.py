"""Scheduler heuristics and shared-memory trace transport.

Covers the auto-mode work-size heuristic (small sweeps collapse to
serial instead of paying pool startup) and the shared-memory lifecycle:
the parent owns the segment, workers attach zero-copy, and the segment
is unlinked even when groups crash, retry, or fall back in-process.
"""

import os

import pytest

import repro.sim.schedule as schedule_module
from repro.sim.runner import RunConfig
from repro.sim.schedule import (
    DEFAULT_PARALLEL_MIN_WORK,
    PARALLEL_MIN_WORK_ENV,
    SweepScheduler,
    _resolve_min_work,
)
from repro.trace.columnar import active_shared_traces

_ORIG_EXECUTE_GROUP = schedule_module._execute_group

_CRASH_MARKER_ENV = "REPRO_TEST_SHM_CRASH_MARKER"


def _configs():
    return [
        RunConfig("xLRU", 64, 1.0, label="x"),
        RunConfig("Cafe", 64, 1.0, label="c"),
    ]


class TestMinWorkResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(PARALLEL_MIN_WORK_ENV, raising=False)
        assert _resolve_min_work(None) == DEFAULT_PARALLEL_MIN_WORK

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_MIN_WORK_ENV, "99")
        assert _resolve_min_work(5) == 5

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_MIN_WORK_ENV, "1234")
        assert _resolve_min_work(None) == 1234
        assert SweepScheduler().parallel_min_work == 1234

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_MIN_WORK_ENV, "plenty")
        with pytest.raises(ValueError, match=PARALLEL_MIN_WORK_ENV):
            _resolve_min_work(None)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="parallel_min_work"):
            _resolve_min_work(-1)


class TestAutoModeHeuristic:
    def test_small_sweep_collapses_to_serial(self, small_trace, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        scheduler = SweepScheduler(workers=2, mode="auto")
        results = scheduler.run(_configs(), small_trace[:300])
        assert len(results) == 2
        report = scheduler.last_report
        assert report.mode == "serial" and report.workers == 1
        assert any(e.kind == "parallel-collapsed" for e in report.events)
        # Collapsed sweeps are planned as ONE broadcast group (a single
        # trace pass), not a parallel split executed serially.
        assert report.extra["groups"] == 1

    def test_single_cpu_host_collapses(self, small_trace, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        scheduler = SweepScheduler(
            workers=2, mode="auto", parallel_min_work=0
        )
        scheduler.run(_configs(), small_trace[:300])
        assert scheduler.last_report.mode == "serial"
        assert any(
            e.kind == "parallel-collapsed"
            for e in scheduler.last_report.events
        )

    def test_large_enough_sweep_goes_parallel(self, small_trace, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        scheduler = SweepScheduler(
            workers=2, mode="auto", parallel_min_work=100
        )
        results = scheduler.run(_configs(), small_trace[:300])
        assert len(results) == 2
        report = scheduler.last_report
        assert report.mode == "parallel"
        assert not any(e.kind == "parallel-collapsed" for e in report.events)

    def test_explicit_parallel_bypasses_heuristic(
        self, small_trace, monkeypatch
    ):
        # Explicit mode="parallel" must use pools even for a sweep far
        # below the threshold on a single-CPU host.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        scheduler = SweepScheduler(workers=2, mode="parallel")
        results = scheduler.run(_configs(), small_trace[:300])
        assert len(results) == 2
        report = scheduler.last_report
        assert report.mode == "parallel"
        assert not any(e.kind == "parallel-collapsed" for e in report.events)

    def test_heuristic_run_matches_serial(self, small_trace, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        trace = small_trace[:300]
        collapsed = SweepScheduler(workers=2, mode="auto").run(_configs(), trace)
        serial = SweepScheduler(mode="serial").run(_configs(), trace)
        for key in serial:
            assert serial[key].totals == collapsed[key].totals


def _crash_once_execute_group(kind, configs, requests, interval, progress, *extra):
    """Die like a SIGKILLed worker the first time group ``x`` runs."""
    marker = os.environ[_CRASH_MARKER_ENV]
    if any(c.key == "x" for c in configs) and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return _ORIG_EXECUTE_GROUP(kind, configs, requests, interval, progress, *extra)


def _always_raise_execute_group(kind, configs, requests, interval, progress, *extra):
    """Fail every pool attempt; succeed only in the in-process fallback."""
    if os.getpid() != int(os.environ["REPRO_TEST_SHM_MAIN_PID"]):
        raise RuntimeError("synthetic group failure")
    return _ORIG_EXECUTE_GROUP(kind, configs, requests, interval, progress, *extra)


class TestSharedMemoryLifecycle:
    def test_parallel_run_uses_shared_trace_and_cleans_up(self, small_trace):
        trace = small_trace[:400]
        scheduler = SweepScheduler(workers=2, mode="parallel", collapse=False)
        results = scheduler.run(_configs(), trace)
        serial = SweepScheduler(mode="serial", collapse=False).run(
            _configs(), trace
        )
        for key in serial:
            assert serial[key].totals == results[key].totals
        kinds = {e.kind for e in scheduler.last_report.events}
        assert "shared-trace" in kinds
        assert active_shared_traces() == frozenset()

    def test_offline_cells_survive_shared_transport(self, small_trace):
        # Offline caches pickle their prepared trace back inside the
        # result; the worker-side mapping must stay open long enough.
        trace = small_trace[:400]
        configs = _configs() + [RunConfig("Psychic", 64, 1.0, label="p")]
        par = SweepScheduler(workers=2, mode="parallel", collapse=False).run(
            configs, trace
        )
        serial = SweepScheduler(mode="serial", collapse=False).run(
            configs, trace
        )
        for key in serial:
            assert serial[key].totals == par[key].totals
        assert active_shared_traces() == frozenset()

    def test_segment_unlinked_after_worker_crash_and_retry(
        self, small_trace, monkeypatch, tmp_path
    ):
        trace = small_trace[:300]
        monkeypatch.setenv(_CRASH_MARKER_ENV, str(tmp_path / "crashed"))
        monkeypatch.setattr(
            schedule_module, "_execute_group", _crash_once_execute_group
        )
        scheduler = SweepScheduler(
            workers=2, mode="parallel", collapse=False, backoff_seconds=0.01
        )
        results = scheduler.run(_configs(), trace)
        assert set(results) == {"x", "c"}
        assert scheduler.last_report.extra["group_retries"] >= 1
        assert active_shared_traces() == frozenset()

    def test_segment_unlinked_after_fallback(self, small_trace, monkeypatch):
        trace = small_trace[:300]
        monkeypatch.setenv("REPRO_TEST_SHM_MAIN_PID", str(os.getpid()))
        monkeypatch.setattr(
            schedule_module, "_execute_group", _always_raise_execute_group
        )
        scheduler = SweepScheduler(
            workers=2, mode="parallel", collapse=False,
            max_retries=0, backoff_seconds=0.01,
        )
        with pytest.warns(RuntimeWarning, match="falling back"):
            results = scheduler.run(_configs(), trace)
        assert set(results) == {"x", "c"}
        # The in-process fallback attached the still-linked segment; the
        # run() finally-block must still have unlinked it afterwards.
        assert active_shared_traces() == frozenset()

    def test_segment_unlinked_when_sweep_dies(self, small_trace, monkeypatch):
        trace = small_trace[:300]

        class KilledPool:
            def __init__(self, *a, **k):
                raise KeyboardInterrupt  # the sweep itself is killed

        monkeypatch.setattr(schedule_module, "ProcessPoolExecutor", KilledPool)
        scheduler = SweepScheduler(workers=2, mode="parallel", collapse=False)
        with pytest.raises(KeyboardInterrupt):
            scheduler.run(_configs(), trace)
        assert active_shared_traces() == frozenset()

    def test_pack_stage_reported(self, small_trace):
        scheduler = SweepScheduler(workers=2, mode="parallel", collapse=False)
        scheduler.run(_configs(), small_trace[:300])
        stages = {s.name for s in scheduler.last_report.stages}
        assert "pack" in stages and "sweep" in stages


# -- signal-driven exit -------------------------------------------------------

_SIGNAL_CHILD = '''
"""Child for the SIGTERM leak test: a parallel sweep that never finishes."""
import os
import sys
import time

import repro.sim.schedule as schedule_module
from repro.sim.runner import RunConfig
from repro.sim.schedule import SweepScheduler
from repro.trace.requests import Request


def _stall_execute_group(*args):
    # Park the (forked) worker until it is orphaned by the parent\'s
    # death, then exit quietly -- keeps the pool "busy" for the whole
    # test without leaving 60s stragglers behind.
    deadline = time.monotonic() + 60.0
    while os.getppid() != 1 and time.monotonic() < deadline:
        time.sleep(0.05)
    os._exit(0)


schedule_module._execute_group = _stall_execute_group

journal = sys.argv[1]
requests = [Request(float(i), i % 7, 0, 2) for i in range(400)]
configs = [
    RunConfig("xLRU", 64, 1.0, label="x"),
    RunConfig("Cafe", 64, 1.0, label="c"),
]
sched = SweepScheduler(
    workers=2, mode="parallel", collapse=False, checkpoint=journal
)
sched.run(configs, requests)
'''


def _proc_stat(pid):
    """``(state, ppid, starttime)`` of ``pid`` from ``/proc``, or None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    fields = raw.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1]), int(fields[19])


def _children_of(pid):
    """``{child pid: starttime}`` of the live children of ``pid``."""
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            stat = _proc_stat(int(name))
            if stat is not None and stat[1] == pid and stat[0] != "Z":
                out[int(name)] = stat[2]
    return out


def _still_running(pids):
    """The recorded ``{pid: starttime}`` processes that still run (a
    zombie or a reused pid counts as gone)."""
    alive = []
    for pid, started in pids.items():
        stat = _proc_stat(pid)
        if stat is not None and stat[0] != "Z" and stat[2] == started:
            alive.append(pid)
    return alive


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a POSIX /dev/shm"
)
def test_sigterm_releases_segments_and_exits_cleanly(tmp_path):
    """SIGTERM mid-sweep must not leak /dev/shm segments.

    The default SIGTERM disposition kills the process without running
    ``finally`` blocks, so the parent-owned shared trace segment would
    outlive the sweep.  The installed handler unlinks it, syncs the
    checkpoint journal, stops the pool workers, and exits
    ``128 + SIGTERM``.  No child of the sweep (pool worker or
    resource tracker) may outlive it.
    """
    import signal as signal_module
    import subprocess
    import sys as sys_module
    import time as time_module

    import repro

    script = tmp_path / "sweep_child.py"
    script.write_text(_SIGNAL_CHILD)
    journal = tmp_path / "sweep.ckpt"
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")

    before = set(os.listdir("/dev/shm"))
    proc = subprocess.Popen(
        [sys_module.executable, str(script), str(journal)], env=env
    )
    try:
        observed = set()
        deadline = time_module.monotonic() + 30.0
        while time_module.monotonic() < deadline:
            observed = {
                name
                for name in set(os.listdir("/dev/shm")) - before
                if name.startswith("psm_")
            }
            if observed:
                break
            assert proc.poll() is None, "sweep child died before sharing"
            time_module.sleep(0.02)
        assert observed, "sweep child never created a shared trace segment"
        # both pool workers (plus the resource tracker) must be up at
        # the signal, or the orphan check below proves nothing
        children = {}
        while time_module.monotonic() < deadline:
            children = _children_of(proc.pid)
            if len(children) >= 3:
                break
            assert proc.poll() is None, "sweep child died before its pool"
            time_module.sleep(0.02)
        assert len(children) >= 2, f"pool never started: {children}"
        proc.send_signal(signal_module.SIGTERM)
        code = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    assert code == 128 + signal_module.SIGTERM
    leftover = observed & set(os.listdir("/dev/shm"))
    assert leftover == set(), f"leaked shared segments: {sorted(leftover)}"
    orphans = _still_running(children)
    settle = time_module.monotonic() + 5.0
    while orphans and time_module.monotonic() < settle:
        time_module.sleep(0.05)
        orphans = _still_running(children)
    described = {pid: _proc_stat(pid) for pid in orphans}
    for pid in orphans:  # do not leave them behind for later tests
        try:
            os.kill(pid, signal_module.SIGKILL)
        except OSError:
            pass
    assert orphans == [], (
        f"sweep children outlived it (pid: state, ppid, start): {described} "
        f"of {children}"
    )


def test_checkpoint_sync_tolerates_missing_and_flushes(tmp_path):
    from repro.sim.schedule import SweepCheckpoint

    ckpt = SweepCheckpoint(tmp_path / "none.ckpt")
    ckpt.sync()  # missing journal: no-op, no error
    ckpt = SweepCheckpoint(tmp_path / "sweep.ckpt")
    ckpt.append("fp", "gid", {})
    ckpt.sync()
    assert ckpt.load("fp") == {"gid": {}}
