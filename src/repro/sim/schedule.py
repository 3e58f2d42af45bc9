"""Sweep scheduling: partition matrix cells, execute groups, in parallel.

The paper's experiments (Figures 4–7) are matrices — algorithm x
``alpha_F2R`` x disk size — replayed over a month-long trace.  The
:class:`SweepScheduler` turns such a matrix into an execution plan:

* **Broadcast groups** — online caches share a single streaming pass of
  the trace (:class:`~repro.sim.engine.MultiReplay`), so the matrix
  costs O(trace) iteration instead of O(cells x trace).
* **Single tasks** — offline caches (Psychic, Belady) need the
  materialized future via ``prepare`` and run as independent cells.
* **Alpha-collapsing** — caches whose *decisions* never consult the
  cost model (``cost_sensitive = False``: PullLRU, LFU, Belady, LRU-K)
  produce byte-identical traffic counters at every ``alpha``; the
  scheduler simulates one representative cell and derives the others by
  reinterpreting its counters under each cell's cost model.  This is
  exact, not approximate — efficiency is a property computed from the
  counters at read time.
* **Supervised parallel execution** — groups run via
  ``concurrent.futures.ProcessPoolExecutor`` when a worker count > 1 is
  requested (argument or ``REPRO_WORKERS``).  The executor is
  supervised: a crashed or timed-out group is retried on a fresh pool
  with capped exponential backoff, results of groups that *did* finish
  are salvaged (never re-simulated), and only groups that exhaust their
  retries fall back to in-process execution.
* **Checkpointing** — an opt-in append-only journal
  (:class:`SweepCheckpoint`, ``checkpoint=`` or ``REPRO_CHECKPOINT``)
  persists each finished group as it completes, so a sweep killed
  mid-run resumes from its last completed group instead of starting
  over.  Records are bound to a fingerprint of the plan, interval and
  trace, so a stale journal from a different sweep is ignored, not
  misapplied.

Result keys and ordering are deterministic: the returned mapping is
keyed by ``RunConfig.key`` in input order, whatever the execution
strategy.  Duplicate keys are a hard error (they would silently
overwrite results).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import threading
import time
from contextlib import contextmanager
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.costs import CostModel
from repro.obs.events import EventLog
from repro.sim.engine import MultiReplay, SimulationResult, replay
from repro.sim.instrumentation import (
    EngineEvent,
    ProgressCallback,
    RunReport,
    StageTiming,
)
from repro.trace.columnar import PackedTrace, SharedTraceHandle, pack_trace
from repro.trace.requests import Request

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.telemetry import Telemetry, TelemetryOptions

__all__ = [
    "CHECKPOINT_ENV",
    "PARALLEL_MIN_WORK_ENV",
    "WORKERS_ENV",
    "CellGroup",
    "SweepCheckpoint",
    "SweepPlan",
    "SweepScheduler",
    "resolve_workers",
]

#: Environment knob for the default worker count ("repro-experiment
#: --workers N" sets it; 0/1/unset mean in-process execution).
WORKERS_ENV = "REPRO_WORKERS"

#: Environment knob for the default checkpoint path ("repro-experiment
#: --checkpoint PATH" sets it; unset/empty means no checkpointing).
CHECKPOINT_ENV = "REPRO_CHECKPOINT"

#: Environment knob for the auto-mode parallel threshold (see
#: ``SweepScheduler.parallel_min_work``).
PARALLEL_MIN_WORK_ENV = "REPRO_PARALLEL_MIN_WORK"

#: Below this many simulated-cell-requests (cells x trace length), pool
#: startup + result pickling costs more than the parallel speedup is
#: worth; auto mode runs such sweeps serially.  The default corresponds
#: to roughly a second of single-pass replay work.
DEFAULT_PARALLEL_MIN_WORK = 200_000

_MODES = ("auto", "serial", "parallel", "cells")


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit argument, else ``REPRO_WORKERS``."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV}={raw!r} is not an integer"
                ) from None
    if workers is None:
        return 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _resolve_min_work(parallel_min_work: Optional[int]) -> int:
    """Effective auto-parallel threshold: argument, env, else default."""
    if parallel_min_work is None:
        raw = os.environ.get(PARALLEL_MIN_WORK_ENV, "").strip()
        if raw:
            try:
                parallel_min_work = int(raw)
            except ValueError:
                raise ValueError(
                    f"{PARALLEL_MIN_WORK_ENV}={raw!r} is not an integer"
                ) from None
    if parallel_min_work is None:
        return DEFAULT_PARALLEL_MIN_WORK
    if parallel_min_work < 0:
        raise ValueError(
            f"parallel_min_work must be >= 0, got {parallel_min_work}"
        )
    return parallel_min_work


@dataclass(frozen=True)
class CellGroup:
    """One executable unit of a sweep plan."""

    #: "broadcast" — online caches sharing one trace pass;
    #: "single" — an offline cache running its own prepare + replay.
    kind: str
    configs: Tuple["RunConfig", ...]  # noqa: F821 - see repro.sim.runner

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(config.key for config in self.configs)


def _group_id(group: CellGroup) -> str:
    """Stable identity of a group inside one plan (checkpoint key)."""
    return group.kind + ":" + "\x1f".join(group.keys)


class SweepCheckpoint:
    """Append-only journal of completed sweep groups.

    Each record is one pickled ``(version, fingerprint, group_id,
    results)`` tuple, appended (and fsync'd) the moment a group
    finishes — so the file only ever contains *fully completed* groups,
    plus possibly one truncated tail record if the writer was killed
    mid-append.  :meth:`load` tolerates that tail: it keeps every
    intact record before it and discards the rest.

    The fingerprint binds records to one specific sweep — the plan's
    group structure, the metrics interval and a cheap trace signature
    (length plus first/last request) — so resuming with a different
    matrix, worker split or trace silently starts fresh instead of
    grafting foreign results.
    """

    # Version 2: pickled results may carry telemetry lanes and
    # level-tagged EngineEvents; version-1 journals (whose records
    # predate those fields) are ignored rather than half-unpickled.
    VERSION = 2

    def __init__(self, path: "os.PathLike | str") -> None:
        self.path = os.fspath(path)

    @staticmethod
    def fingerprint(
        plan: "SweepPlan", interval: float, requests: Sequence[Request]
    ) -> str:
        """Hex digest identifying (plan structure, interval, trace)."""
        h = hashlib.sha256()
        h.update(
            f"sweep-checkpoint-v{SweepCheckpoint.VERSION}|"
            f"interval={interval!r}".encode()
        )
        for group in plan.groups:
            h.update(("|" + _group_id(group)).encode())
        n = len(requests)
        sig: Tuple = (n,)
        if n:
            first, last = requests[0], requests[-1]
            sig = (
                n,
                first.t, first.video, first.b0, first.b1,
                last.t, last.video, last.b0, last.b1,
            )
        h.update(f"|trace={sig!r}".encode())
        return h.hexdigest()

    def load(
        self, fingerprint: str, log: Optional[EventLog] = None
    ) -> Dict[str, Dict[str, SimulationResult]]:
        """Completed groups matching ``fingerprint``: id -> results.

        Missing file means a fresh run (empty dict).  A corrupt or
        truncated tail — the normal aftermath of a killed sweep — stops
        the scan; every record before it is returned.  ``log`` (an
        :class:`~repro.obs.events.EventLog`) receives structured notes
        about skipped records and corrupt tails.
        """
        try:
            stream = open(self.path, "rb")
        except (FileNotFoundError, IsADirectoryError, PermissionError):
            return {}
        records: Dict[str, Dict[str, SimulationResult]] = {}
        with stream:
            while True:
                try:
                    record = pickle.load(stream)
                except EOFError:
                    break
                except Exception as exc:
                    # truncated/corrupt tail: keep what is intact
                    if log is not None:
                        log.info(
                            "checkpoint-corrupt-tail",
                            f"{self.path}: discarding corrupt tail after "
                            f"{len(records)} intact record(s) ({exc!r})",
                        )
                    break
                try:
                    version, fp, group_id, results = record
                except (TypeError, ValueError):
                    if log is not None:
                        log.info(
                            "checkpoint-corrupt-tail",
                            f"{self.path}: malformed record after "
                            f"{len(records)} intact record(s)",
                        )
                    break
                if version != self.VERSION or fp != fingerprint:
                    if log is not None:
                        log.debug(
                            "checkpoint-foreign-record",
                            f"{self.path}: skipping record for "
                            f"version={version!r} fingerprint={str(fp)[:12]}...",
                        )
                    continue
                records[group_id] = results
        return records

    def append(
        self,
        fingerprint: str,
        group_id: str,
        results: Dict[str, SimulationResult],
    ) -> None:
        """Persist one completed group (flushed to disk before return)."""
        with open(self.path, "ab") as stream:
            pickle.dump(
                (self.VERSION, fingerprint, group_id, results),
                stream,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            stream.flush()
            os.fsync(stream.fileno())

    def sync(self) -> None:
        """Force the journal and its directory entry to stable storage.

        :meth:`append` already fsyncs each record into the file; this
        additionally fsyncs the *containing directory*, so a freshly
        created journal survives a crash that happens right after the
        first append.  Signal handlers call it before killing the
        process.  A missing journal is not an error.
        """
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        try:
            dfd = os.open(os.path.dirname(self.path) or ".", os.O_RDONLY)
        except OSError:  # pragma: no cover - unreadable parent dir
            return
        try:
            os.fsync(dfd)
        except OSError:  # pragma: no cover - fs without dir fsync
            pass
        finally:
            os.close(dfd)


@contextmanager
def _terminal_signal_cleanup(shared, checkpoint, log):
    """SIGTERM/SIGINT handlers that release sweep resources first.

    SIGTERM's default disposition kills the process without unwinding
    ``finally`` blocks, which would leak the parent-owned ``/dev/shm``
    trace segment and leave a just-created checkpoint journal's
    directory entry unsynced.  While a parallel sweep is running, the
    installed handler unlinks the segment, syncs the journal, then
    exits with the conventional ``128 + signum`` status (``os._exit``,
    so it never blocks on process-pool teardown).  SIGINT performs the
    same cleanup but raises :class:`KeyboardInterrupt`, preserving the
    existing Ctrl-C semantics; ``SharedTraceHandle.unlink`` is
    idempotent, so the outer ``finally`` unlinking again is harmless.
    Signal handlers can only be installed from the main thread —
    elsewhere this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    # Forked pool workers inherit these handlers; only the installing
    # process owns the segment, so a signalled worker must fall back to
    # the default disposition instead of unlinking it out from under
    # its siblings.
    owner_pid = os.getpid()

    def _cleanup(signum: int) -> None:
        if shared is not None:
            try:
                shared.unlink()
            except Exception:  # pragma: no cover - nothing left to do
                pass
        if checkpoint is not None:
            try:
                checkpoint.sync()
            except Exception:  # pragma: no cover
                pass
        if log is not None:
            try:
                log.info(
                    "signal-cleanup",
                    f"signal {signum}: shared trace released, "
                    f"checkpoint journal synced",
                )
            except Exception:  # pragma: no cover
                pass

    def _on_term(signum, frame):
        if os.getpid() != owner_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        _cleanup(signum)
        os._exit(128 + signum)

    def _on_int(signum, frame):
        if os.getpid() == owner_pid:
            _cleanup(signum)
        raise KeyboardInterrupt

    previous = {}
    try:
        previous[signal.SIGTERM] = signal.signal(signal.SIGTERM, _on_term)
        previous[signal.SIGINT] = signal.signal(signal.SIGINT, _on_int)
    except (ValueError, OSError):  # pragma: no cover - exotic runtime
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        yield
        return
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


@dataclass
class SweepPlan:
    """How a config matrix will be executed."""

    groups: List[CellGroup]
    #: clone key -> primary key for alpha-collapsed cells
    clones: Dict[str, str] = field(default_factory=dict)
    #: every cell key, in input order (the result-dict ordering)
    keys: Tuple[str, ...] = ()
    configs_by_key: Dict[str, "RunConfig"] = field(default_factory=dict)  # noqa: F821

    @property
    def num_cells(self) -> int:
        return len(self.keys)

    @property
    def num_simulated(self) -> int:
        """Cells that actually replay (the rest are exact clones)."""
        return sum(len(group.configs) for group in self.groups)

    def describe(self) -> str:
        broadcast = [g for g in self.groups if g.kind == "broadcast"]
        singles = [g for g in self.groups if g.kind == "single"]
        return (
            f"{self.num_cells} cells -> {self.num_simulated} simulations "
            f"({len(broadcast)} broadcast groups, {len(singles)} offline "
            f"tasks, {len(self.clones)} collapsed clones)"
        )


class SweepScheduler:
    """Plans and executes experiment matrices over one trace.

    Modes:

    * ``auto`` (default) — ``parallel`` when the effective worker count
      is > 1 *and* the sweep is big enough to amortize pool startup
      (``parallel_min_work``, see :meth:`run`) on a multi-core host,
      else ``serial``;
    * ``serial`` — broadcast groups and offline tasks, in-process;
    * ``parallel`` — groups distributed over a process pool (the online
      broadcast group is split into ~``workers`` balanced sub-groups);
    * ``cells`` — strict per-cell sequential replay with no grouping or
      collapsing.  This is the seed ``run_matrix`` behaviour, kept as a
      baseline for benchmarking and for the golden-equivalence suite.

    Robustness knobs (parallel mode): a group whose worker crashes or
    exceeds ``group_timeout`` seconds is retried up to ``max_retries``
    times on a fresh pool, sleeping ``backoff_seconds * 2**attempt``
    (capped at ``backoff_cap``) between rounds; groups that exhaust
    their retries run in-process.  Completed groups are never re-run.
    ``checkpoint`` (a path, a :class:`SweepCheckpoint`, or the
    ``REPRO_CHECKPOINT`` environment variable) persists each finished
    group so a killed sweep resumes where it stopped.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        mode: str = "auto",
        interval: float = 3600.0,
        collapse: bool = True,
        progress: Optional[ProgressCallback] = None,
        checkpoint: "SweepCheckpoint | str | os.PathLike | None" = None,
        max_retries: int = 2,
        backoff_seconds: float = 0.25,
        backoff_cap: float = 4.0,
        group_timeout: Optional[float] = None,
        parallel_min_work: Optional[int] = None,
        telemetry: "Optional[Telemetry]" = None,
        event_log: Optional[EventLog] = None,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_seconds < 0:
            raise ValueError(
                f"backoff_seconds must be >= 0, got {backoff_seconds}"
            )
        if backoff_cap < 0:
            raise ValueError(f"backoff_cap must be >= 0, got {backoff_cap}")
        if group_timeout is not None and group_timeout <= 0:
            raise ValueError(
                f"group_timeout must be positive, got {group_timeout}"
            )
        self.workers = resolve_workers(workers)
        self.mode = mode
        self.interval = interval
        self.collapse = collapse
        self.progress = progress
        if checkpoint is None:
            env_path = os.environ.get(CHECKPOINT_ENV, "").strip()
            if env_path:
                checkpoint = env_path
        if checkpoint is not None and not isinstance(checkpoint, SweepCheckpoint):
            checkpoint = SweepCheckpoint(checkpoint)
        self.checkpoint: Optional[SweepCheckpoint] = checkpoint
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.backoff_cap = backoff_cap
        self.group_timeout = group_timeout
        #: Auto-mode work-size threshold: a sweep whose total work
        #: (simulated cells x trace length) falls below this runs
        #: serially even when workers > 1, because pool startup and
        #: per-group pickling would dominate.  Explicit
        #: ``mode="parallel"`` bypasses the heuristic.
        self.parallel_min_work = _resolve_min_work(parallel_min_work)
        #: Run-level telemetry: when set, every simulated cell gets a
        #: probe-instrumented lane (built inside the executing process,
        #: shipped back on the result) and the scheduler folds the lanes
        #: into ``telemetry.lanes`` after each :meth:`run`.
        self.telemetry = telemetry
        #: Structured operational log (checkpoint journal activity,
        #: shared-memory lifecycle, worker crashes/fallbacks).  Defaults
        #: to the telemetry's event log so one JSONL export captures
        #: both; a bare scheduler gets a private log — its ``warning``
        #: records still surface through :mod:`warnings` as before.
        if event_log is not None:
            self.events = event_log
        elif telemetry is not None:
            self.events = telemetry.events
        else:
            self.events = EventLog()
        #: Observability record of the last :meth:`run` (None before).
        self.last_report: Optional[RunReport] = None

    # -- observability -------------------------------------------------------

    def _note(
        self,
        events: List[EngineEvent],
        t: float,
        kind: str,
        detail: str,
        level: str = "info",
    ) -> None:
        """Record one occurrence in the run report *and* the event log."""
        events.append(EngineEvent(t, kind, detail, level))
        self.events.emit(level, kind, detail)

    def _tel_options(self) -> "Optional[TelemetryOptions]":
        return self.telemetry.options if self.telemetry is not None else None

    # -- planning ------------------------------------------------------------

    def effective_mode(self) -> str:
        if self.mode == "auto":
            return "parallel" if self.workers > 1 else "serial"
        return self.mode

    def plan(
        self,
        configs: Sequence["RunConfig"],  # noqa: F821
        mode: Optional[str] = None,
    ) -> SweepPlan:
        """Partition ``configs`` into groups, clones and key order.

        ``mode`` overrides the execution mode planned for (default: the
        scheduler's :meth:`effective_mode`); :meth:`run` passes the
        heuristic-decided mode so a work-size-collapsed sweep is planned
        as one broadcast group rather than a split plan run serially.
        """
        from repro.sim.runner import CACHE_FACTORIES

        configs = list(configs)
        keys = [config.key for config in configs]
        seen: Dict[str, int] = {}
        duplicates = []
        for key in keys:
            seen[key] = seen.get(key, 0) + 1
            if seen[key] == 2:
                duplicates.append(key)
        if duplicates:
            raise ValueError(
                "duplicate RunConfig keys (results would overwrite each "
                f"other): {duplicates!r}; give the configs distinct labels"
            )

        if mode is None:
            mode = self.effective_mode()
        clones: Dict[str, str] = {}
        primaries: List["RunConfig"] = []  # noqa: F821
        if self.collapse and mode != "cells":
            # Cells that differ only in alpha are byte-identical for
            # cost-insensitive algorithms: simulate the first, clone the
            # rest by reinterpreting its counters under each cost model.
            rep_by_shape: Dict[tuple, str] = {}
            for config in configs:
                factory = CACHE_FACTORIES.get(config.algorithm)
                insensitive = (
                    factory is not None
                    and getattr(factory, "cost_sensitive", True) is False
                )
                if not insensitive:
                    primaries.append(config)
                    continue
                shape = (config.algorithm, config.disk_chunks, config.chunk_bytes)
                primary_key = rep_by_shape.get(shape)
                if primary_key is None:
                    rep_by_shape[shape] = config.key
                    primaries.append(config)
                else:
                    clones[config.key] = primary_key
        else:
            primaries = configs

        def is_offline(config) -> bool:
            factory = CACHE_FACTORIES.get(config.algorithm)
            return factory is not None and getattr(factory, "offline", False)

        online = [c for c in primaries if not is_offline(c)]
        offline = [c for c in primaries if is_offline(c)]

        groups: List[CellGroup] = []
        if mode == "cells":
            groups = [CellGroup("single", (c,)) for c in primaries]
        else:
            if online:
                if mode == "parallel":
                    n_groups = max(1, min(self.workers, len(online)))
                else:
                    n_groups = 1
                # Round-robin keeps heterogeneous algorithms balanced
                # across the sub-groups.
                for i in range(n_groups):
                    part = tuple(online[i::n_groups])
                    if part:
                        groups.append(CellGroup("broadcast", part))
            groups.extend(CellGroup("single", (c,)) for c in offline)

        return SweepPlan(
            groups=groups,
            clones=clones,
            keys=tuple(keys),
            configs_by_key={c.key: c for c in configs},
        )

    # -- execution -----------------------------------------------------------

    def run(
        self,
        configs: Sequence["RunConfig"],  # noqa: F821
        requests: Iterable[Request],
    ) -> Dict[str, SimulationResult]:
        """Execute the plan for ``configs`` over ``requests``.

        Returns ``{config.key: SimulationResult}`` in input-config
        order.  ``requests`` may be a generator when the plan is a
        single in-process broadcast group (all-online, serial, no
        checkpoint); any other shape needs — and gets — a one-time
        spill to a list.

        In ``auto`` mode a work-size heuristic decides serial vs
        parallel: pools are only worth starting when the host has more
        than one CPU and ``len(configs) * len(trace)`` is at least
        ``parallel_min_work`` (``REPRO_PARALLEL_MIN_WORK``).  Explicit
        ``mode="parallel"`` always uses pools.
        """
        t_start = time.perf_counter()
        configs = list(configs)
        events: List[EngineEvent] = []

        mode = self.effective_mode()
        if mode == "parallel" and self.mode == "auto":
            if not isinstance(requests, Sequence):
                requests = list(requests)
            work = len(configs) * len(requests)
            cpus = os.cpu_count() or 1
            if cpus < 2 or work < self.parallel_min_work:
                mode = "serial"
                self._note(
                    events,
                    0.0,
                    "parallel-collapsed",
                    f"work={work} (cells x requests) below threshold "
                    f"{self.parallel_min_work} or cpus={cpus} < 2; "
                    "running serially",
                )

        plan = self.plan(configs, mode)
        checkpoint = self.checkpoint

        needs_list = (
            mode == "parallel"
            or len(plan.groups) > 1
            or any(group.kind == "single" for group in plan.groups)
            # The checkpoint fingerprint needs a sized, indexable trace.
            or checkpoint is not None
        )
        if needs_list and not isinstance(requests, Sequence):
            requests = list(requests)

        results: Dict[str, SimulationResult] = {}
        run_groups: List[CellGroup] = list(plan.groups)
        on_group: Optional[Callable[[CellGroup, Dict[str, SimulationResult]], None]]
        on_group = None
        resumed = 0
        if checkpoint is not None:
            fp = checkpoint.fingerprint(plan, self.interval, requests)
            loaded = checkpoint.load(fp, log=self.events)
            remaining: List[CellGroup] = []
            for group in plan.groups:
                cached = loaded.get(_group_id(group))
                if cached is not None:
                    results.update(cached)
                    resumed += 1
                else:
                    remaining.append(group)
            run_groups = remaining
            if resumed:
                self._note(
                    events,
                    0.0,
                    "checkpoint-resume",
                    f"{resumed}/{len(plan.groups)} group(s) restored "
                    f"from {checkpoint.path}",
                )

            def on_group(group, group_results, _fp=fp, _ckpt=checkpoint):
                _ckpt.append(_fp, _group_id(group), group_results)

        parallel_used = False
        exec_stats: Dict[str, float] = {}
        pack_seconds = 0.0
        if mode == "parallel" and len(run_groups) > 1:
            # Ship the trace to workers as one shared-memory segment
            # instead of pickling a copy per group.  The parent owns the
            # segment: the ``finally`` guarantees it is unlinked even
            # when a group crashes, retries, or the sweep itself dies —
            # no leaked ``/dev/shm`` entries.
            shared: Optional[SharedTraceHandle] = None
            payload: "Sequence[Request] | SharedTraceHandle" = requests
            try:
                if len(requests):
                    try:
                        t_pack = time.perf_counter()
                        packed = (
                            requests
                            if isinstance(requests, PackedTrace)
                            else pack_trace(requests)
                        )
                        shared = packed.to_shared()
                        pack_seconds = time.perf_counter() - t_pack
                        payload = shared
                        self._note(
                            events,
                            time.perf_counter() - t_start,
                            "shared-trace",
                            f"{len(packed)} requests -> "
                            f"{shared.nbytes >> 10} KiB shared segment "
                            f"{shared.name}",
                            level="debug",
                        )
                    except Exception as exc:
                        # Packing or shm unavailable (exotic platform,
                        # exhausted /dev/shm): fall back to pickling the
                        # request objects per group, as before.
                        shared = None
                        payload = requests
                        self._note(
                            events,
                            time.perf_counter() - t_start,
                            "shared-trace-unavailable",
                            repr(exc),
                            level="warning",
                        )
                pool_results, parallel_used, pool_events, exec_stats = (
                    self._run_parallel(run_groups, payload, on_group)
                )
            finally:
                if shared is not None:
                    try:
                        shared.unlink()
                        self.events.debug(
                            "shm-unlink", f"released shared segment {shared.name}"
                        )
                    except Exception as exc:
                        # A failed unlink must not mask the sweep's
                        # outcome; the leak is reported (stderr + log),
                        # not raised.
                        detail = f"segment {shared.name}: {exc!r}"
                        events.append(
                            EngineEvent(
                                time.perf_counter() - t_start,
                                "shm-unlink-failed",
                                detail,
                                "error",
                            )
                        )
                        self.events.error("shm-unlink-failed", detail)
            results.update(pool_results)
            events.extend(pool_events)
        else:
            results.update(self._run_groups(run_groups, requests, on_group))

        self._apply_clones(plan, results, requests)

        wall = time.perf_counter() - t_start
        num_requests = next(iter(results.values())).num_requests if results else 0
        extra: Dict = {
            "cells": plan.num_cells,
            "simulated": plan.num_simulated,
            "clones": len(plan.clones),
            "groups": len(plan.groups),
        }
        if resumed:
            extra["resumed_groups"] = resumed
        extra.update(exec_stats)
        stages = [StageTiming("sweep", wall, plan.num_simulated)]
        if pack_seconds:
            stages.insert(0, StageTiming("pack", pack_seconds, num_requests))
        self.last_report = RunReport(
            engine="scheduler",
            mode="parallel" if parallel_used else mode,
            wall_seconds=wall,
            num_requests=num_requests,
            num_caches=plan.num_cells,
            workers=self.workers if parallel_used else 1,
            stages=stages,
            extra=extra,
            events=events,
        )
        for result in results.values():
            if result.report is not None:
                result.report.extra.setdefault("scheduler_mode", self.last_report.mode)
                result.report.extra.setdefault(
                    "scheduler_workers", self.last_report.workers
                )

        if self.telemetry is not None:
            # Lanes were built inside the executing process (worker or
            # parent) and shipped back on the results; fold them into
            # the run-level container so one export sees every cell.
            adopted = self.telemetry.adopt(results)
            if adopted:
                self.events.debug(
                    "telemetry-adopt", f"{adopted} lane(s) merged from results"
                )

        # Deterministic output order: the input-config order.
        return {key: results[key] for key in plan.keys}

    # -- internals -----------------------------------------------------------

    def _run_groups(
        self,
        groups: Sequence[CellGroup],
        requests: Iterable[Request],
        on_group: Optional[
            Callable[[CellGroup, Dict[str, SimulationResult]], None]
        ] = None,
    ) -> Dict[str, SimulationResult]:
        results: Dict[str, SimulationResult] = {}
        for group in groups:
            group_results = _execute_group(
                group.kind, group.configs, requests, self.interval,
                self.progress, self._tel_options(),
            )
            results.update(group_results)
            if on_group is not None:
                on_group(group, group_results)
        return results

    def _run_parallel(
        self,
        groups: Sequence[CellGroup],
        requests: "Sequence[Request] | SharedTraceHandle",
        on_group: Optional[
            Callable[[CellGroup, Dict[str, SimulationResult]], None]
        ] = None,
    ) -> Tuple[Dict[str, SimulationResult], bool, List[EngineEvent], Dict[str, int]]:
        """Distribute groups over a supervised process pool.

        Rounds of execution: every still-pending group is submitted to
        a fresh pool; groups whose futures complete are harvested (and
        checkpointed) immediately, groups that crash or time out are
        re-queued for the next round after a capped exponential
        backoff.  A crash therefore costs only the crashed group's work
        — completed siblings are salvaged, never re-simulated.  Groups
        that exhaust ``max_retries`` run in-process at the end, which
        doubles as the fallback when process pools are unavailable
        altogether.

        While the pool runs, SIGTERM/SIGINT are intercepted so an
        external kill still releases the shared trace segment and syncs
        the checkpoint journal (see :func:`_terminal_signal_cleanup`).
        """
        shared = requests if isinstance(requests, SharedTraceHandle) else None
        with _terminal_signal_cleanup(shared, self.checkpoint, self.events):
            return self._run_parallel_pool(groups, requests, on_group)

    def _run_parallel_pool(
        self,
        groups: Sequence[CellGroup],
        requests: "Sequence[Request] | SharedTraceHandle",
        on_group: Optional[
            Callable[[CellGroup, Dict[str, SimulationResult]], None]
        ] = None,
    ) -> Tuple[Dict[str, SimulationResult], bool, List[EngineEvent], Dict[str, int]]:
        t0 = time.perf_counter()
        results: Dict[str, SimulationResult] = {}
        events: List[EngineEvent] = []
        pending: List[Tuple[int, CellGroup]] = list(enumerate(groups))
        attempts: Dict[int, int] = {i: 0 for i, _ in pending}
        fallback: List[Tuple[int, CellGroup]] = []
        retries = 0
        pool_ran = False

        def elapsed() -> float:
            return time.perf_counter() - t0

        while pending:
            max_workers = min(self.workers, len(pending))
            try:
                pool = ProcessPoolExecutor(max_workers=max_workers)
                future_group = {
                    pool.submit(
                        _execute_group, group.kind, group.configs, requests,
                        self.interval, None, self._tel_options(),
                    ): (index, group)
                    for index, group in pending
                }
            except (OSError, ValueError, RuntimeError, ImportError) as exc:
                # The pool cannot even start (sandbox, missing fork
                # support, ...): nothing parallel will work — route all
                # remaining groups to the in-process fallback.
                self._note(
                    events, elapsed(), "pool-unavailable", repr(exc),
                    level="warning",
                )
                fallback.extend(pending)
                pending = []
                break
            pool_ran = True
            crashed: List[Tuple[int, CellGroup, str]] = []
            deadline = (
                time.monotonic() + self.group_timeout
                if self.group_timeout is not None
                else None
            )
            not_done = set(future_group)
            timed_out = False
            while not_done:
                timeout = None
                if deadline is not None:
                    timeout = deadline - time.monotonic()
                    if timeout <= 0:
                        timed_out = True
                        break
                done, not_done = wait(
                    not_done, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    timed_out = True
                    break
                for future in done:
                    index, group = future_group[future]
                    try:
                        group_results = future.result()
                    except Exception as exc:
                        # Includes BrokenProcessPool: a dead worker
                        # fails every unfinished future, and each lands
                        # here to be retried; finished siblings were
                        # already harvested above.
                        crashed.append((index, group, repr(exc)))
                    else:
                        results.update(group_results)
                        if on_group is not None:
                            on_group(group, group_results)
            if timed_out:
                for future in not_done:
                    index, group = future_group[future]
                    future.cancel()
                    crashed.append(
                        (index, group, f"timed out after {self.group_timeout}s")
                    )
            # A timed-out worker may be wedged: don't block shutdown on
            # it (the abandoned process dies with the interpreter).
            pool.shutdown(wait=not timed_out, cancel_futures=True)

            pending = []
            max_attempt = 0
            for index, group, why in crashed:
                attempts[index] += 1
                self._note(
                    events,
                    elapsed(),
                    "group-crash",
                    f"group {index} ({group.kind} x{len(group.configs)}) "
                    f"attempt {attempts[index]}: {why}",
                    level="warning",
                )
                if attempts[index] > self.max_retries:
                    fallback.append((index, group))
                else:
                    pending.append((index, group))
                    retries += 1
                    max_attempt = max(max_attempt, attempts[index])
            if pending:
                delay = min(
                    self.backoff_cap,
                    self.backoff_seconds * (2 ** (max_attempt - 1)),
                )
                self._note(
                    events,
                    elapsed(),
                    "retry-backoff",
                    f"retrying {len(pending)} group(s) after {delay:g}s",
                )
                if delay > 0:
                    time.sleep(delay)

        if fallback:
            # Still a real RuntimeWarning (callers and tests filter on
            # it), but recorded in the structured log as well.
            self.events.warning(
                "parallel-fallback",
                f"parallel sweep execution failed for {len(fallback)} "
                "group(s); falling back to in-process execution for those "
                f"(salvaged {len(groups) - len(fallback)} completed)",
                stacklevel=4,
            )
            for index, group in sorted(fallback):
                self._note(
                    events,
                    elapsed(),
                    "group-fallback",
                    f"group {index} in-process",
                    level="warning",
                )
                group_results = _execute_group(
                    group.kind, group.configs, requests, self.interval,
                    self.progress, self._tel_options(),
                )
                results.update(group_results)
                if on_group is not None:
                    on_group(group, group_results)

        stats: Dict[str, int] = {}
        if retries:
            stats["group_retries"] = retries
        if fallback:
            stats["fallback_groups"] = len(fallback)
            stats["salvaged_groups"] = len(groups) - len(fallback)
        return results, pool_ran, events, stats

    def _apply_clones(
        self,
        plan: SweepPlan,
        results: Dict[str, SimulationResult],
        requests: Iterable[Request],
    ) -> None:
        """Materialize alpha-collapsed cells from their primaries.

        The clone's cache state is byte-identical to the primary's (its
        decisions never consulted the cost model), so a copy with the
        clone's cost model swapped in is exactly what a dedicated replay
        would have produced.  Copying goes through pickle — serialize
        each primary once, deserialize per clone — which is several
        times faster than ``copy.deepcopy`` on heap-heavy cache state.

        A primary whose cache refuses to pickle (e.g. an instrumented
        wrapper holding a live file handle) degrades to a dedicated
        replay of each clone — exact, just slower — or raises a clear
        error when the trace was a one-shot generator that is already
        spent.
        """
        blobs: Dict[str, Optional[bytes]] = {}
        for clone_key, primary_key in plan.clones.items():
            config = plan.configs_by_key[clone_key]
            primary = results[primary_key]
            cost_model = CostModel(config.alpha_f2r)
            if primary_key not in blobs:
                try:
                    blobs[primary_key] = pickle.dumps(
                        primary.cache, protocol=pickle.HIGHEST_PROTOCOL
                    )
                except (pickle.PicklingError, TypeError, AttributeError) as exc:
                    blobs[primary_key] = None
                    self.events.warning(
                        "clone-unpicklable",
                        f"cache state of {primary_key!r} is not picklable "
                        f"({exc!r}); materializing its alpha-collapsed "
                        "clones by dedicated replay",
                        stacklevel=4,
                    )
            blob = blobs[primary_key]
            if blob is None:
                if not isinstance(requests, Sequence):
                    raise RuntimeError(
                        f"cannot materialize clone {clone_key!r}: the "
                        f"primary {primary_key!r} cache is unpicklable and "
                        "the request stream was a one-shot generator that "
                        "is already consumed; pass a materialized sequence "
                        "or construct the scheduler with collapse=False"
                    )
                results[clone_key] = replay(
                    config.build(), requests, interval=self.interval
                )
                continue
            cache = pickle.loads(blob)
            cache.cost_model = cost_model
            results[clone_key] = SimulationResult(
                cache=cache,
                metrics=primary.metrics.with_cost_model(cost_model),
                num_requests=primary.num_requests,
                report=primary.report,
            )


def _execute_group(
    kind: str,
    configs: Tuple["RunConfig", ...],  # noqa: F821
    requests: "Iterable[Request] | SharedTraceHandle",
    interval: float,
    progress: Optional[ProgressCallback],
    telemetry_options: "Optional[TelemetryOptions]" = None,
) -> Dict[str, SimulationResult]:
    """Run one cell group (module-level so process pools can pickle it).

    ``requests`` may be a :class:`SharedTraceHandle`; the group then
    attaches the parent's shared-memory segment (zero-copy) and releases
    its mapping when done — the parent keeps segment ownership and does
    the unlink.

    ``telemetry_options`` (picklable) asks the group to build a local
    :class:`~repro.obs.telemetry.Telemetry` whose lanes ride back to the
    parent on each result's ``telemetry`` field — how probe data crosses
    the process boundary.
    """
    telemetry = None
    if telemetry_options is not None:
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(telemetry_options)
    attached: Optional[PackedTrace] = None
    if isinstance(requests, SharedTraceHandle):
        attached = requests.attach()
        requests = attached
    try:
        if kind == "single":
            (config,) = configs
            return {
                config.key: replay(
                    config.build(), requests, interval=interval,
                    progress=progress, telemetry=telemetry, label=config.key,
                )
            }
        caches = {config.key: config.build() for config in configs}
        return MultiReplay(caches, interval=interval, telemetry=telemetry).run(
            requests, progress=progress
        )
    finally:
        # Broadcast groups never retain the trace, so the mapping can be
        # released eagerly.  Offline ("single") caches keep the prepared
        # sequence alive inside the returned cache state — it is pickled
        # back with the result, so the mapping must stay open here and
        # is released when the worker exits.
        if attached is not None and kind == "broadcast":
            attached.close()
