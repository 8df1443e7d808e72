"""Parallel sweep engine with a content-addressed result cache.

The paper's headline artifact is a full measurement matrix — 11
benchmarks x 4 problem sizes x 15 devices, 50 samples each (§4.3).
:func:`repro.harness.runner.run_matrix` used to walk that matrix
serially in one process and recompute it from scratch on every
invocation; this module gives the harness the two properties GEMMbench
(Lokhmotov 2015) and the HPCChallenge OpenCL suite (Meyer et al. 2020)
argue reproducible benchmarking needs:

* **parallelism** — :func:`run_sweep` fans cells out over a
  :class:`CellPool` (``jobs`` workers, default ``os.cpu_count()``), in
  input order, at most ``jobs`` in flight.  Because each cell seeds its
  RNG with the process-stable :func:`~repro.harness.runner.cell_seed`,
  a parallel sweep produces samples **bit-identical** to a serial one;
* **memoisation** — a :class:`SweepCache` persists each cell's
  :func:`result_to_payload` dict, in one JSON envelope per cell, keyed
  on a SHA-256 of the :class:`~repro.harness.runner.RunConfig`, the
  full device spec and a model-version stamp, so re-running a sweep
  only computes missing/invalidated cells and an interrupted matrix
  resumes where it stopped.

This module also owns what happens to a cell once its key is known,
for both drivers — :func:`run_sweep` and the ``repro serve`` engine
(:mod:`repro.service.jobs`):

* :meth:`SweepCache.get` reads a payload, where any failure (an
  entry that does not decode, names another cell or is unreachable) is
  a logged and counted miss, and :meth:`SweepCache.put` writes one,
  where a backend failure is logged, counted and swallowed;
* :func:`adopt_cell` folds a worker's reply into this process: its
  JSONL records (tagged with the worker PID) into the run log, its
  metric snapshot into the registry, its spans under one per-cell span;
* :func:`count_cell` owns the ``sweep_cells_cached_total`` /
  ``sweep_cells_computed_total`` counter pair and the
  ``cell_cached`` / ``cell_computed`` run-log records.

The cache-entry envelope and its one on-disk layout,
``<root>/<key[:2]>/<key>.json``, are documented in ``docs/formats.md``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..devices.catalog import get_device
from ..devices.specs import DeviceSpec
from ..perfmodel.roofline import TimeBreakdown
from ..scibench.recorder import Recorder
from ..service.store import (
    CacheBackend,
    CacheBackendError,
    LocalCacheBackend,
    parse_backend_spec,
)
from ..telemetry.metrics import default_registry
from ..telemetry.runlog import RunLog, get_default_runlog, memory_runlog
from ..telemetry.tracer import get_tracer
from .runner import RunConfig, RunResult, run_benchmark

_log = logging.getLogger(__name__)

#: Stamp mixed into every cache key.  Bump whenever the performance,
#: noise or energy models change in a way that invalidates previously
#: cached samples — every existing entry then misses and is recomputed.
#: "2": RunResult payloads gained the per-cell ``counters`` dict.
MODEL_VERSION = "2"

#: Version of the JSON cache-entry envelope (``docs/formats.md``).  An
#: entry carrying any other ``format`` is a miss.
CACHE_FORMAT = 1


def cell_key(config: RunConfig, model_version: str | None = None) -> str:
    """Content hash (SHA-256 hex) addressing one sweep cell.

    The digest folds in the full :class:`RunConfig`, the resolved
    device spec and the :data:`MODEL_VERSION` stamp, so any change to
    those inputs — different sample count, a re-parameterised device, a
    model bump — yields a different key.  Shared by :class:`SweepCache`
    and the :mod:`repro.regress` baseline store: a baseline cell whose
    key no longer matches a freshly computed one was recorded under a
    different model and is flagged stale.

    Parameters
    ----------
    config : RunConfig
        The cell to address.  The device name is canonicalised through
        the catalog first.
    model_version : str, optional
        Override of the global :data:`MODEL_VERSION` stamp (tests use
        this to exercise invalidation).
    """
    spec = get_device(config.device)
    fields = dataclasses.asdict(config)
    fields["device"] = spec.name
    version = MODEL_VERSION if model_version is None else model_version
    # The bytes of json.dumps({"config": fields, "device_spec": asdict(
    # spec), "model_version": version}, sort_keys=True, default=str),
    # with the spec's part dumped once per spec.
    blob = ('{"config": ' + json.dumps(fields, sort_keys=True, default=str)
            + ', "device_spec": ' + _device_spec_json(spec)
            + ', "model_version": ' + json.dumps(version, default=str)
            + "}")
    return hashlib.sha256(blob.encode()).hexdigest()


#: ``(spec, JSON of its fields)`` by ``id(spec)``: keyed by identity
#: because the dataclass hash and equality ignore ``extra``, and the
#: entry holds the spec so its id is never reused.  ``cell_key`` sees
#: only catalog specs, so this holds one entry per catalog device.
_SPEC_JSON: dict[int, tuple[DeviceSpec, str]] = {}


def _device_spec_json(spec: DeviceSpec) -> str:
    held = _SPEC_JSON.get(id(spec))
    if held is None:
        held = _SPEC_JSON[id(spec)] = (spec, json.dumps(
            dataclasses.asdict(spec), sort_keys=True, default=str))
    return held[1]


def default_cache_dir() -> Path:
    """The sweep cache location used when none is given explicitly.

    ``$REPRO_CACHE_DIR`` wins, then ``$XDG_CACHE_HOME/repro``, then
    ``~/.cache/repro``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg).expanduser() / "repro"
    return Path("~/.cache/repro").expanduser()


# ----------------------------------------------------------------------
# RunResult (de)serialisation — shared by the cache and the worker IPC
# ----------------------------------------------------------------------
def result_to_payload(result: RunResult) -> dict:
    """Serialise a :class:`RunResult` to a JSON-safe dict.

    The same payload shape is used for cache entries and for shipping
    results back from worker processes, so both paths are exercised by
    the same round-trip tests.
    """
    recorder = None
    if result.recorder is not None:
        recorder = {
            "name": result.recorder.name,
            "measurements": [
                {"region": m.region, "time_s": m.time_s,
                 "energy_j": m.energy_j, "tags": dict(m.tags)}
                for m in result.recorder._measurements
            ],
        }
    return {
        "benchmark": result.benchmark,
        "size": result.size,
        "device": result.device,
        "device_class": result.device_class,
        "nominal_s": result.nominal_s,
        "times_s": [float(t) for t in result.times_s],
        "energies_j": [float(e) for e in result.energies_j],
        "loop_iterations": result.loop_iterations,
        "breakdown": dataclasses.asdict(result.breakdown),
        "footprint_bytes": result.footprint_bytes,
        "validated": result.validated,
        "counters": result.counters,
        "recorder": recorder,
    }


def result_from_payload(payload: dict) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_payload` output."""
    recorder = None
    if payload.get("recorder") is not None:
        recorder = Recorder(payload["recorder"].get("name", ""))
        for m in payload["recorder"]["measurements"]:
            recorder.record(m["region"], m["time_s"],
                            energy_j=m.get("energy_j"), **m.get("tags", {}))
    return RunResult(
        benchmark=payload["benchmark"],
        size=payload["size"],
        device=payload["device"],
        device_class=payload["device_class"],
        nominal_s=payload["nominal_s"],
        times_s=np.asarray(payload["times_s"], dtype=float),
        energies_j=np.asarray(payload["energies_j"], dtype=float),
        loop_iterations=payload["loop_iterations"],
        breakdown=TimeBreakdown(**payload["breakdown"]),
        footprint_bytes=payload["footprint_bytes"],
        validated=payload["validated"],
        counters=payload.get("counters"),
        recorder=recorder,
    )


# ----------------------------------------------------------------------
# Content-addressed result cache
# ----------------------------------------------------------------------
def _decode_result_entry(blob: bytes, key: str) -> dict:
    """The result payload of the JSON envelope ``blob`` stored as ``key``.

    Raises one of :data:`_CORRUPT` on torn or alien bytes, another
    envelope version, or an envelope whose ``key`` names another cell
    (an entry copied or put under the wrong name) —
    :meth:`SweepCache.get` maps that to a logged miss.
    """
    entry = json.loads(blob)
    if not isinstance(entry, dict) or entry.get("format") != CACHE_FORMAT:
        raise ValueError(f"not a format-{CACHE_FORMAT} cache entry")
    if entry.get("key") != key:
        raise ValueError(f"cache entry names cell {entry.get('key')!r}")
    if not isinstance(entry.get("result"), dict):
        raise ValueError("cache entry carries no result payload")
    return entry["result"]


#: What a torn, truncated or alien entry raises while being read or
#: decoded (``CacheBackendError`` is an ``OSError``): all of it is a miss.
_CORRUPT = (OSError, ValueError)

#: Why a cache read was served as a miss or a write dropped: an entry
#: that does not decode, or an unreachable or failing store.
DEGRADED_REASONS = ("corrupt", "backend")


def _degraded_counter():
    return default_registry().counter(
        "sweep_cache_degraded_total",
        "Cache reads served as a miss and writes dropped, by reason")


class SweepCache:
    """Content-addressed store of per-cell result payloads.

    Each entry is one JSON envelope (``docs/formats.md``) holding a
    :func:`result_to_payload` dict, stored under ``key``, the
    :func:`cell_key` SHA-256 over the cell's full configuration, the
    resolved device spec and the :data:`MODEL_VERSION` stamp.  Any
    change to those inputs — different sample count, a
    re-parameterised device, a model bump — yields a different key, so
    invalidation is simply a miss; stale entries are never served.

    Storage is pluggable (:class:`~repro.service.store.CacheBackend`):
    the default :class:`~repro.service.store.LocalCacheBackend` keeps
    ``<root>/<key[:2]>/<key>.json`` files, while a
    :class:`~repro.service.store.RemoteCacheBackend`
    (``remote://host:port``) lets many worker hosts share the store of
    one ``repro serve --cache-only`` instance.  Encoding lives here, so
    every backend serves byte-identical entries.

    Local writes are atomic (temp file + ``os.replace``), so concurrent
    processes sharing a store never observe torn entries; torn
    *content* (a truncated file, a corrupt remote blob, an envelope
    naming another cell) and an unreachable backend are read as a miss
    with a logged warning, never a crash.  Each such fallback is
    counted in ``sweep_cache_degraded_total{backend,op,reason}``.
    """

    def __init__(self, root: str | Path | CacheBackend):
        self.backend = parse_backend_spec(root)
        if isinstance(self.backend, LocalCacheBackend):
            self.root: Path | str = self.backend.root
        else:
            self.root = self.backend.describe()

    def _degraded(self, op: str, reason: str) -> None:
        """Count one read or write that fell back to a miss or a no-op."""
        _degraded_counter().inc(
            backend="local" if isinstance(self.backend, LocalCacheBackend)
            else "remote", op=op, reason=reason)

    def get(self, key: str) -> dict | None:
        """The cached result payload for ``key``, or ``None`` on a miss.

        A corrupt, torn, format-incompatible or misaddressed entry, and
        a backend failure (an unreachable remote store), are a miss
        with a logged warning rather than an error — a half-written
        file from a killed run must not wedge resumes.
        """
        with get_tracer().span("sweep_cache_get", phase="cache_io",
                               key=key) as sp:
            try:
                blob = self.backend.read("result", key)
                payload = None if blob is None else _decode_result_entry(
                    blob, key)
            except _CORRUPT as exc:
                _log.warning("treating result cache entry %s as a miss "
                             "(corrupt or unreachable): %s", key, exc)
                self._degraded("read", "backend"
                               if isinstance(exc, CacheBackendError)
                               else "corrupt")
                payload = None
            sp.set_attribute("hit", payload is not None)
            return payload

    def put(self, key: str, config: RunConfig, payload: dict) -> None:
        """Persist one cell's result payload under ``key``.

        A backend write failure is logged and swallowed — losing a
        cache entry must not take the run down.
        """
        with get_tracer().span("sweep_cache_put", phase="cache_io", key=key):
            blob = json.dumps({
                "format": CACHE_FORMAT,
                "model_version": MODEL_VERSION,
                "key": key,
                "config": dataclasses.asdict(config),
                "created_unix": time.time(),
                "result": payload,
            }, default=str).encode()
            try:
                self.backend.write("result", key, blob)
            except CacheBackendError as exc:
                _log.warning("sweep cache backend failed to store "
                             "result %s: %s", key, exc)
                self._degraded("write", "backend")

    def close(self) -> None:
        """Release the backend's connection, if it holds one."""
        self.backend.close()

    def __repr__(self) -> str:
        return f"<SweepCache {self.backend.describe()}>"


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """What a sweep did: the results plus compute/cache accounting."""

    results: list[RunResult]
    computed: int
    cached: int
    wall_s: float
    jobs: int

    @property
    def cells(self) -> int:
        """Total number of cells covered by the sweep."""
        return len(self.results)


def _compute_cell(
    config: RunConfig, trace_ctx: dict | None = None,
) -> tuple[dict, list[dict], dict, list[dict]]:
    """Worker entry point: measure one cell in a child process.

    Returns the serialised result, the cell's JSONL records (captured
    in memory, each tagged with this worker's PID), a metrics snapshot
    and the worker's finished spans, so the parent can merge all three
    into its own run log, registry and trace.  The worker's registry is
    reset first: under ``fork`` it inherits the parent's accumulated
    series, and the snapshot must be a per-cell delta, not a cumulative
    copy.  ``trace_ctx`` is the parent tracer's
    :meth:`~repro.telemetry.tracer.Tracer.propagation_context` —
    ``None`` (tracing off) keeps the worker on the no-op path and ships
    no spans.  Module-level and argument-picklable so it works under
    both ``fork`` and ``spawn`` start methods.
    """
    from ..telemetry.runlog import set_default_runlog
    from ..telemetry.tracer import Tracer, set_tracer
    set_default_runlog(None)  # never write to a handle inherited from the parent
    default_registry().reset()
    tracer = Tracer.from_context(trace_ctx)
    set_tracer(tracer)  # fresh per cell: fork may inherit parent state
    runlog, buffer = memory_runlog()
    result = run_benchmark(config, runlog=runlog)
    pid = os.getpid()
    records = []
    for line in buffer.getvalue().splitlines():
        if line.strip():
            record = json.loads(line)
            record["worker_pid"] = pid
            records.append(record)
    spans = tracer.to_dicts()
    for span in spans:
        span["attributes"]["worker_pid"] = pid
    return result_to_payload(result), records, default_registry().snapshot(), spans


class WorkerDied(BrokenProcessPool):
    """A pool worker died (OOM-killed, say); ``configs`` are the cells
    that were in flight on the pool and are lost with it."""

    def __init__(self, configs):
        self.configs = list(configs)
        super().__init__("a worker process died; lost " + ", ".join(
            f"{c.benchmark}/{c.size}/{c.device}" for c in self.configs))


#: How often a pool worker checks that its parent is still alive.
_PARENT_POLL_S = 0.2


def _exit_with_parent(parent: int) -> None:
    """Pool-worker initializer: ``os._exit`` once ``parent`` is gone.

    A parent killed by SIGKILL cannot stop its workers, which would
    wait on the call queue forever, reparented.  A daemon thread polls
    ``os.getppid()`` and exits the worker when it changes.  A worker
    whose parent is not ``parent`` at start (a forkserver's child) has
    nothing to watch.
    """
    if os.getppid() != parent:
        return

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


class _Generation:
    """One executor and the cells in flight on it."""

    def __init__(self, jobs: int):
        self.executor = ProcessPoolExecutor(
            max_workers=jobs, initializer=_exit_with_parent,
            initargs=(os.getpid(),))
        self.cells: dict[Future, RunConfig] = {}
        self.lost: list[RunConfig] | None = None  # set once it breaks


class CellPool:
    """The one process pool behind :func:`run_sweep` and ``repro serve``.

    :meth:`submit` queues a cell and returns a future of its
    :func:`_compute_cell` reply.  At most ``jobs`` cells are in the
    workers; as one lands, the next queued cell takes its slot.  When a
    worker dies, every cell in the workers fails with
    :class:`WorkerDied`, and the pool swaps in a fresh executor, counted
    in :attr:`restarts` and ``sweep_worker_restarts_total``.
    """

    def __init__(self, jobs: int, registry=None):
        self.jobs = jobs
        self.restarts = 0
        self._counter = (registry or default_registry()).counter(
            "sweep_worker_restarts_total",
            "Worker pools replaced after a worker died")
        self._lock = threading.RLock()  # a callback may run in _launch
        self._gen = _Generation(jobs)
        self._queued: deque[tuple[RunConfig, dict | None, Future]] = deque()

    def submit(self, config: RunConfig, trace_ctx: dict | None = None,
               ) -> Future:
        """Queue one cell; the future resolves to its worker reply."""
        reply: Future = Future()
        reply.set_running_or_notify_cancel()  # a queued cell always runs
        with self._lock:
            self._queued.append((config, trace_ctx, reply))
            self._launch()
        return reply

    def _launch(self) -> None:
        """Move queued cells into free worker slots; lock held."""
        while self._queued and len(self._gen.cells) < self.jobs:
            config, trace_ctx, reply = self._queued.popleft()
            gen = self._gen
            try:
                work = gen.executor.submit(_compute_cell, config, trace_ctx)
            except BrokenProcessPool:  # broke before its callbacks ran
                gen = self._restart(gen)
                work = gen.executor.submit(_compute_cell, config, trace_ctx)
            gen.cells[work] = config
            work.add_done_callback(functools.partial(self._settle, gen, reply))

    def _restart(self, broken: _Generation) -> _Generation:
        """Retire ``broken`` once, recording its lost cells; lock held."""
        if broken.lost is None:
            broken.lost = list(broken.cells.values())
        if self._gen is broken:
            self._gen = _Generation(self.jobs)
            self.restarts += 1
            self._counter.inc()
        return self._gen

    def _settle(self, gen: _Generation, reply: Future, work: Future) -> None:
        error = work.exception()
        with self._lock:
            if isinstance(error, BrokenProcessPool):
                self._restart(gen)
                error = WorkerDied(gen.lost)
            gen.cells.pop(work, None)
            self._launch()
        if error is None:
            reply.set_result(work.result())
        else:
            reply.set_exception(error)

    def close(self) -> None:
        """Drop the queued cells, wait for those in the workers, stop."""
        with self._lock:
            self._queued.clear()  # their replies never resolve
        self._gen.executor.shutdown(wait=True)


def adopt_cell(reply: tuple, runlog: RunLog | None, registry, span: str,
               **attrs) -> dict:
    """Fold one :func:`_compute_cell` reply into this process's telemetry.

    Writes the worker's JSONL records to ``runlog`` (when given), merges
    its metric snapshot into ``registry`` and grafts its spans under one
    ``span`` (with ``attrs``) opened here, so a pooled cell has the same
    span topology as one measured in-process.  Returns the result
    payload.  Both :func:`run_sweep` and the ``repro serve`` engine
    call it on the thread that owns their span stack.
    """
    payload, records, metrics, spans = reply
    if runlog is not None:
        for record in records:
            runlog.write_record(record)
    registry.merge_snapshot(metrics)
    tracer = get_tracer()
    with tracer.span(span, **attrs):
        tracer.graft(spans)
    return payload


def count_cell(registry, runlog: RunLog | None, config: RunConfig,
               key: str | None, cached: bool) -> None:
    """Account for one finished cell, restored (``cached``) or measured.

    Increments ``sweep_cells_cached_total`` or
    ``sweep_cells_computed_total`` and writes the matching
    ``cell_cached`` / ``cell_computed`` run-log record carrying ``key``.
    Both counters are registered on every call, so an exposition shows
    the pair even when one of them is still zero.
    """
    restored = registry.counter(
        "sweep_cells_cached_total",
        "Sweep cells restored from the result cache")
    measured = registry.counter(
        "sweep_cells_computed_total", "Sweep cells actually measured")
    (restored if cached else measured).inc()
    if runlog is not None:
        runlog.write("cell_cached" if cached else "cell_computed",
                     benchmark=config.benchmark, size=config.size,
                     device=config.device, key=key)


def run_sweep(
    configs: list[RunConfig],
    jobs: int | None = None,
    cache: SweepCache | None = None,
    refresh: bool = False,
    runlog: RunLog | None = None,
) -> SweepOutcome:
    """Measure many (benchmark, size, device) cells, in parallel, cached.

    Parameters
    ----------
    configs : list of RunConfig
        The cells to cover.  Results come back in the same order.
    jobs : int, optional
        Worker processes.  ``None`` means ``os.cpu_count()``; ``1``
        runs every cell in this process (no pool, no pickling).
        Either way the samples are bit-identical, because each cell's
        RNG seed is derived process-stably by
        :func:`~repro.harness.runner.cell_seed`.
    cache : SweepCache, optional
        When given, cells already present are restored without
        computation and newly computed cells are persisted — which is
        also how ``--resume`` continues an interrupted matrix.
    refresh : bool
        Ignore existing entries (recompute everything) but still write
        the fresh results back to the cache.
    runlog : RunLog, optional
        Parent JSONL log; defaults to the process-global one.  Child
        processes log to memory and their records are merged here,
        tagged ``worker_pid``.

    Returns
    -------
    SweepOutcome
        Results in input order plus computed/cached cell counts and
        the wall-clock duration.

    Raises
    ------
    WorkerDied
        Naming the cells lost to a dead worker, once every other cell
        is finished and cached and ``sweep_complete`` is written.

    Notes
    -----
    Pending (non-cached) cells are dispatched in input order, at most
    ``jobs`` at a time, through one :class:`CellPool`.
    In parallel mode the per-cell ``sweep_cell`` spans are recorded at
    completion on the parent (the tracer's span stack is per-process),
    so they mark ordering and cache state, not child-side duration.
    """
    tracer = get_tracer()
    registry = default_registry()
    runlog = runlog if runlog is not None else get_default_runlog()
    jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))

    start = time.perf_counter()
    degraded_before = _degraded_counter().totals_by("reason")
    if runlog is not None:
        runlog.write("sweep_start", cells=len(configs), jobs=jobs,
                     cache_dir=str(cache.root) if cache is not None else None,
                     refresh=refresh)

    keys = [cell_key(c) if cache is not None else None for c in configs]
    results: dict[int, RunResult] = {}
    pending: list[int] = []
    lost: list[int] = []
    restarts = 0

    def cell_attrs(i: int, cached: bool) -> dict:
        config = configs[i]
        return dict(benchmark=config.benchmark, size=config.size,
                    device=config.device, cached=cached, key=keys[i])

    def finish(i: int, result: RunResult, payload: dict | None) -> None:
        # ``payload``: the worker's serialisation of ``result``, if any
        if cache is not None:
            if payload is None:
                payload = result_to_payload(result)
            cache.put(keys[i], configs[i], payload)
        count_cell(registry, runlog, configs[i], keys[i], cached=False)
        results[i] = result

    with tracer.span("run_sweep", phase="sweep",
                     cells=len(configs), jobs=jobs):
        for i, config in enumerate(configs):
            hit = None
            if cache is not None and not refresh:
                hit = cache.get(keys[i])
            if hit is None:
                pending.append(i)
                continue
            with tracer.span("sweep_cell", **cell_attrs(i, True)):
                pass
            count_cell(registry, runlog, config, keys[i], cached=True)
            results[i] = result_from_payload(hit)

        if jobs == 1:
            for i in pending:
                with tracer.span("sweep_cell", **cell_attrs(i, False)):
                    result = run_benchmark(configs[i], runlog=runlog)
                finish(i, result, None)
        elif pending:
            trace_ctx = tracer.propagation_context()
            with closing(CellPool(jobs, registry)) as pool:
                futures = {pool.submit(configs[i], trace_ctx): i
                           for i in pending}
                for future in as_completed(futures):
                    i = futures[future]
                    try:
                        reply = future.result()
                    except WorkerDied:
                        lost.append(i)
                        if runlog is not None:
                            runlog.write("cell_failed", **cell_attrs(i, False))
                        continue
                    payload = adopt_cell(reply, runlog, registry,
                                         "sweep_cell", **cell_attrs(i, False))
                    finish(i, result_from_payload(payload), payload)
                restarts = pool.restarts

    wall_s = time.perf_counter() - start
    outcome = SweepOutcome(
        results=[results.get(i) for i in range(len(configs))],
        computed=len(pending) - len(lost),
        cached=len(configs) - len(pending),
        wall_s=wall_s,
        jobs=jobs,
    )
    if runlog is not None:
        degraded = _degraded_counter().totals_by("reason")
        runlog.write("sweep_complete", cells=outcome.cells,
                     computed=outcome.computed, cached=outcome.cached,
                     failed=len(lost), worker_restarts=restarts,
                     wall_s=wall_s, cache_degraded={
                         reason: int(degraded.get(reason, 0)
                                     - degraded_before.get(reason, 0))
                         for reason in DEGRADED_REASONS})
    if lost:
        raise WorkerDied([configs[i] for i in sorted(lost)])
    return outcome
