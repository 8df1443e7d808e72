"""Job queue + execution engine behind ``repro serve``.

The service side of the sweep engine: many clients submit
(benchmark, size, device) cells; the engine turns each into a
:class:`~repro.harness.runner.RunConfig`, keys it with the same
content address the :class:`~repro.harness.sweep.SweepCache` uses, and
drives a bounded process pool.  Three properties the batch engine does
not need, this one does:

* **In-flight deduplication** — N concurrent requests for the same
  cell key collapse onto one :class:`Job`; every subscriber gets the
  (bit-identical) answer when the single computation lands.  Dedup is
  by ``cell_key``, so it composes with the result cache: a cell is
  computed at most once *ever*, and concurrently requested at most
  once *at a time*.
* **Backpressure** — the pending queue is bounded; a submit beyond the
  bound raises :class:`QueueFull` carrying a ``retry_after`` estimate
  (current depth x observed mean cell latency), which the server
  surfaces as a ``rejected`` record instead of letting the queue grow
  without bound.
* **Priority + LPT dispatch** — each dispatch picks the
  highest-priority pending job; ties break longest-modeled-first via
  :func:`repro.scheduling.sweep_execution_order`, the same makespan
  heuristic the batch sweep uses.

Submit rejects a size the benchmark has no preset for, and
:func:`expand_matrix` skips such cells, as ``run all`` does.

What happens to a cell once its key is known is the batch engine's
(:mod:`repro.harness.sweep`): the same module-level ``_compute_cell``
worker (so a served result is bit-identical to ``run_matrix`` output;
per-cell seeds are process-stable), ``adopt_cell`` to fold the reply
in under a completion-time ``service_job`` span, and ``count_cell``
for the ``sweep_cells_*`` counters and ``cell_*`` run-log records.  On
top of that the engine maintains the service instruments —
``service_queue_depth`` / ``service_jobs_inflight`` gauges,
``service_requests_total`` / ``service_dedup_hits_total`` /
``service_cache_hits_total`` counters and the
``service_cell_latency_seconds`` histogram.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..harness.runner import DEFAULT_SAMPLES, RunConfig
from ..harness.sweep import (
    SweepCache,
    _compute_cell,
    adopt_cell,
    cell_key,
    count_cell,
    result_from_payload,
    result_to_payload,
)
from ..telemetry.metrics import default_registry
from ..telemetry.runlog import get_default_runlog
from ..telemetry.tracer import get_tracer

#: Job lifecycle states.
PENDING, RUNNING, DONE, FAILED, CANCELLED = (
    "pending", "running", "done", "failed", "cancelled")

#: Default bound on the pending queue (per server instance).
DEFAULT_QUEUE_LIMIT = 64

#: retry_after floor when no latency has been observed yet.
_MIN_RETRY_AFTER_S = 1.0


class QueueFull(RuntimeError):
    """The pending queue is at its bound; retry after ``retry_after_s``."""

    def __init__(self, depth: int, limit: int, retry_after_s: float):
        super().__init__(
            f"queue full ({depth}/{limit} pending); "
            f"retry in ~{retry_after_s:.1f}s")
        self.depth = depth
        self.limit = limit
        self.retry_after_s = retry_after_s


@dataclass
class Job:
    """One deduplicated unit of service work (possibly many subscribers)."""

    job_id: int
    config: RunConfig
    key: str
    priority: int = 0
    state: str = PENDING
    subscribers: set = field(default_factory=set)
    future: asyncio.Future = None  # resolves to a result payload dict
    submitted_s: float = 0.0
    cached: bool = False
    elapsed_s: float = 0.0

    def summary(self) -> dict:
        """JSON-safe job description (for the job log / board)."""
        return {
            "job_id": self.job_id,
            "benchmark": self.config.benchmark,
            "size": self.config.size,
            "device": self.config.device,
            "key": self.key,
            "priority": self.priority,
            "state": self.state,
            "cached": self.cached,
            "elapsed_s": round(self.elapsed_s, 6),
            "subscribers": len(self.subscribers),
        }


def expand_matrix(benchmarks=None, sizes=None, devices=None,
                  ) -> list[tuple[str, str, str]]:
    """A ``submit_matrix`` request's cell list (``None`` = every one).

    Like ``run all``, a benchmark is crossed only with the sizes it has
    a preset for.  Unknown names pass through for
    :meth:`ServiceEngine.submit` to reject.
    """
    from ..devices.catalog import device_names
    from ..dwarfs.base import SIZES
    from ..dwarfs.registry import BENCHMARKS

    benchmarks = list(benchmarks) if benchmarks else sorted(BENCHMARKS)
    sizes = list(sizes) if sizes else list(SIZES)
    devices = list(devices) if devices else list(device_names())
    return [(b, s, d) for b in benchmarks for s in sizes
            if b not in BENCHMARKS or s not in SIZES
            or s in BENCHMARKS[b].available_sizes()
            for d in devices]


class ServiceEngine:
    """Asyncio-side scheduler over the sweep process pool.

    One engine per server.  All public methods must be called from the
    event-loop thread; the blocking pieces (cache I/O, cell
    measurement) run in executors.
    """

    def __init__(
        self,
        cache: SweepCache | None = None,
        jobs: int | None = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        execute: bool = False,
        registry=None,
        runlog=None,
    ):
        import os
        self.cache = cache
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.queue_limit = max(1, queue_limit)
        self.execute = execute
        self.registry = registry if registry is not None else (
            default_registry())
        self.runlog = runlog if runlog is not None else get_default_runlog()

        self._pool: ProcessPoolExecutor | None = None
        self._dispatcher: asyncio.Task | None = None
        self._tasks: set[asyncio.Task] = set()
        self._running = False
        # loop-lazy (3.10+): safe to create off-loop, bind on first await
        self._wakeup = asyncio.Event()
        self._slots = asyncio.Semaphore(self.jobs)
        self._pending: list[Job] = []
        self._by_key: dict[str, Job] = {}
        self._jobs: dict[int, Job] = {}
        self._next_id = 1

        reg = self.registry
        self._requests = reg.counter(
            "service_requests_total", "Service requests accepted, by type")
        self._dedup_hits = reg.counter(
            "service_dedup_hits_total",
            "Submits that joined an already in-flight job")
        self._cache_hits = reg.counter(
            "service_cache_hits_total",
            "Served jobs resolved from the result cache")
        self._queue_depth = reg.gauge(
            "service_queue_depth", "Jobs waiting for a worker slot")
        self._inflight = reg.gauge(
            "service_jobs_inflight", "Jobs currently occupying a worker slot")
        self._latency = reg.bucket_histogram(
            "service_cell_latency_seconds",
            "Submit-to-result latency per served job")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Create the pool and the dispatcher (idempotent)."""
        if self._running:
            return
        self._running = True
        self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        if self._pending:
            self._wakeup.set()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="service-dispatcher")

    async def stop(self) -> None:
        """Drain: stop dispatching, cancel the pending, await the running."""
        if not self._running:
            return
        self._running = False
        self._wakeup.set()
        await self._dispatcher
        for job in list(self._pending):
            self._resolve_cancelled(job)
        self._pending.clear()
        self._queue_depth.set(0)
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._pool.shutdown(wait=True)
        self._pool = None

    # ------------------------------------------------------------------
    # Submission / cancellation (event-loop thread only)
    # ------------------------------------------------------------------
    def submit(
        self,
        benchmark: str,
        size: str,
        device: str,
        subscriber,
        priority: int = 0,
        samples: int = DEFAULT_SAMPLES,
        seed: int = 12345,
        execute: bool | None = None,
    ) -> tuple[Job, bool]:
        """Queue one cell (or join its in-flight job).

        Returns ``(job, deduped)``.  Raises :class:`QueueFull` under
        backpressure, ``ValueError`` for an unknown benchmark or size
        or a size the benchmark has no preset for, and ``KeyError``
        for an unknown device.
        """
        config = self._validated_config(benchmark, size, device,
                                        samples=samples, seed=seed,
                                        execute=execute)
        key = cell_key(config)
        self._requests.inc(type="submit")

        existing = self._by_key.get(key)
        if existing is not None and existing.state in (PENDING, RUNNING):
            existing.subscribers.add(subscriber)
            existing.priority = max(existing.priority, priority)
            self._dedup_hits.inc()
            if self.runlog is not None:
                self.runlog.write("job_deduped", job_id=existing.job_id,
                                  key=key, subscribers=len(
                                      existing.subscribers))
            return existing, True

        depth = len(self._pending)
        if depth >= self.queue_limit:
            raise QueueFull(depth, self.queue_limit, self._retry_after(depth))

        job = Job(job_id=self._next_id, config=config, key=key,
                  priority=priority, submitted_s=time.perf_counter(),
                  future=asyncio.get_running_loop().create_future())
        self._next_id += 1
        job.subscribers.add(subscriber)
        self._jobs[job.job_id] = job
        self._by_key[key] = job
        self._pending.append(job)
        self._queue_depth.set(len(self._pending))
        if self.runlog is not None:
            self.runlog.write("job_submitted", **job.summary())
        self._wakeup.set()
        return job, False

    def cancel(self, job_id: int, subscriber) -> str:
        """Withdraw one subscriber's interest; returns the outcome.

        ``"cancelled"`` — the job was pending with no other subscriber
        and has been dropped.  ``"detached"`` — others still want it.
        ``"running"`` — too late: a running job always completes (and
        caches), the caller just stops listening.  ``"done"`` /
        ``"unknown"`` are what they sound like.
        """
        job = self._jobs.get(job_id)
        if job is None:
            return "unknown"
        job.subscribers.discard(subscriber)
        if job.state in (DONE, FAILED, CANCELLED):
            return "done"
        if job.subscribers:
            return "detached"
        if job.state == PENDING:
            if job in self._pending:
                self._pending.remove(job)
            self._queue_depth.set(len(self._pending))
            self._resolve_cancelled(job)
            return "cancelled"
        return "running"

    def detach_all(self, subscriber) -> int:
        """Drop ``subscriber`` from every job (client disconnected)."""
        dropped = 0
        for job in list(self._jobs.values()):
            if subscriber in job.subscribers:
                self.cancel(job.job_id, subscriber)
                dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validated_config(self, benchmark, size, device, *, samples, seed,
                          execute) -> RunConfig:
        from ..devices.catalog import get_device
        from ..dwarfs.base import SIZES
        from ..dwarfs.registry import BENCHMARKS, get_benchmark

        if benchmark not in BENCHMARKS:
            raise ValueError(f"unknown benchmark {benchmark!r} "
                             f"(one of {sorted(BENCHMARKS)})")
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r} (one of {list(SIZES)})")
        offered = get_benchmark(benchmark).available_sizes()
        if size not in offered:
            raise ValueError(f"{benchmark} has no {size!r} problem size "
                             f"(valid: {', '.join(offered)})")
        get_device(device)  # raises KeyError with the catalog listing
        execute = self.execute if execute is None else bool(execute)
        return RunConfig(benchmark=benchmark, size=size, device=device,
                         samples=int(samples), execute=execute,
                         validate=execute, seed=int(seed))

    def _retry_after(self, depth: int) -> float:
        # depth x observed mean latency; floor when nothing has finished
        n = self._latency.total_count
        mean = (self._latency.sum() / n) if n else 0.0
        return max(_MIN_RETRY_AFTER_S, depth * mean)

    def _resolve_cancelled(self, job: Job) -> None:
        job.state = CANCELLED
        self._by_key.pop(job.key, None)
        if not job.future.done():
            job.future.set_result(None)
        if self.runlog is not None:
            self.runlog.write("job_cancelled", job_id=job.job_id,
                              key=job.key)

    def _pop_next(self) -> Job | None:
        """Highest priority first; LPT (modeled-longest) among ties."""
        from ..scheduling import sweep_execution_order

        if not self._pending:
            return None
        top = max(job.priority for job in self._pending)
        group = [job for job in self._pending if job.priority == top]
        order = sweep_execution_order([job.config for job in group])
        job = group[order[0]]
        self._pending.remove(job)
        self._queue_depth.set(len(self._pending))
        return job

    async def _dispatch_loop(self) -> None:
        while self._running:
            if not self._pending:
                await self._wakeup.wait()
                self._wakeup.clear()
                continue
            await self._slots.acquire()
            job = self._pop_next()  # re-check: the await may have raced
            if job is None or not self._running:
                self._slots.release()
                if job is not None:
                    self._pending.append(job)
                continue
            task = asyncio.create_task(self._run_job(job),
                                       name=f"service-job-{job.job_id}")
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_job(self, job: Job) -> None:
        """One slot's worth of work; the semaphore is already held."""
        loop = asyncio.get_running_loop()
        tracer = get_tracer()
        config = job.config
        attrs = dict(phase="sweep", benchmark=config.benchmark,
                     size=config.size, device=config.device,
                     job_id=job.job_id, key=job.key)
        job.state = RUNNING
        try:
            with self._inflight.track_inprogress():
                hit = None
                if self.cache is not None:
                    hit = await loop.run_in_executor(
                        None, self.cache.get, job.key)
                if hit is not None:
                    payload = result_to_payload(hit)
                    self._cache_hits.inc()
                    with tracer.span("service_job", **attrs, cached=True):
                        pass
                else:
                    reply = await loop.run_in_executor(
                        self._pool, _compute_cell, config,
                        tracer.propagation_context())
                    # back on the loop thread: adopt opens, grafts and
                    # closes the job span with no await in between (the
                    # loop thread's span stack is shared across tasks)
                    payload = adopt_cell(reply, self.runlog, self.registry,
                                         "service_job", **attrs,
                                         cached=False)
                    if self.cache is not None:
                        await loop.run_in_executor(
                            None, self.cache.put, job.key, config,
                            result_from_payload(payload))
                count_cell(self.registry, self.runlog, config, job.key,
                           cached=hit is not None)
                self._finish(job, payload, cached=hit is not None)
        except Exception as exc:  # surface to every subscriber
            job.state = FAILED
            self._by_key.pop(job.key, None)
            if not job.future.done():
                job.future.set_exception(exc)
            if self.runlog is not None:
                self.runlog.write("job_failed", job_id=job.job_id,
                                  key=job.key, error=str(exc))
        finally:
            self._slots.release()
            self._wakeup.set()

    def _finish(self, job: Job, payload: dict, cached: bool) -> None:
        job.state = DONE
        job.cached = cached
        job.elapsed_s = time.perf_counter() - job.submitted_s
        self._by_key.pop(job.key, None)
        self._latency.observe(job.elapsed_s)
        if not job.future.done():
            job.future.set_result(payload)
        if self.runlog is not None:
            self.runlog.write("job_done", **job.summary())
