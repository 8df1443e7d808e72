"""Job queue + execution engine behind ``repro serve``.

The service side of the sweep engine: many clients submit
(benchmark, size, device) cells; the engine turns each into a
:class:`~repro.harness.runner.RunConfig`, keys it with the same
content address the :class:`~repro.harness.sweep.SweepCache` uses, and
drives the sweep engine's :class:`~repro.harness.sweep.CellPool`.
Three properties the batch engine does not need, this one does:

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
* **Priority, then FIFO** — each dispatch picks the highest-priority
  pending job; ties go in submission order, as the batch sweep
  dispatches its cells.

Submit rejects a size the benchmark has no preset for, and
:func:`~repro.harness.runner.expand_matrix` skips such cells, as
``run all`` does.

What happens to a cell once its key is known is the batch engine's
(:mod:`repro.harness.sweep`): the same ``CellPool`` over the
``_compute_cell`` worker (so a served result is bit-identical to
``run_matrix`` output; per-cell seeds are process-stable),
``adopt_cell`` to fold the reply in under a completion-time
``service_job`` span, and ``count_cell`` for the ``sweep_cells_*``
counters and ``cell_*`` run-log records.  On top of that the engine
maintains the service instruments —
``service_queue_depth`` / ``service_jobs_inflight`` gauges,
``service_requests_total`` / ``service_dedup_hits_total`` /
``service_cache_hits_total`` counters and the
``service_cell_latency_seconds`` histogram.

A worker that dies mid-cell (OOM-killed, say) fails the jobs in flight
on the pool with :class:`~repro.harness.sweep.WorkerDied`; the pool
swaps in fresh workers (counted in ``sweep_worker_restarts_total``),
so later jobs compute again without a server restart.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from ..harness.runner import DEFAULT_SAMPLES, RunConfig
from ..harness.sweep import (
    CellPool,
    SweepCache,
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

        self._pool: CellPool | None = None
        self._tasks: set[asyncio.Task] = set()  # one per busy worker slot
        self._running = False
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
        """Create the pool and start the queued jobs (idempotent)."""
        if self._running:
            return
        self._running = True
        self._pool = CellPool(self.jobs, self.registry)
        self._dispatch()

    async def stop(self) -> None:
        """Drain: stop dispatching, cancel the pending, await the running."""
        if not self._running:
            return
        self._running = False
        for job in list(self._pending):
            self._resolve_cancelled(job)
        self._pending.clear()
        self._queue_depth.set(0)
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._pool.close()
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
        # after this batch of submits: the best of them starts first
        asyncio.get_running_loop().call_soon(self._dispatch)
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
        if job.state == PENDING:  # dispatch marks a job RUNNING
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

    def _dispatch(self) -> None:
        """Fill free worker slots: highest priority first, then FIFO."""
        while (self._running and self._pending
               and len(self._tasks) < self.jobs):
            job = max(self._pending, key=lambda job: job.priority)
            self._pending.remove(job)
            self._queue_depth.set(len(self._pending))
            job.state = RUNNING
            task = asyncio.create_task(self._run_job(job),
                                       name=f"service-job-{job.job_id}")
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
            task.add_done_callback(lambda _task: self._dispatch())

    async def _run_job(self, job: Job) -> None:
        """One slot's worth of work, started by :meth:`_dispatch`."""
        tracer = get_tracer()
        config = job.config
        attrs = dict(phase="sweep", benchmark=config.benchmark,
                     size=config.size, device=config.device,
                     job_id=job.job_id, key=job.key)
        try:
            with self._inflight.track_inprogress():
                hit = None
                if self.cache is not None:
                    hit = await asyncio.to_thread(self.cache.get, job.key)
                if hit is not None:
                    payload = result_to_payload(hit)
                    self._cache_hits.inc()
                    with tracer.span("service_job", **attrs, cached=True):
                        pass
                else:
                    reply = await asyncio.wrap_future(self._pool.submit(
                        config, tracer.propagation_context()))
                    # back on the loop thread: adopt opens, grafts and
                    # closes the job span with no await in between (the
                    # loop thread's span stack is shared across tasks)
                    payload = adopt_cell(reply, self.runlog, self.registry,
                                         "service_job", **attrs,
                                         cached=False)
                    if self.cache is not None:
                        await asyncio.to_thread(
                            self.cache.put, job.key, config,
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
