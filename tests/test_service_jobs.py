"""ServiceEngine semantics: dedup, cancellation, backpressure, telemetry."""

import asyncio
import importlib
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.harness.runner import expand_matrix, run_matrix
from repro.harness.sweep import SweepCache
from repro.service.jobs import (
    CANCELLED,
    FAILED,
    PENDING,
    QueueFull,
    ServiceEngine,
)
from repro.telemetry.metrics import MetricsRegistry

DEVICE = "i7-6700K"
SAMPLES = 4


def _engine(**kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    engine = ServiceEngine(**kwargs)
    engine.runlog = None  # keep tests independent of the global runlog
    return engine


class TestDedup:
    def test_concurrent_identical_submits_compute_once(self, tmp_path):
        """The acceptance cell: N concurrent submits for one cell key
        collapse to one computation, and every subscriber's payload is
        bit-identical to the serial run_matrix answer."""
        registry = MetricsRegistry()

        async def main():
            engine = _engine(jobs=2, registry=registry,
                             cache=SweepCache(tmp_path))
            jobs, deduped = [], []
            for subscriber in (1, 2, 3):
                job, dup = engine.submit(
                    "fft", "tiny", DEVICE, subscriber,
                    samples=SAMPLES)
                jobs.append(job)
                deduped.append(dup)
            await engine.start()
            payloads = await asyncio.gather(*[j.future for j in jobs])
            await engine.stop()
            return jobs, deduped, payloads

        jobs, deduped, payloads = asyncio.run(main())
        assert deduped == [False, True, True]
        assert jobs[0] is jobs[1] is jobs[2]
        assert registry.counter("sweep_cells_computed_total").value() == 1
        assert registry.counter("service_dedup_hits_total").value() == 2
        assert registry.counter("service_requests_total").value(
            type="submit") == 3
        # all three subscribers see the same payload object/value
        assert payloads[0] == payloads[1] == payloads[2]

        serial = run_matrix("fft", sizes=["tiny"], devices=[DEVICE],
                            samples=SAMPLES, jobs=1)[0]
        np.testing.assert_array_equal(
            np.asarray(payloads[0]["times_s"]), serial.times_s)
        np.testing.assert_array_equal(
            np.asarray(payloads[0]["energies_j"]), serial.energies_j)

    def test_distinct_cells_not_deduped(self):
        async def main():
            engine = _engine(jobs=1)
            j1, d1 = engine.submit("fft", "tiny", DEVICE, 1,
                                   samples=SAMPLES)
            j2, d2 = engine.submit("fft", "small", DEVICE, 1,
                                   samples=SAMPLES)
            return j1, d1, j2, d2

        j1, d1, j2, d2 = asyncio.run(main())
        assert not d1 and not d2
        assert j1.key != j2.key

    def test_completed_job_not_joined(self, tmp_path):
        """Dedup is in-flight only: a finished job's key goes back to
        the cache, not to the dead Job object."""
        registry = MetricsRegistry()

        async def main():
            engine = _engine(jobs=1, registry=registry,
                             cache=SweepCache(tmp_path))
            job, _ = engine.submit("fft", "tiny", DEVICE, 1,
                                   samples=SAMPLES)
            await engine.start()
            await job.future
            job2, dup = engine.submit("fft", "tiny", DEVICE, 2,
                                      samples=SAMPLES)
            payload2 = await job2.future
            await engine.stop()
            return job, job2, dup

        job, job2, dup = asyncio.run(main())
        assert not dup and job2 is not job
        assert job2.cached is True
        assert registry.counter("sweep_cells_computed_total").value() == 1
        assert registry.counter("service_cache_hits_total").value() == 1


def _killed_worker(config, trace_ctx=None):
    """Stands in for ``_compute_cell``: the worker dies as if OOM-killed."""
    os.kill(os.getpid(), signal.SIGKILL)


class TestDeadWorker:
    def test_pool_is_replaced_after_a_worker_dies(self, monkeypatch):
        async def clean_run():
            engine = _engine(jobs=1)
            job, _ = engine.submit("fft", "tiny", DEVICE, 1, samples=SAMPLES)
            await engine.start()
            payload = await job.future
            await engine.stop()
            return payload

        registry = MetricsRegistry()

        async def main():
            engine = _engine(jobs=1, registry=registry)
            await engine.start()
            # ``repro.harness.sweep`` the attribute is the legacy
            # function of that name, not the module
            monkeypatch.setattr(importlib.import_module("repro.harness.sweep"),
                                "_compute_cell", _killed_worker)
            doomed, _ = engine.submit("crc", "tiny", DEVICE, 1,
                                      samples=SAMPLES)
            with pytest.raises(BrokenProcessPool):
                await doomed.future
            monkeypatch.undo()
            job, _ = engine.submit("fft", "tiny", DEVICE, 1, samples=SAMPLES)
            payload = await job.future
            await engine.stop()
            return doomed, payload

        doomed, payload = asyncio.run(main())
        assert doomed.state == FAILED
        assert payload == asyncio.run(clean_run())
        assert registry.counter("sweep_worker_restarts_total").value() == 1


class TestCancellation:
    def test_sole_subscriber_cancel_drops_pending_job(self):
        async def main():
            engine = _engine(jobs=1)  # never started: job stays pending
            job, _ = engine.submit("fft", "tiny", DEVICE, 1,
                                   samples=SAMPLES)
            status = engine.cancel(job.job_id, 1)
            return job, status, await job.future

        job, status, payload = asyncio.run(main())
        assert status == "cancelled"
        assert job.state == CANCELLED
        assert payload is None

    def test_cancel_does_not_kill_shared_job(self):
        """One subscriber bailing must not starve the other."""
        async def main():
            engine = _engine(jobs=1)
            job, _ = engine.submit("fft", "tiny", DEVICE, 1,
                                   samples=SAMPLES)
            job2, dup = engine.submit("fft", "tiny", DEVICE, 2,
                                      samples=SAMPLES)
            assert dup and job2 is job
            status = engine.cancel(job.job_id, 1)
            assert status == "detached"
            assert job.state == PENDING
            await engine.start()
            payload = await job.future
            await engine.stop()
            return payload

        payload = asyncio.run(main())
        assert payload is not None and "times_s" in payload

    def test_cancel_running_job_completes_anyway(self, tmp_path):
        """Too late to cancel: a dispatched job always completes and
        caches (the next requester gets a hit, not a recompute)."""
        cache = SweepCache(tmp_path)

        async def main():
            engine = _engine(jobs=1, cache=cache)
            job, _ = engine.submit("fft", "tiny", DEVICE, 1,
                                   samples=SAMPLES)
            await engine.start()
            while job.state == PENDING:  # wait for dispatch
                await asyncio.sleep(0.001)
            status = engine.cancel(job.job_id, 1)
            await job.future
            await engine.stop()
            return job, status

        job, status = asyncio.run(main())
        assert status in ("running", "done")
        assert job.state == "done"
        assert len(cache) == 1  # the result landed despite the cancel

    def test_cancel_unknown_job(self):
        async def main():
            return _engine(jobs=1).cancel(999, 1)

        assert asyncio.run(main()) == "unknown"


class TestBackpressure:
    def test_queue_full_raises_with_retry_after(self):
        async def main():
            engine = _engine(jobs=1, queue_limit=2)  # not started
            engine.submit("fft", "tiny", DEVICE, 1, samples=SAMPLES)
            engine.submit("fft", "small", DEVICE, 1, samples=SAMPLES)
            with pytest.raises(QueueFull) as excinfo:
                engine.submit("fft", "large", DEVICE, 1, samples=SAMPLES)
            return engine, excinfo.value

        engine, exc = asyncio.run(main())
        assert exc.retry_after_s >= 1.0
        assert exc.depth == 2 and exc.limit == 2
        assert engine.registry.gauge("service_queue_depth").value() == 2

    def test_dedup_bypasses_the_bound(self):
        """Joining an in-flight job adds no queue entry, so it must
        succeed even when the queue is full."""
        async def main():
            engine = _engine(jobs=1, queue_limit=1)
            job, _ = engine.submit("fft", "tiny", DEVICE, 1,
                                   samples=SAMPLES)
            job2, dup = engine.submit("fft", "tiny", DEVICE, 2,
                                      samples=SAMPLES)
            return job, job2, dup

        job, job2, dup = asyncio.run(main())
        assert dup and job2 is job


class TestValidation:
    def test_unknown_benchmark_size_device(self):
        async def main():
            engine = _engine(jobs=1)
            with pytest.raises(ValueError, match="unknown benchmark"):
                engine.submit("nope", "tiny", DEVICE, 1)
            with pytest.raises(ValueError, match="unknown size"):
                engine.submit("fft", "nope", DEVICE, 1)
            with pytest.raises(KeyError):
                engine.submit("fft", "tiny", "not-a-device", 1)

        asyncio.run(main())

    def test_size_without_a_preset_is_rejected_at_submit(self):
        """nqueens has only a tiny preset: asking for it at small must
        fail at submit, not be queued and then fail in the worker."""
        async def main():
            engine = _engine(jobs=1)
            with pytest.raises(ValueError, match="nqueens has no 'small'"):
                engine.submit("nqueens", "small", DEVICE, 1)
            assert not engine._pending and not engine._jobs

        asyncio.run(main())


class TestExpandMatrix:
    def test_explicit_cells(self):
        cells = expand_matrix(["fft"], ["tiny", "small"], [DEVICE])
        assert cells == [("fft", "tiny", DEVICE), ("fft", "small", DEVICE)]

    def test_sizes_without_a_preset_are_skipped(self):
        cells = expand_matrix(["fft", "nqueens"], ["tiny", "small"], [DEVICE])
        assert cells == [("fft", "tiny", DEVICE), ("fft", "small", DEVICE),
                         ("nqueens", "tiny", DEVICE)]
        # unknown names pass through for submit to reject
        assert expand_matrix(["nope"], ["huge"], [DEVICE]) == [
            ("nope", "huge", DEVICE)]

    def test_defaults_cover_everything(self):
        """Every benchmark at every size it has a preset for, like
        ``run all``: 41 (benchmark, size) pairs x 15 devices."""
        from repro.devices.catalog import device_names
        from repro.dwarfs.registry import BENCHMARKS

        cells = expand_matrix()
        pairs = sum(len(cls.available_sizes()) for cls in BENCHMARKS.values())
        assert len(cells) == pairs * len(device_names()) == 615


class TestServedTraceCoherence:
    def test_served_matrix_yields_one_coherent_trace(self):
        """The trace acceptance test: a tiny matrix served with two
        workers produces ONE trace — every span shares the parent's
        trace id, worker spans are grafted under completion-time
        ``service_job`` spans, and >=90% of the extent is attributed
        to named phases."""
        from repro.telemetry.profile import phase_summary
        from repro.telemetry.tracer import Tracer, set_tracer

        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            async def main():
                engine = _engine(jobs=2)
                cells = [("fft", "tiny"), ("csr", "tiny"),
                         ("dwt", "tiny"), ("gem", "tiny")]
                jobs = [
                    engine.submit(b, s, DEVICE, 1, samples=SAMPLES)[0]
                    for b, s in cells
                ]
                await engine.start()
                await asyncio.gather(*[j.future for j in jobs])
                await engine.stop()

            asyncio.run(main())
        finally:
            set_tracer(previous)

        spans = tracer.to_dicts()
        assert spans
        assert {s["trace_id"] for s in spans} == {tracer.trace_id}
        job_spans = [s for s in spans if s["name"] == "service_job"]
        assert len(job_spans) == 4
        worker_pids = {
            s["attributes"].get("worker_pid") for s in spans
            if "worker_pid" in s.get("attributes", {})
        }
        assert worker_pids, "no worker spans were grafted"
        job_ids = {s["span_id"] for s in job_spans}
        assert any(s.get("parent_id") in job_ids for s in spans), (
            "worker spans are not parented under service_job spans")
        summary = phase_summary(spans)
        assert summary.attributed_fraction >= 0.9

    def test_service_metrics_exposed(self):
        """The instrument set the ISSUE names, in one exposition."""
        registry = MetricsRegistry()

        async def main():
            engine = _engine(jobs=1, registry=registry)
            job, _ = engine.submit("fft", "tiny", DEVICE, 1,
                                   samples=SAMPLES)
            await engine.start()
            await job.future
            await engine.stop()

        asyncio.run(main())
        text = registry.expose()
        for name in ("service_queue_depth", "service_jobs_inflight",
                     "service_requests_total",
                     "service_dedup_hits_total",
                     "service_cell_latency_seconds"):
            assert name in text, f"{name} missing from exposition"
        assert registry.gauge("service_jobs_inflight").value() == 0.0


class TestGaugeTrackInprogress:
    def test_track_inprogress_balanced(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight")
        with gauge.track_inprogress():
            assert gauge.value() == 1.0
            with gauge.track_inprogress():
                assert gauge.value() == 2.0
        assert gauge.value() == 0.0

    def test_track_inprogress_survives_exceptions(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight")
        with pytest.raises(RuntimeError):
            with gauge.track_inprogress(kind="x"):
                raise RuntimeError("boom")
        assert gauge.value(kind="x") == 0.0

    def test_gauge_snapshot_merge_parity(self):
        """A gauge round-tripped through snapshot/merge_snapshot is
        value-identical, and merge is last-writer-wins."""
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth").set(7.0)
        a.gauge("depth").set(3.0, queue="svc")
        b.gauge("depth").set(99.0)
        b.merge_snapshot(a.snapshot())
        assert b.gauge("depth").value() == 7.0  # last writer wins
        assert b.gauge("depth").value(queue="svc") == 3.0
        assert a.snapshot()["depth"] == b.snapshot()["depth"]
