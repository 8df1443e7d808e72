"""BenchService end-to-end over TCP: protocol, streaming, topology."""

import asyncio
import contextlib
import threading
import time

import numpy as np
import pytest

from repro.harness.runner import run_matrix
from repro.harness.sweep import SweepCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import ServiceEngine
from repro.service.server import BenchService, run_service
from repro.telemetry.metrics import MetricsRegistry

DEVICE = "i7-6700K"
SAMPLES = 4


@contextlib.contextmanager
def service_running(**kwargs):
    """A BenchService on an ephemeral port, in a background thread."""
    kwargs.setdefault("registry", MetricsRegistry())
    started = threading.Event()
    holder = {}

    def runner():
        async def main():
            service = BenchService(host="127.0.0.1", port=0, **kwargs)
            if service.engine is not None:
                service.engine.runlog = None
            holder["service"] = service
            holder["loop"] = asyncio.get_running_loop()
            ready = asyncio.Event()
            task = asyncio.create_task(
                run_service(service, ready_event=ready))
            await ready.wait()
            started.set()
            await task

        asyncio.run(main())

    thread = threading.Thread(target=runner, name="service_running", daemon=True)
    thread.start()
    assert started.wait(timeout=60), "service did not start"
    try:
        yield holder["service"]
    finally:
        # A client-sent shutdown may already have drained the server and
        # closed its loop; the loop can also close between the check and
        # the call.
        loop = holder["loop"]
        if not loop.is_closed():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(holder["service"].request_shutdown)
        thread.join(timeout=60)
        assert not thread.is_alive(), "service did not drain"


class TestProtocolBasics:
    def test_hello_ping_metrics(self):
        with service_running(jobs=1) as service:
            with ServiceClient("127.0.0.1", service.port) as client:
                assert client.hello["type"] == "hello"
                assert client.hello["mode"] == "full"
                assert client.ping()["type"] == "pong"
                text = client.metrics_text()
                assert "service_queue_depth" in text
                assert "service_requests_total" in text

    def test_bad_records_answered_not_fatal(self):
        with service_running(jobs=1) as service:
            with ServiceClient("127.0.0.1", service.port) as client:
                client.stream.write(b"this is not json\n")
                client.stream.flush()
                assert client.read()["type"] == "error"
                client.send({"type": "launch_missiles"})
                assert "unknown request type" in client.read()["error"]
                client.send({"type": "submit"})  # missing fields
                assert "requires" in client.read()["error"]
                assert client.ping()["type"] == "pong"  # still alive

    def test_unknown_cell_is_an_error(self):
        with service_running(jobs=1) as service:
            with ServiceClient("127.0.0.1", service.port) as client:
                with pytest.raises(ServiceError, match="unknown benchmark"):
                    client.run_cell("nope", "tiny", DEVICE)


class TestServedResults:
    def test_submit_streams_result(self, tmp_path):
        registry = MetricsRegistry()
        with service_running(jobs=1, registry=registry,
                             cache=SweepCache(tmp_path)) as service:
            with ServiceClient("127.0.0.1", service.port) as client:
                record = client.run_cell("fft", "tiny", DEVICE,
                                         samples=SAMPLES)
        assert record["status"] == "done"
        assert record["cached"] is False
        serial = run_matrix("fft", sizes=["tiny"], devices=[DEVICE],
                            samples=SAMPLES, jobs=1)[0]
        np.testing.assert_array_equal(
            np.asarray(record["result"]["times_s"]), serial.times_s)

    def test_three_concurrent_clients_one_computation(self, tmp_path):
        """The dedup acceptance test, over real sockets: three clients
        race the same cell; the cell is computed exactly once and all
        three get bit-identical payloads."""
        registry = MetricsRegistry()
        barrier = threading.Barrier(3, timeout=60)
        outputs = {}

        def one_client(tag, port):
            with ServiceClient("127.0.0.1", port) as client:
                barrier.wait()
                outputs[tag] = client.run_cell(
                    "fft", "small", DEVICE, samples=SAMPLES)

        with service_running(jobs=2, registry=registry,
                             cache=SweepCache(tmp_path)) as service:
            threads = [
                threading.Thread(target=one_client, args=(i, service.port))
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert sorted(outputs) == [0, 1, 2]
        payloads = [outputs[i]["result"] for i in range(3)]
        assert payloads[0] == payloads[1] == payloads[2]
        # exactly one computation: dedup and/or cache absorbed the rest
        assert registry.counter("sweep_cells_computed_total").value() == 1
        dedup = registry.counter("service_dedup_hits_total").value()
        cache_hits = registry.counter("service_cache_hits_total").value()
        assert dedup + cache_hits == 2
        serial = run_matrix("fft", sizes=["small"], devices=[DEVICE],
                            samples=SAMPLES, jobs=1)[0]
        np.testing.assert_array_equal(
            np.asarray(payloads[0]["times_s"]), serial.times_s)

    def test_submit_matrix_streams_every_cell(self):
        with service_running(jobs=2) as service:
            with ServiceClient("127.0.0.1", service.port) as client:
                ack = client.submit_matrix(
                    benchmarks=["fft", "csr"], sizes=["tiny"],
                    devices=[DEVICE], samples=SAMPLES)
                assert ack["type"] == "ack"
                assert len(ack["job_ids"]) == 2
                records = client.results(2)
        keys = {r["key"] for r in records}
        assert keys == set(ack["keys"])
        assert all(r["status"] == "done" for r in records)

    def test_queue_full_rejected_with_retry_after(self, monkeypatch):
        """With the engine stalled, the queue bound turns the second
        distinct submit into a `rejected` record."""
        async def stalled_start(self):
            return None

        monkeypatch.setattr(ServiceEngine, "start", stalled_start)
        with service_running(jobs=1, queue_limit=1) as service:
            with ServiceClient("127.0.0.1", service.port) as client:
                ack = client.submit("fft", "tiny", DEVICE, samples=SAMPLES)
                assert ack["type"] == "ack"
                rejected = client.submit("fft", "small", DEVICE,
                                         samples=SAMPLES)
                assert rejected["type"] == "rejected"
                assert rejected["retry_after"] >= 1.0

    def test_cancel_over_the_wire(self, monkeypatch):
        async def stalled_start(self):
            return None

        monkeypatch.setattr(ServiceEngine, "start", stalled_start)
        with service_running(jobs=1) as service:
            with ServiceClient("127.0.0.1", service.port) as client:
                ack = client.submit("fft", "tiny", DEVICE, samples=SAMPLES)
                job_id = ack["job_ids"][0]
                cancelled = client.cancel(job_id)
                assert cancelled["status"] == "cancelled"


class TestCacheTopology:
    def test_remote_workers_share_one_store(self, tmp_path):
        """The shared-store acceptance test: a cache-only hub; worker A
        computes through it; worker B gets pure hits (0 recomputes)."""
        from repro.harness.sweep import run_sweep
        from repro.harness.runner import RunConfig

        hub_store = tmp_path / "hub"
        with service_running(cache_only=True,
                             cache=SweepCache(hub_store)) as service:
            spec = f"remote://127.0.0.1:{service.port}"
            configs = [RunConfig("fft", "tiny", DEVICE, samples=SAMPLES),
                       RunConfig("csr", "tiny", DEVICE, samples=SAMPLES)]
            with contextlib.closing(SweepCache(spec)) as worker_a:
                a = run_sweep(configs, jobs=1, cache=worker_a)
            assert (a.computed, a.cached) == (2, 0)
            with contextlib.closing(SweepCache(spec)) as worker_b:
                b = run_sweep(configs, jobs=1, cache=worker_b)
            assert (b.computed, b.cached) == (0, 2)
            for ra, rb in zip(a.results, b.results):
                np.testing.assert_array_equal(ra.times_s, rb.times_s)
        # the hub's local store holds the sharded JSON entries
        assert len(list(hub_store.glob("*/*.json"))) == 2

    def test_cache_only_mode_refuses_submits(self, tmp_path):
        with service_running(cache_only=True,
                             cache=SweepCache(tmp_path)) as service:
            with ServiceClient("127.0.0.1", service.port) as client:
                assert client.hello["mode"] == "cache-only"
                with pytest.raises(ServiceError,
                                   match="cache-only"):
                    client.run_cell("fft", "tiny", DEVICE)

    def test_full_mode_also_serves_cache_records(self, tmp_path):
        """A full instance doubles as a cache hub (worker co-location)."""
        from repro.service.store import RemoteCacheBackend

        with service_running(jobs=1,
                             cache=SweepCache(tmp_path)) as service:
            with contextlib.closing(
                    RemoteCacheBackend("127.0.0.1", service.port)) as backend:
                backend.write("result", "ab" * 32, b"blob")
                assert backend.read("result", "ab" * 32) == b"blob"


    def test_key_escaping_the_root_is_refused(self, tmp_path):
        """A traversal ``cache_put`` is an error record, not a write."""
        from repro.service.protocol import blob_to_wire

        root = tmp_path / "store" / "hub"  # ../escaped lands in tmp_path
        with service_running(cache_only=True,
                             cache=SweepCache(root)) as service:
            with ServiceClient("127.0.0.1", service.port) as client:
                for key in ("../escaped", str(tmp_path / "abs")):
                    client.send({"type": "cache_put", "kind": "result",
                                 "key": key, "data": blob_to_wire(b"x")})
                    reply = client.read()
                    assert reply["type"] == "error"
                    assert "64 lowercase hex" in reply["error"]
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["hub", "store"]


class TestShutdown:
    def test_shutdown_record_drains_the_server(self):
        with service_running(jobs=1) as service:
            with ServiceClient("127.0.0.1", service.port) as client:
                assert client.shutdown()["type"] == "bye"
        # the context manager asserts the thread exited cleanly

    def test_leaving_after_the_loop_closed(self):
        """The fixture exits cleanly when a client shutdown closed the loop."""
        with service_running(jobs=1) as service:
            with ServiceClient("127.0.0.1", service.port) as client:
                assert client.shutdown()["type"] == "bye"
            deadline = time.monotonic() + 60
            while any(t.name == "service_running" for t in threading.enumerate()):
                assert time.monotonic() < deadline, "service did not drain"
                time.sleep(0.01)
