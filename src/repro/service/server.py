"""The ``repro serve`` asyncio TCP server.

One process, two modes:

* **full** (default) — a :class:`~repro.service.jobs.ServiceEngine`
  over the sweep process pool: clients submit cells or whole matrices,
  results stream back per-connection as jobs complete, deduplicated
  and cached.  The cache-protocol records are also served (over the
  engine's local backend), so a full instance doubles as a remote
  cache for other workers.
* **cache-only** (``--cache-only``) — no engine, no pool: just the
  cache records over a :class:`~repro.service.store.LocalCacheBackend`.
  This is the hub of the shared-store topology: point any worker's
  ``--cache-dir`` at ``remote://host:port`` of this instance.

Protocol details live in :mod:`repro.service.protocol` and
``docs/service.md``.  Responses to one connection are serialised by a
per-connection lock; results from concurrent jobs interleave by
completion, each tagged with the submitting request's ``id``.
"""

from __future__ import annotations

import asyncio
import logging
from pathlib import Path

from ..harness.runner import expand_matrix
from ..telemetry.metrics import default_registry
from ..telemetry.tracer import get_tracer
from . import protocol
from .jobs import QueueFull, ServiceEngine
from .store import LocalCacheBackend

_log = logging.getLogger(__name__)


class BenchService:
    """The server object: sockets, dispatch, graceful drain."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache=None,
        jobs: int | None = None,
        queue_limit: int | None = None,
        cache_only: bool = False,
        execute: bool = False,
        registry=None,
        runlog=None,
    ):
        from .jobs import DEFAULT_QUEUE_LIMIT

        self.host = host
        self.port = port  # 0 = ephemeral; real port known after start()
        self.cache = cache
        self.cache_only = cache_only
        self.registry = registry if registry is not None else (
            default_registry())
        self.engine = None if cache_only else ServiceEngine(
            cache=cache, jobs=jobs,
            queue_limit=(queue_limit if queue_limit is not None
                         else DEFAULT_QUEUE_LIMIT),
            execute=execute, registry=self.registry, runlog=runlog)
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._streams: set[asyncio.Task] = set()
        #: Writers of the open client connections.  Cache clients keep
        #: theirs open between requests, so stop() hangs up on them.
        self._writers: set[asyncio.StreamWriter] = set()
        self._next_subscriber = 1

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        return "cache-only" if self.cache_only else "full"

    @property
    def backend(self) -> LocalCacheBackend | None:
        """The local backend behind the cache records, if any."""
        backend = getattr(self.cache, "backend", self.cache)
        return backend if isinstance(backend, LocalCacheBackend) else None

    async def start(self) -> None:
        if self.engine is not None:
            await self.engine.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=protocol.MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info("repro serve (%s) listening on %s:%d",
                  self.mode, self.host, self.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            for writer in list(self._writers):
                writer.close()
            await self._server.wait_closed()
        for task in list(self._streams):
            task.cancel()
        if self._streams:
            await asyncio.gather(*self._streams, return_exceptions=True)
        if self.engine is not None:
            await self.engine.stop()

    async def serve_until_shutdown(self) -> None:
        """Block until a client sends ``shutdown`` (or the event is set)."""
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        subscriber = self._next_subscriber
        self._next_subscriber += 1
        self._writers.add(writer)
        lock = asyncio.Lock()

        async def send(record: dict) -> None:
            async with lock:
                writer.write(protocol.encode_record(record))
                await writer.drain()

        await send(protocol.hello(
            self.mode, self.engine.jobs if self.engine else 0))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await send(protocol.error(None, "oversized record"))
                    break
                if not line:
                    break
                try:
                    record = protocol.decode_record(line)
                except protocol.ProtocolError as exc:
                    await send(protocol.error(None, str(exc)))
                    continue
                complaint = protocol.validate_request(
                    record, cache_only=self.cache_only)
                if complaint is not None:
                    await send(protocol.error(record.get("id"), complaint))
                    continue
                if not await self._dispatch(record, subscriber, send):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if self.engine is not None:
                self.engine.detach_all(subscriber)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, record, subscriber, send) -> bool:
        """Handle one request; returns False to close the connection."""
        rtype = record["type"]
        rid = record.get("id")
        if rtype == "ping":
            await send({"type": "pong", "id": rid,
                        "v": protocol.PROTOCOL_VERSION})
        elif rtype == "metrics":
            await send({"type": "metrics", "id": rid,
                        "text": self.registry.expose()})
        elif rtype == "shutdown":
            await send({"type": "bye", "id": rid})
            self.request_shutdown()
            return False
        elif rtype.startswith("cache_"):
            await self._dispatch_cache(record, send)
        elif rtype == "submit":
            await self._submit_cells(
                [(record["benchmark"], record["size"], record["device"])],
                record, subscriber, send)
        elif rtype == "submit_matrix":
            cells = expand_matrix(record.get("benchmarks"),
                                  record.get("sizes"),
                                  record.get("devices"))
            await self._submit_cells(cells, record, subscriber, send)
        elif rtype == "cancel":
            job_id = record.get("job_id", record.get("id"))
            status = self.engine.cancel(int(job_id), subscriber)
            await send({"type": "cancelled", "id": rid,
                        "job_id": int(job_id), "status": status})
        return True

    async def _submit_cells(self, cells, record, subscriber, send) -> None:
        rid = record.get("id")
        opts = {
            "priority": int(record.get("priority", 0)),
            "samples": int(record.get("samples",
                                      _default_samples())),
            "seed": int(record.get("seed", 12345)),
            "execute": record.get("execute"),
        }
        jobs = []
        try:
            for benchmark, size, device in cells:
                job, _deduped = self.engine.submit(
                    benchmark, size, device, subscriber, **opts)
                jobs.append(job)
        except QueueFull as exc:
            # jobs queued before the bound hit stay queued; the client
            # is told how much of the batch was accepted
            await send(protocol.rejected(rid, str(exc), exc.retry_after_s))
            if not jobs:
                return
        except (ValueError, KeyError) as exc:
            await send(protocol.error(rid, str(exc)))
            return
        await send(protocol.ack(rid, [j.job_id for j in jobs],
                                [j.key for j in jobs]))
        for job in jobs:
            task = asyncio.create_task(
                self._stream_result(job, rid, send),
                name=f"stream-{job.job_id}")
            self._streams.add(task)
            task.add_done_callback(self._streams.discard)

    async def _stream_result(self, job, rid, send) -> None:
        try:
            payload = await asyncio.shield(job.future)
            status = job.state
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # job failed; tell the subscriber
            payload, status = {"error": str(exc)}, "failed"
        try:
            await send(protocol.result(rid, job.job_id, job.key, status,
                                       payload, job.cached, job.elapsed_s))
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client left; the result is computed and cached anyway

    async def _dispatch_cache(self, record, send) -> None:
        backend = self.backend
        rid = record.get("id")
        if backend is None:
            await send(protocol.error(
                rid, "this instance has no local cache to serve"))
            return
        loop = asyncio.get_running_loop()
        rtype, kind = record["type"], record.get("kind")
        try:
            if rtype == "cache_get":
                blob = await loop.run_in_executor(
                    None, backend.read, kind, record["key"])
                await send({"type": "cache_blob", "id": rid,
                            "data": protocol.blob_to_wire(blob)})
            elif rtype == "cache_put":
                blob = protocol.blob_from_wire(record["data"])
                await loop.run_in_executor(
                    None, backend.write, kind, record["key"], blob)
                await send({"type": "cache_ok", "id": rid})
            elif rtype == "cache_keys":
                keys = await loop.run_in_executor(None, backend.keys, kind)
                await send({"type": "cache_keys", "id": rid, "keys": keys})
            elif rtype == "cache_delete":
                deleted = await loop.run_in_executor(
                    None, backend.delete, kind, record["key"])
                await send({"type": "cache_ok", "id": rid,
                            "deleted": bool(deleted)})
        except (OSError, protocol.ProtocolError) as exc:
            await send(protocol.error(rid, str(exc)))


def _default_samples() -> int:
    from ..harness.runner import DEFAULT_SAMPLES
    return DEFAULT_SAMPLES


async def run_service(service: BenchService, port_file=None,
                      ready_event: asyncio.Event | None = None) -> None:
    """Start, announce, serve until shutdown, drain."""
    await service.start()
    if port_file:
        path = Path(port_file).expanduser()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"{service.port}\n")
    print(f"repro serve ({service.mode}) listening on "
          f"{service.host}:{service.port}", flush=True)
    if ready_event is not None:
        ready_event.set()
    try:
        await service.serve_until_shutdown()
    finally:
        await service.stop()


def serve_forever(service: BenchService, port_file=None) -> None:
    """Synchronous entry point (the CLI's)."""
    try:
        asyncio.run(run_service(service, port_file=port_file))
    except KeyboardInterrupt:
        _log.info("interrupted; shut down")


__all__ = ["BenchService", "run_service", "serve_forever"]
