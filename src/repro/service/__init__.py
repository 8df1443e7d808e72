"""Benchmark-as-a-service: job queue, wire protocol, shared stores.

The ROADMAP's "benchmark-as-a-service" layer: a long-running asyncio
server (``repro serve``) over the sweep engine, accepting cell and
matrix requests from many concurrent clients with in-flight
deduplication, priority-then-FIFO dispatch and queue-depth backpressure;
a pluggable cache backend so multiple workers and hosts share one
content-addressed result store; and an auto-updating results board
fed from the trajectory plus served-job history.

This ``__init__`` exports only the light, dependency-minimal pieces
(the wire protocol and the storage backends, which
``repro.harness.sweep`` itself builds on).  The heavier server-side
modules are imported on demand::

    from repro.service.jobs import ServiceEngine
    from repro.service.server import BenchService, run_server
    from repro.service.client import ServiceClient
    from repro.service.board import render_board
"""

from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_record,
    encode_record,
    validate_request,
)
from .store import (
    CacheBackend,
    CacheBackendError,
    LocalCacheBackend,
    RemoteCacheBackend,
    parse_backend_spec,
)

__all__ = [
    "CacheBackend",
    "CacheBackendError",
    "LocalCacheBackend",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteCacheBackend",
    "decode_record",
    "encode_record",
    "parse_backend_spec",
    "validate_request",
]
