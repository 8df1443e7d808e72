"""Wire protocol for the benchmark service (schema v1).

Everything the service speaks — job submission, result streaming, the
metrics endpoint and the remote-cache operations — is **line-delimited
JSON over TCP**: one JSON object per ``\\n``-terminated line, UTF-8,
no framing beyond the newline.  The format is deliberately primitive
(GEMMbench's collaborative-benchmarking framing argues for a wire
format any language can speak from a five-line script) and versioned:
every request may carry ``"v"`` and the server's greeting states the
version it speaks; a mismatch is an ``error`` record, not a silent
reinterpretation.

This module is intentionally dependency-free (stdlib only) so clients
can vendor it: record constructors, the encoder/decoder pair, and the
request validator.  The full schema table lives in
``docs/service.md`` and ``docs/formats.md``.

Request types (client -> server)::

    submit         one (benchmark, size, device) cell
    submit_matrix  a batch: benchmarks x sizes x devices
    cancel         withdraw this connection's interest in a job
    metrics        Prometheus text exposition of the service registry
    ping           liveness probe
    shutdown       ask the server to drain and exit
    cache_get / cache_put
                   remote-cache operations (``--cache-only`` mode)

Response types (server -> client)::

    hello          greeting: protocol version, mode, worker count
    ack            job accepted: server job id(s) + cell key(s)
    rejected       backpressure: queue full, retry after ``retry_after`` s
    result         one finished cell (streamed as each job completes)
    error          the request could not be honoured
    metrics        the exposition text
    pong / bye     ping / shutdown acknowledgements
    cache_blob / cache_ok
                   remote-cache replies
"""

from __future__ import annotations

import base64
import json
import re

#: Wire schema version.  Bump on any incompatible record change.
PROTOCOL_VERSION = 1

#: Upper bound on one encoded record line (16 MiB) — a defence against
#: a confused client streaming a non-protocol byte stream at the
#: server, not a practical limit (large-size cell payloads are ~100 KiB).
MAX_LINE_BYTES = 16 * 1024 * 1024

REQUEST_TYPES = frozenset({
    "submit", "submit_matrix", "cancel", "metrics", "ping", "shutdown",
    "cache_get", "cache_put",
})

#: Request types valid against a ``--cache-only`` instance.
CACHE_REQUEST_TYPES = frozenset({
    "cache_get", "cache_put", "ping", "metrics", "shutdown",
})

#: Blob kinds the cache protocol addresses: the sweep store holds
#: result entries only.
CACHE_KINDS = ("result",)

#: A cache ``key`` is a content address: 64 lowercase hex characters,
#: as ``cell_key`` makes.  Anything else (``..``, a separator, an
#: absolute path) could name a file outside the store's root.
_CACHE_KEY = re.compile(r"[0-9a-f]{64}")


class ProtocolError(ValueError):
    """A malformed or out-of-contract protocol record."""


def encode_record(record: dict) -> bytes:
    """One record as a ``\\n``-terminated JSON line (the wire unit)."""
    return (json.dumps(record, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_record(line: bytes | str) -> dict:
    """Parse one wire line back into a record dict.

    Raises
    ------
    ProtocolError
        When the line is not a JSON object, or exceeds
        :data:`MAX_LINE_BYTES`.
    """
    if isinstance(line, str):
        line = line.encode("utf-8")
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"record exceeds {MAX_LINE_BYTES} bytes")
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable record: {exc}") from None
    if not isinstance(record, dict):
        raise ProtocolError("record is not a JSON object")
    return record


def validate_request(record: dict, cache_only: bool = False) -> str | None:
    """Why ``record`` is not an acceptable request, or ``None`` if it is.

    Checks the type field, the protocol version (when present) and the
    per-type required fields — everything that can be rejected before
    touching the engine.  Semantic failures (unknown benchmark, queue
    full) are the server's to report.
    """
    rtype = record.get("type")
    if rtype not in REQUEST_TYPES:
        return f"unknown request type {rtype!r}"
    version = record.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        return (f"protocol version {version!r} not supported "
                f"(server speaks v{PROTOCOL_VERSION})")
    if cache_only and rtype not in CACHE_REQUEST_TYPES:
        return f"request {rtype!r} not served in cache-only mode"
    if rtype == "submit":
        for field in ("benchmark", "size", "device"):
            if not isinstance(record.get(field), str):
                return f"submit requires a string {field!r} field"
    if rtype == "submit_matrix":
        for field in ("benchmarks", "sizes", "devices"):
            value = record.get(field)
            if value is not None and not (
                    isinstance(value, list)
                    and all(isinstance(v, str) for v in value)):
                return (f"submit_matrix field {field!r} must be a list of "
                        "strings or null (null = every registered one)")
    if rtype == "cancel" and "id" not in record and "job_id" not in record:
        return "cancel requires an `id` or `job_id` field"
    if rtype in ("cache_get", "cache_put"):
        if record.get("kind") not in CACHE_KINDS:
            return f"cache kind must be one of {CACHE_KINDS}"
        key = record.get("key")
        if not (isinstance(key, str) and _CACHE_KEY.fullmatch(key)):
            return f"{rtype} requires a `key` of 64 lowercase hex characters"
    if rtype == "cache_put" and not isinstance(record.get("data"), str):
        return "cache_put requires base64 `data`"
    return None


# ----------------------------------------------------------------------
# Blob transport: cache entries are opaque bytes on the wire
# ----------------------------------------------------------------------
def blob_to_wire(blob: bytes | None) -> str | None:
    """Bytes -> base64 text for a JSON field (``None`` passes through)."""
    if blob is None:
        return None
    return base64.b64encode(blob).decode("ascii")


def blob_from_wire(data: str | None) -> bytes | None:
    """Base64 text -> bytes; raises :class:`ProtocolError` on bad input."""
    if data is None:
        return None
    if not isinstance(data, str):
        raise ProtocolError(
            f"invalid base64 blob: expected text, got {type(data).__name__}")
    try:
        return base64.b64decode(data.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ProtocolError(f"invalid base64 blob: {exc}") from None


# ----------------------------------------------------------------------
# Record constructors (the server side uses these; clients may)
# ----------------------------------------------------------------------
def hello(mode: str, jobs: int) -> dict:
    """The greeting the server sends on connect."""
    return {"type": "hello", "v": PROTOCOL_VERSION, "mode": mode,
            "jobs": jobs}


def ack(request_id, job_ids: list[int], keys: list[str]) -> dict:
    """Jobs accepted: the server ids and cell keys, in request order."""
    return {"type": "ack", "id": request_id, "job_ids": job_ids,
            "keys": keys}


def rejected(request_id, reason: str, retry_after: float) -> dict:
    """Backpressure: the request was not queued; retry later."""
    return {"type": "rejected", "id": request_id, "error": reason,
            "retry_after": round(float(retry_after), 3)}


def error(request_id, reason: str) -> dict:
    """The request could not be honoured (semantic failure)."""
    return {"type": "error", "id": request_id, "error": reason}


def result(request_id, job_id: int, key: str, status: str,
           payload: dict | None, cached: bool, elapsed_s: float) -> dict:
    """One finished cell, streamed when its job completes."""
    return {
        "type": "result", "id": request_id, "job_id": job_id, "key": key,
        "status": status, "cached": cached,
        "elapsed_s": round(float(elapsed_s), 6), "result": payload,
    }
