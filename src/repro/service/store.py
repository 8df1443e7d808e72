"""Pluggable cache backends for the sweep result store.

:class:`~repro.harness.sweep.SweepCache` used to *be* a directory of
files; the benchmark service needs the same content-addressed store to
be shareable between workers and hosts, so the storage mechanics are
extracted here behind a minimal byte-oriented protocol:

* :class:`CacheBackend` — the contract: opaque blobs addressed by
  ``(kind, key)`` where ``kind`` is ``"result"`` (per-cell
  :class:`~repro.harness.runner.RunResult` entries, the one kind) and
  ``key`` is the SHA-256 content address.  Backends move bytes;
  *encoding* (npz layout, format stamps, corruption handling) stays in
  ``SweepCache`` so every backend serves byte-identical entries.
* :class:`LocalCacheBackend` — the on-disk layout: sharded
  ``<root>/<key[:2]>/<key>.npz`` entries (``docs/formats.md``) with
  atomic writes, plus transparent reads of the two legacy layouts
  (sharded ``<key[:2]>/<key>.json`` and flat ``<key>.json``).
* :class:`RemoteCacheBackend` — a client of a ``repro serve
  --cache-only`` instance, so multiple worker hosts share one store
  (the GEMMbench collaborative-repository topology).  It keeps one
  TCP connection per backend and process, opened on first use, and
  retries an operation once on a fresh connection when the reused one
  has gone stale (the hub restarted).

``parse_backend_spec`` maps the CLI's ``--cache-dir`` argument to a
backend: ``remote://host:port`` goes remote, anything else is a local
path.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
from pathlib import Path
from typing import BinaryIO, Iterator, Protocol, runtime_checkable

from .protocol import (
    CACHE_KINDS,
    ProtocolError,
    blob_from_wire,
    blob_to_wire,
    decode_record,
    encode_record,
)


class CacheBackendError(OSError):
    """A backend operation failed (I/O, network, or protocol trouble).

    ``SweepCache`` treats read failures as misses, so a flaky remote
    store degrades to recomputation, never to a crash.
    """


def _check_kind(kind: str) -> str:
    if kind not in CACHE_KINDS:
        raise ValueError(f"unknown cache kind {kind!r} "
                         f"(expected one of {CACHE_KINDS})")
    return kind


@runtime_checkable
class CacheBackend(Protocol):
    """What a sweep-cache storage backend must provide.

    All methods address opaque blobs by ``(kind, key)``.  ``read``
    returns ``None`` on a plain miss and raises
    :class:`CacheBackendError` on infrastructure failure; callers that
    want miss-on-failure semantics catch the latter.
    """

    def read(self, kind: str, key: str) -> bytes | None:
        """The blob for ``(kind, key)``, or ``None`` when absent."""
        ...

    def write(self, kind: str, key: str, blob: bytes) -> None:
        """Store ``blob`` under ``(kind, key)``, atomically."""
        ...

    def keys(self, kind: str) -> list[str]:
        """Every key currently stored under ``kind`` (sorted)."""
        ...

    def delete(self, kind: str, key: str) -> bool:
        """Remove one entry; returns whether it existed."""
        ...

    def describe(self) -> str:
        """Human-readable location (shown in sweep summaries)."""
        ...


# ----------------------------------------------------------------------
# Local filesystem backend
# ----------------------------------------------------------------------
class LocalCacheBackend:
    """Sharded on-disk blob store (the default backend).

    Canonical entry path::

        result   <root>/<key[:2]>/<key>.npz

    ``read`` additionally consults the legacy *result* layouts written
    by earlier releases — sharded ``<key[:2]>/<key>.json`` and flat
    ``<key>.json`` — so an existing cache keeps serving hits across
    the layout change; new writes always use the npz layout.  An
    ``analysis/`` subtree left by older releases is never read, listed
    or deleted.

    Writes are atomic: parent directories are created race-tolerantly
    (``exist_ok=True`` — two processes sharing a store may shard
    concurrently), the blob lands in a temp file named for its writer
    (pid and thread id, next to the entry, so concurrent writers of one
    key never share one), and ``os.replace`` publishes it.  A reader
    can therefore never observe a torn entry under this backend; torn
    *content* (e.g. a file truncated by a crashed legacy writer or a
    full disk) is the decoder's to treat as a miss.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def path_for(self, kind: str, key: str) -> Path:
        """The canonical (npz) path for ``(kind, key)``."""
        _check_kind(kind)
        return self.root / key[:2] / f"{key}.npz"

    def legacy_paths(self, kind: str, key: str) -> list[Path]:
        """Older result layouts consulted on read, newest first."""
        return [self.root / key[:2] / f"{key}.json",
                self.root / f"{key}.json"]

    # ------------------------------------------------------------------
    def read(self, kind: str, key: str) -> bytes | None:
        for path in (self.path_for(kind, key), *self.legacy_paths(kind, key)):
            try:
                return path.read_bytes()
            except FileNotFoundError:
                continue
            except OSError as exc:
                raise CacheBackendError(
                    f"cannot read cache entry {path}: {exc}") from exc
        return None

    def write(self, kind: str, key: str, blob: bytes) -> None:
        path = self.path_for(kind, key)
        # One temp file per writer: two threads or processes putting the
        # same key must never write into one file.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            raise CacheBackendError(
                f"cannot write cache entry {path}: {exc}") from exc

    def keys(self, kind: str) -> list[str]:
        _check_kind(kind)
        return sorted({path.stem for path in self._entry_paths()})

    def delete(self, kind: str, key: str) -> bool:
        existed = False
        for path in (self.path_for(kind, key), *self.legacy_paths(kind, key)):
            if path.exists():
                path.unlink(missing_ok=True)
                existed = True
        return existed

    def describe(self) -> str:
        return str(self.root)

    # ------------------------------------------------------------------
    def _entry_paths(self) -> Iterator[Path]:
        # Canonical npz shards, then both legacy layouts.  Two-level
        # globs never reach analysis/<xx>/<key>.npz.
        yield from self.root.glob("*/*.npz")
        yield from self.root.glob("*/*.json")
        yield from self.root.glob("*.json")

    def __repr__(self) -> str:
        return f"<LocalCacheBackend {self.root}>"


# ----------------------------------------------------------------------
# Remote backend: client of a `repro serve --cache-only` instance
# ----------------------------------------------------------------------
class RemoteCacheBackend:
    """Blob store served by another ``repro serve --cache-only`` process.

    Topology (``docs/service.md``): one host runs a cache-only
    instance over a :class:`LocalCacheBackend`; every worker host
    points its ``SweepCache`` at ``remote://host:port`` and the whole
    fleet shares one content-addressed store — a cell computed
    anywhere is a hit everywhere.

    Operations share one TCP connection, opened on first use and
    serialised by a lock (the service calls the cache from worker
    threads): send one request line, read one response line.  A
    connection belongs to the process that opened it; a forked child
    opens its own.  When a *reused* connection fails or hits EOF — the
    hub restarted — the operation is retried once on a fresh one.
    Any other failure raises :class:`CacheBackendError`; ``SweepCache``
    maps read failures to misses, so losing the cache host costs
    recomputation, not correctness.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 10.0):
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self._pid = os.getpid()
        self._lock = threading.Lock()
        #: ``(socket, read stream)`` of the open connection, if any.
        self._conn: tuple[socket.socket, BinaryIO] | None = None

    # ------------------------------------------------------------------
    def _open(self) -> tuple[socket.socket, BinaryIO]:
        """A fresh connection, past the server's hello."""
        try:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout_s)
        except OSError as exc:
            raise CacheBackendError(
                f"cache server {self.host}:{self.port} unreachable: "
                f"{exc}") from exc
        # Read-only stream: requests go out with sendall, so closing a
        # stream never flushes a half-written request.
        stream = sock.makefile("rb")
        try:
            if not stream.readline():  # discard the hello
                raise ConnectionError("closed before greeting")
        except OSError as exc:
            stream.close()
            sock.close()
            raise CacheBackendError(
                f"cache server {self.host}:{self.port} unreachable: "
                f"{exc}") from exc
        return sock, stream

    def _drop(self) -> None:
        """Close the open connection, if any (caller holds the lock)."""
        if self._conn is not None:
            sock, stream = self._conn
            self._conn = None
            stream.close()
            sock.close()

    def _own_lock(self) -> threading.Lock:
        """This process's lock, forgetting a connection inherited by fork.

        A forked child closes only its own descriptors of the parent's
        socket (no shutdown, no write), so the parent's connection
        stays usable, and takes a fresh lock in case another parent
        thread held the old one at the fork.
        """
        if self._pid != os.getpid():
            self._pid, self._lock = os.getpid(), threading.Lock()
            self._drop()
        return self._lock

    def close(self) -> None:
        """Close this process's connection; the next operation reopens."""
        with self._own_lock():
            self._drop()

    def _exchange(self, line: bytes) -> bytes:
        """Send one request line and read the response line."""
        with self._own_lock():
            while True:
                reused = self._conn is not None
                if not reused:
                    self._conn = self._open()
                sock, stream = self._conn
                try:
                    sock.sendall(line)
                    reply = stream.readline()
                except OSError as exc:
                    self._drop()
                    # A timeout is a slow server, not a stale connection.
                    if reused and not isinstance(exc, TimeoutError):
                        continue
                    raise CacheBackendError(
                        f"cache server {self.host}:{self.port} "
                        f"unreachable: {exc}") from exc
                if reply:
                    return reply
                self._drop()
                if not reused:
                    raise CacheBackendError(
                        f"cache server {self.host}:{self.port} closed the "
                        "connection mid-request")

    def _roundtrip(self, request: dict) -> dict:
        line = self._exchange(encode_record(request))
        try:
            response = decode_record(line)
        except ProtocolError as exc:
            self.close()  # out of step with the server: start afresh
            raise CacheBackendError(str(exc)) from exc
        if response.get("type") == "error":
            raise CacheBackendError(
                f"cache server refused {request.get('type')}: "
                f"{response.get('error')}")
        return response

    # ------------------------------------------------------------------
    def read(self, kind: str, key: str) -> bytes | None:
        _check_kind(kind)
        response = self._roundtrip(
            {"type": "cache_get", "kind": kind, "key": key})
        try:
            return blob_from_wire(response.get("data"))
        except ProtocolError as exc:
            raise CacheBackendError(str(exc)) from exc

    def write(self, kind: str, key: str, blob: bytes) -> None:
        _check_kind(kind)
        self._roundtrip({"type": "cache_put", "kind": kind, "key": key,
                         "data": blob_to_wire(blob)})

    def keys(self, kind: str) -> list[str]:
        _check_kind(kind)
        response = self._roundtrip({"type": "cache_keys", "kind": kind})
        return sorted(str(k) for k in response.get("keys", []))

    def delete(self, kind: str, key: str) -> bool:
        _check_kind(kind)
        response = self._roundtrip(
            {"type": "cache_delete", "kind": kind, "key": key})
        return bool(response.get("deleted"))

    def describe(self) -> str:
        return f"remote://{self.host}:{self.port}"

    def __repr__(self) -> str:
        return f"<RemoteCacheBackend {self.host}:{self.port}>"


# ----------------------------------------------------------------------
def parse_backend_spec(spec) -> CacheBackend:
    """Turn a ``--cache-dir`` argument into a backend.

    ``remote://host:port`` builds a :class:`RemoteCacheBackend`;
    an existing backend instance passes through; anything else is a
    local path.
    """
    if isinstance(spec, (LocalCacheBackend, RemoteCacheBackend)):
        return spec
    text = str(spec)
    if text.startswith("remote://"):
        rest = text[len("remote://"):]
        host, sep, port = rest.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ValueError(
                f"bad remote cache spec {text!r} "
                "(expected remote://host:port)")
        return RemoteCacheBackend(host, int(port))
    return LocalCacheBackend(spec)
