"""Cache backends and the wire protocol (repro.service)."""

import contextlib
import os
import socket
import socketserver
import threading

import numpy as np
import pytest

from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    blob_from_wire,
    blob_to_wire,
    decode_record,
    encode_record,
    validate_request,
)
from repro.service.store import (
    CacheBackend,
    CacheBackendError,
    LocalCacheBackend,
    RemoteCacheBackend,
    parse_backend_spec,
)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_roundtrip(self):
        record = {"type": "submit", "benchmark": "fft", "size": "tiny",
                  "device": "i7-6700K", "v": PROTOCOL_VERSION}
        line = encode_record(record)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert decode_record(line) == record

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_record(b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError):
            decode_record(b"not json at all\n")

    def test_decode_rejects_oversized_line(self):
        from repro.service.protocol import MAX_LINE_BYTES
        with pytest.raises(ProtocolError):
            decode_record(b"x" * (MAX_LINE_BYTES + 1))

    def test_validate_submit(self):
        good = {"type": "submit", "benchmark": "fft", "size": "tiny",
                "device": "i7-6700K"}
        assert validate_request(good) is None
        assert validate_request({"type": "submit"}) is not None
        assert validate_request({"type": "nonsense"}) is not None

    def test_validate_version_gate(self):
        record = {"type": "ping", "v": PROTOCOL_VERSION + 1}
        assert "version" in validate_request(record)

    def test_validate_cache_only_mode(self):
        submit = {"type": "submit", "benchmark": "fft", "size": "tiny",
                  "device": "i7-6700K"}
        assert validate_request(submit, cache_only=True) is not None
        get = {"type": "cache_get", "kind": "result", "key": "ab" * 32}
        assert validate_request(get, cache_only=True) is None

    def test_validate_cache_fields(self):
        assert validate_request(
            {"type": "cache_get", "kind": "bogus", "key": "k"}) is not None
        assert validate_request(
            {"type": "cache_put", "kind": "result", "key": "k"}) is not None
        assert validate_request(
            {"type": "cache_get", "kind": "artifact",
             "key": "ab" * 32}) is not None
        for gone in ("cache_keys", "cache_delete"):
            assert "unknown request type" in validate_request(
                {"type": gone, "kind": "result", "key": "ab" * 32},
                cache_only=True)

    @pytest.mark.parametrize("key", [
        "../x", "/etc/passwd", "ab" * 31 + "a", "AB" * 32,
        "../" + "a" * 61, None, 7])
    def test_validate_rejects_non_content_address_keys(self, key):
        for rtype in ("cache_get", "cache_put"):
            record = {"type": rtype, "kind": "result", "key": key,
                      "data": blob_to_wire(b"x")}
            assert "64 lowercase hex" in validate_request(record), rtype
        good = {"type": "cache_put", "kind": "result", "key": "0f" * 32,
                "data": blob_to_wire(b"x")}
        assert validate_request(good) is None

    def test_blob_wire_roundtrip(self):
        blob = bytes(range(256))
        assert blob_from_wire(blob_to_wire(blob)) == blob
        assert blob_to_wire(None) is None
        assert blob_from_wire(None) is None
        with pytest.raises(ProtocolError):
            blob_from_wire("!!! not base64 !!!")

    @pytest.mark.parametrize("data", [5, 1.5, True, ["YQ=="], {"d": "YQ=="}])
    def test_blob_from_wire_rejects_non_text(self, data):
        with pytest.raises(ProtocolError, match="expected text"):
            blob_from_wire(data)


# ----------------------------------------------------------------------
# Local backend
# ----------------------------------------------------------------------
class TestLocalCacheBackend:
    def test_sharded_json_layout(self, tmp_path):
        backend = LocalCacheBackend(tmp_path)
        key = "abcdef" + "0" * 58
        backend.write("result", key, b"result-bytes")
        assert (tmp_path / "ab" / f"{key}.json").read_bytes() == b"result-bytes"
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "ab", f"{key}.json"]

    def test_read_miss_returns_none(self, tmp_path):
        backend = LocalCacheBackend(tmp_path)
        assert backend.read("result", "ff" * 32) is None

    def test_no_tmp_droppings(self, tmp_path):
        backend = LocalCacheBackend(tmp_path)
        backend.write("result", "aa" * 32, b"x")
        assert not list(tmp_path.rglob("*.tmp"))

    def test_racing_writers_never_publish_a_torn_entry(self, tmp_path):
        """Two writers of one key and a reader, as on a shared hub."""
        backend = LocalCacheBackend(tmp_path)
        key = "ab" * 32
        blobs = (b"a" * (2 << 20), b"b" * (3 << 20))
        errors, torn = [], []
        writing = threading.Barrier(2)
        done = threading.Event()

        def write(blob):
            try:
                writing.wait()
                for _ in range(30):
                    backend.write("result", key, blob)
            except Exception as exc:  # asserted below
                errors.append(exc)

        def read():
            while not done.is_set():
                try:
                    got = backend.read("result", key)
                except Exception as exc:
                    errors.append(exc)
                    continue
                if got is not None and got not in blobs:
                    torn.append(len(got))

        writers = [threading.Thread(target=write, args=(blob,))
                   for blob in blobs]
        reader = threading.Thread(target=read)
        reader.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        done.set()
        reader.join()
        assert errors == []
        assert torn == []
        assert backend.read("result", key) in blobs
        assert not list(tmp_path.rglob("*.tmp"))

    def test_canonical_shadows_legacy(self, tmp_path):
        """Files of older layouts (flat ``<key>.json``, sharded
        ``.npz``) are never read, and a write leaves them as they are."""
        backend = LocalCacheBackend(tmp_path)
        key = "ab" + "3" * 62
        (tmp_path / f"{key}.json").write_text("old-flat")
        (tmp_path / "ab").mkdir()
        (tmp_path / "ab" / f"{key}.npz").write_text("old-npz")
        assert backend.read("result", key) is None
        backend.write("result", key, b"new")
        assert backend.read("result", key) == b"new"
        assert (tmp_path / f"{key}.json").read_text() == "old-flat"
        assert (tmp_path / "ab" / f"{key}.npz").read_text() == "old-npz"

    def test_kind_checked(self, tmp_path):
        backend = LocalCacheBackend(tmp_path)
        with pytest.raises(ValueError):
            backend.path_for("bogus", "aa")

    def test_satisfies_protocol(self, tmp_path):
        assert isinstance(LocalCacheBackend(tmp_path), CacheBackend)
        assert isinstance(RemoteCacheBackend("localhost", 1), CacheBackend)


# ----------------------------------------------------------------------
# Backend spec parsing
# ----------------------------------------------------------------------
class TestParseBackendSpec:
    def test_path_goes_local(self, tmp_path):
        backend = parse_backend_spec(tmp_path / "cache")
        assert isinstance(backend, LocalCacheBackend)

    def test_remote_spec(self):
        backend = parse_backend_spec("remote://cachehost:7077")
        assert isinstance(backend, RemoteCacheBackend)
        assert (backend.host, backend.port) == ("cachehost", 7077)

    def test_bad_remote_spec(self):
        with pytest.raises(ValueError):
            parse_backend_spec("remote://no-port")

    def test_instance_passthrough(self, tmp_path):
        backend = LocalCacheBackend(tmp_path)
        assert parse_backend_spec(backend) is backend


# ----------------------------------------------------------------------
# Remote backend against a stub cache server
# ----------------------------------------------------------------------
class _StubCacheHandler(socketserver.StreamRequestHandler):
    """Minimal in-memory speaker of the cache protocol.

    Like the real server, it answers request after request on one
    connection until the client leaves or the stub stops.
    """

    def handle(self):
        server = self.server
        with server.lock:  # type: ignore[attr-defined]
            server.connections += 1  # type: ignore[attr-defined]
            server.open_sockets.add(self.connection)  # type: ignore[attr-defined]
        self.wfile.write(encode_record(
            {"type": "hello", "v": PROTOCOL_VERSION, "mode": "cache-only",
             "jobs": 0}))
        for line in self.rfile:
            self.wfile.write(encode_record(self.answer(decode_record(line))))

    def answer(self, record: dict) -> dict:
        store = self.server.store  # type: ignore[attr-defined]
        rtype = record["type"]
        canned = self.server.canned  # type: ignore[attr-defined]
        if rtype in canned:
            return canned[rtype]
        if rtype == "cache_get":
            blob = store.get((record["kind"], record["key"]))
            return {"type": "cache_blob", "data": blob_to_wire(blob)}
        if rtype == "cache_put":
            store[(record["kind"], record["key"])] = blob_from_wire(
                record["data"])
            return {"type": "cache_ok"}
        return {"type": "error", "id": record.get("id"),
                "error": f"stub does not speak {rtype!r}"}


class _StubCacheServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, store: dict):
        super().__init__(address, _StubCacheHandler)
        self.store = store
        #: Fixed replies by request type, for a hub that answers wrongly.
        self.canned: dict[str, dict] = {}
        self.connections = 0
        self.open_sockets: set = set()
        self.lock = threading.Lock()
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop listening and hang up on every client, like a dead hub."""
        self.shutdown()
        with self.lock:
            for sock in self.open_sockets:
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)
        self.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


@pytest.fixture()
def stub_cache_server():
    server = _StubCacheServer(("127.0.0.1", 0), {})
    try:
        yield server
    finally:
        server.stop()


class TestRemoteCacheBackend:
    def test_roundtrip(self, stub_cache_server):
        host, port = stub_cache_server.server_address
        key = "ab" * 32
        with contextlib.closing(
                RemoteCacheBackend(host, port, timeout_s=5.0)) as backend:
            assert backend.read("result", key) is None
            backend.write("result", key, b"remote-bytes")
            assert backend.read("result", key) == b"remote-bytes"
            assert stub_cache_server.store == {("result", key):
                                               b"remote-bytes"}

    def test_unreachable_raises_backend_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        backend = RemoteCacheBackend("127.0.0.1", dead_port, timeout_s=1.0)
        with pytest.raises(CacheBackendError):
            backend.read("result", "ab" * 32)

    def test_server_error_raises_backend_error(self, stub_cache_server):
        host, port = stub_cache_server.server_address
        with contextlib.closing(
                RemoteCacheBackend(host, port, timeout_s=5.0)) as backend:
            with pytest.raises(CacheBackendError):
                backend._roundtrip({"type": "ping"})

    @pytest.mark.parametrize("data", [5, ["YQ=="], {"d": "YQ=="}])
    def test_non_text_blob_is_a_degraded_miss(self, stub_cache_server, data):
        """A hub reply whose ``data`` is not base64 text is a counted
        backend miss, not an exception out of ``SweepCache.get``."""
        from repro.harness.sweep import SweepCache
        from repro.telemetry.metrics import default_registry

        stub_cache_server.canned["cache_get"] = {"type": "cache_blob",
                                                 "data": data}
        host, port = stub_cache_server.server_address
        family = default_registry().counter("sweep_cache_degraded_total")
        labels = {"backend": "remote", "op": "read", "reason": "backend"}
        before = family.value(**labels)
        cache = SweepCache(f"remote://{host}:{port}")
        try:
            assert cache.get("ab" * 32) is None
        finally:
            cache.close()
        assert family.value(**labels) == before + 1

    def test_dead_store_degrades_to_uncached_run(self, caplog):
        """A sweep pointed at an unreachable store still completes:
        reads miss, writes are logged and swallowed."""
        import logging

        from repro.harness.runner import RunConfig
        from repro.harness.sweep import SweepCache, run_sweep

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        cache = SweepCache(f"remote://127.0.0.1:{dead_port}")
        cache.backend.timeout_s = 1.0
        config = RunConfig("fft", "tiny", "i7-6700K", samples=4)
        with caplog.at_level(logging.WARNING, logger="repro.harness.sweep"):
            outcome = run_sweep([config], jobs=1, cache=cache)
        assert (outcome.computed, outcome.cached) == (1, 0)
        assert any("failed to store" in r.message for r in caplog.records)

    def test_sweepcache_over_remote_backend(self, stub_cache_server, tmp_path):
        """SweepCache end-to-end over the remote backend: identical
        results, zero recomputation on the second worker."""
        from repro.harness.runner import RunConfig
        from repro.harness.sweep import SweepCache, run_sweep

        host, port = stub_cache_server.server_address
        spec = f"remote://{host}:{port}"
        config = RunConfig("fft", "tiny", "i7-6700K", samples=4)

        with contextlib.closing(SweepCache(spec)) as first:
            warm = run_sweep([config], jobs=1, cache=first)
        assert (warm.computed, warm.cached) == (1, 0)

        # a different worker, same store
        with contextlib.closing(SweepCache(spec)) as second:
            hit = run_sweep([config], jobs=1, cache=second)
        assert (hit.computed, hit.cached) == (0, 1)
        np.testing.assert_array_equal(
            warm.results[0].times_s, hit.results[0].times_s)

    def test_sweepcache_close_releases_the_connection(self,
                                                      stub_cache_server):
        from repro.harness.sweep import SweepCache

        host, port = stub_cache_server.server_address
        cache = SweepCache(f"remote://{host}:{port}")
        assert cache.get("ab" * 32) is None
        sock, stream = cache.backend._conn
        cache.close()
        assert cache.backend._conn is None
        assert sock.fileno() == -1 and stream.closed

    def test_cli_closes_the_cache_it_opens(self, stub_cache_server,
                                           monkeypatch, capsys):
        from repro.harness import cli
        from repro.harness.sweep import SweepCache

        opened = []

        class Recording(SweepCache):
            def __init__(self, root):
                super().__init__(root)
                opened.append(self)

        monkeypatch.setattr(cli, "SweepCache", Recording)
        host, port = stub_cache_server.server_address
        assert cli.main(["run", "fft", "--size", "tiny", "--device",
                         "i7-6700K", "--samples", "3", "--no-execute",
                         "--cache-dir", f"remote://{host}:{port}"]) == 0
        assert "1 computed, 0 cached" in capsys.readouterr().out
        assert [c.backend._conn for c in opened] == [None]
        assert stub_cache_server.connections == 1


@pytest.fixture()
def connection_attempts(monkeypatch):
    """Every ``socket.create_connection`` call, by address."""
    attempts = []
    real = socket.create_connection

    def counting(address, *args, **kwargs):
        attempts.append(address)
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return attempts


def _remote_degraded() -> float:
    from repro.telemetry.metrics import default_registry

    family = default_registry().counter("sweep_cache_degraded_total")
    return sum(family.value(backend="remote", op=op, reason=reason)
               for op in ("read", "write")
               for reason in ("backend", "corrupt"))


class TestRemoteConnectionReuse:
    """One hub connection per backend and process, renewed when stale."""

    def test_operations_share_one_connection(self, stub_cache_server,
                                             connection_attempts):
        host, port = stub_cache_server.server_address
        backend = RemoteCacheBackend(host, port, timeout_s=5.0)
        keys = [f"{i:02x}" * 32 for i in range(8)]
        for i, key in enumerate(keys):
            assert backend.read("result", key) is None
            backend.write("result", key, bytes([i]) * 100)
            assert backend.read("result", key) == bytes([i]) * 100
        assert connection_attempts == [(host, port)]
        assert stub_cache_server.connections == 1
        backend.close()
        assert backend.read("result", keys[1]) == bytes([1]) * 100
        assert len(connection_attempts) == 2
        backend.close()

    def test_hub_restart_is_a_hit_not_a_degraded_read(
            self, stub_cache_server, connection_attempts):
        from repro.harness.runner import RunConfig
        from repro.harness.sweep import SweepCache, cell_key, run_sweep

        host, port = stub_cache_server.server_address
        cache = SweepCache(f"remote://{host}:{port}")
        config = RunConfig("fft", "tiny", "i7-6700K", samples=4)
        warm = run_sweep([config], jobs=1, cache=cache)
        assert (warm.computed, warm.cached) == (1, 0)
        assert len(connection_attempts) == 1
        before = _remote_degraded()

        store = stub_cache_server.store
        stub_cache_server.stop()
        restarted = _StubCacheServer((host, port), store)
        try:
            hit = cache.get(cell_key(config))
            assert hit is not None
            np.testing.assert_array_equal(hit["times_s"],
                                          warm.results[0].times_s)
            assert _remote_degraded() == before
            assert len(connection_attempts) == 2  # one reconnect
            assert restarted.connections == 1
        finally:
            cache.close()
            restarted.stop()

    def test_dead_hub_after_reuse_raises_after_one_retry(
            self, stub_cache_server, connection_attempts):
        host, port = stub_cache_server.server_address
        backend = RemoteCacheBackend(host, port, timeout_s=1.0)
        assert backend.read("result", "ab" * 32) is None
        stub_cache_server.stop()
        with pytest.raises(CacheBackendError):
            backend.read("result", "ab" * 32)
        assert len(connection_attempts) == 2

    def test_forked_child_opens_its_own_connection(self, stub_cache_server):
        host, port = stub_cache_server.server_address
        backend = RemoteCacheBackend(host, port, timeout_s=5.0)
        key = "cd" * 32
        backend.write("result", key, b"shared")
        assert stub_cache_server.connections == 1
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report what it read, never return to pytest
            status = 1
            try:
                os.close(read_end)
                os.write(write_end, backend.read("result", key) or b"")
                backend.close()
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            got = pipe.read()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert got == b"shared"
        assert stub_cache_server.connections == 2  # the child's own
        # The child closed only its copy: the parent's connection lives.
        assert backend.read("result", key) == b"shared"
        assert stub_cache_server.connections == 2
        backend.close()
