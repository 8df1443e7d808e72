#!/usr/bin/env python
"""End-to-end smoke test of `repro serve` (the CI service-smoke job).

Boots a real server as a subprocess, races three concurrent clients at
the same cell, and asserts the service's headline guarantees:

1. the cell is computed exactly once (in-flight dedup > 0);
2. all three clients receive bit-identical payloads;
3. a served matrix completes with per-cell results, and skips the
   sizes a benchmark has no preset for (nqueens is tiny-only);
4. shutdown is clean (exit 0 within the timeout) and leaves behind a
   merged Perfetto trace with `service_job` spans, a Prometheus
   metrics snapshot with the service instruments, and a job log that
   holds one `cell_computed` record per computed cell and renders
   into the results board;
5. a server on `--cache-dir remote://` of a `--cache-only` hub keeps
   its cache hits across a hub restart on the same port and store:
   the cell asked for again is `cached: true` and no cache operation
   is counted as degraded.

Run from the repository root:  PYTHONPATH=src python scripts/service_smoke.py
"""

import json
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.service.client import ServiceClient  # noqa: E402

DEVICE = "i7-6700K"
SAMPLES = 10
TIMEOUT_S = 120


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def metric_value(text: str, name: str) -> float:
    total = 0.0
    seen = False
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            total += float(line.rsplit(None, 1)[-1])
            seen = True
    return total if seen else -1.0


def launch(workdir: Path, port_file: Path, *flags: str) -> tuple:
    """Start `repro serve FLAGS`; return the process and its port."""
    port_file.unlink(missing_ok=True)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port-file", str(port_file), *flags],
        cwd=REPO, env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
                       "HOME": str(workdir)},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.time() + TIMEOUT_S
    while not port_file.exists() and time.time() < deadline:
        if proc.poll() is not None:
            fail(f"server died on startup:\n{proc.stdout.read()}")
        time.sleep(0.05)
    if not port_file.exists():
        proc.kill()
        fail(f"server {flags} never wrote the port file")
    return proc, int(port_file.read_text().strip())


def shut_down(proc, port: int, what: str) -> None:
    """Ask a server to shut down; fail unless it exits 0 in time."""
    with ServiceClient("127.0.0.1", port, timeout_s=TIMEOUT_S) as client:
        client.shutdown()
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail(f"{what} did not drain within the timeout")
    if code != 0:
        fail(f"{what} exited {code}:\n{proc.stdout.read()}")


def hub_restart_leg(workdir: Path) -> None:
    """A served cell stays a cache hit across a restart of its hub."""
    store = str(workdir / "hub-store")
    hub, hub_port = launch(workdir, workdir / "hub.port", "--cache-only",
                           "--port", "0", "--cache-dir", store)
    server = None
    try:
        server, port = launch(workdir, workdir / "remote.port",
                              "--port", "0", "--jobs", "1", "--cache-dir",
                              f"remote://127.0.0.1:{hub_port}")
        with ServiceClient("127.0.0.1", port,
                           timeout_s=TIMEOUT_S) as client:
            first = client.run_cell("fft", "tiny", DEVICE, samples=SAMPLES)
            if first["status"] != "done" or first["cached"]:
                fail(f"first request on the hub not computed: status "
                     f"{first['status']}, cached {first['cached']}")
            shut_down(hub, hub_port, "hub")
            hub, _ = launch(workdir, workdir / "hub.port", "--cache-only",
                            "--port", str(hub_port), "--cache-dir", store)
            print(f"hub restarted on port {hub_port} over the same store")
            again = client.run_cell("fft", "tiny", DEVICE, samples=SAMPLES)
            if again["cached"] is not True:
                fail(f"cell asked again after the hub restart was not a "
                     f"cache hit: cached {again['cached']}")
            if again["result"] != first["result"]:
                fail("the cache hit differs from the computed payload")
            degraded = metric_value(client.metrics_text(),
                                    "sweep_cache_degraded_total")
            if degraded > 0.0:
                fail(f"{degraded:.0f} cache operations degraded across "
                     "the hub restart")
        shut_down(server, port, "server on the hub")
        server = None
        shut_down(hub, hub_port, "hub")
        print("hub restart: cached=true, no degraded cache operation")
    finally:
        for proc in (server, hub):
            if proc is not None and proc.poll() is None:
                proc.kill()


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    port_file = workdir / "port"
    trace_path = workdir / "serve.trace.json"
    metrics_path = workdir / "serve.metrics.prom"
    job_log = workdir / "serve.jsonl"

    server, port = launch(
        workdir, port_file, "--port", "0", "--jobs", "2",
        "--cache-dir", str(workdir / "cache"), "--trace", str(trace_path),
        "--metrics", str(metrics_path), "--log-jsonl", str(job_log))
    try:
        print(f"server up on port {port}")

        # --- 1+2: three concurrent clients, one cell -------------------
        barrier = threading.Barrier(3, timeout=TIMEOUT_S)
        outputs: dict[int, dict] = {}

        def one_client(tag: int) -> None:
            with ServiceClient("127.0.0.1", port,
                               timeout_s=TIMEOUT_S) as client:
                barrier.wait()
                outputs[tag] = client.run_cell("fft", "small", DEVICE,
                                               samples=SAMPLES)

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=TIMEOUT_S)
        if sorted(outputs) != [0, 1, 2]:
            fail(f"only {len(outputs)}/3 clients got results")
        payloads = [outputs[i]["result"] for i in range(3)]
        if not (payloads[0] == payloads[1] == payloads[2]):
            fail("concurrent clients saw different payloads")
        print("3 concurrent clients: identical payloads")

        with ServiceClient("127.0.0.1", port,
                           timeout_s=TIMEOUT_S) as client:
            text = client.metrics_text()
            computed = metric_value(text, "sweep_cells_computed_total")
            dedup = metric_value(text, "service_dedup_hits_total")
            if computed != 1.0:
                fail(f"expected exactly 1 computation, saw {computed}")
            if dedup <= 0.0:
                fail(f"expected dedup hits > 0, saw {dedup}")
            for name in ("service_queue_depth", "service_jobs_inflight",
                         "service_cell_latency_seconds"):
                if name not in text:
                    fail(f"metric {name} missing from exposition")
            print(f"dedup verified: computed=1, dedup_hits={dedup:.0f}")

            # --- 3: a served matrix -----------------------------------
            # fft x {tiny, small} + nqueens x tiny: nqueens has no small
            ack = client.submit_matrix(benchmarks=["fft", "nqueens"],
                                       sizes=["tiny", "small"],
                                       devices=[DEVICE], samples=SAMPLES)
            if ack["type"] != "ack" or len(ack["job_ids"]) != 3:
                fail(f"matrix not acknowledged as 3 cells: {ack}")
            records = client.results(3)
            if not all(r["status"] == "done" for r in records):
                fail(f"matrix cells failed: {records}")
            print("served matrix: 3/3 cells done (nqueens small skipped)")
            computed = metric_value(client.metrics_text(),
                                    "sweep_cells_computed_total")
            if computed != 3.0:
                fail(f"expected 3 computed cells in all, saw {computed}")

            # --- 4: clean shutdown ------------------------------------
            client.shutdown()
        try:
            code = server.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            fail("server did not drain within the timeout")
        if code != 0:
            fail(f"server exited {code}:\n{server.stdout.read()}")
        print("clean shutdown (exit 0)")

        # --- artifacts ------------------------------------------------
        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        if not any(e.get("name") == "service_job" for e in events):
            fail("merged trace has no service_job spans")
        pids = {e.get("pid") for e in events if e.get("ph") == "b"}
        print(f"merged trace: {len(events)} events across "
              f"{len(pids)} process track(s)")
        metrics_text = metrics_path.read_text()
        if "service_requests_total" not in metrics_text:
            fail("metrics snapshot is missing the service instruments")
        log = [json.loads(line)
               for line in job_log.read_text().splitlines() if line]
        job_events = {r["event"] for r in log}
        if "job_done" not in job_events:
            fail(f"job log has no job_done records: {job_events}")
        # fft/small was computed by the three clients with the same
        # samples, so the computed cells are exactly the matrix's keys
        computed_keys = [r["key"] for r in log if r["event"] == "cell_computed"]
        if sorted(computed_keys) != sorted(ack["keys"]):
            fail(f"cell_computed keys {computed_keys} != acked {ack['keys']}")
        print(f"job log: {len(computed_keys)} cell_computed records, "
              "one per computed cell")

        board = subprocess.run(
            [sys.executable, "-m", "repro", "regress", "render",
             "--trajectory-dir", str(REPO / "benchmarks" / "trajectory"),
             "--board", "--job-log", str(job_log)],
            cwd=REPO, env={"PYTHONPATH": str(REPO / "src"),
                           "PATH": "/usr/bin:/bin", "HOME": str(workdir)},
            capture_output=True, text=True, timeout=TIMEOUT_S)
        if board.returncode != 0:
            fail(f"board render failed:\n{board.stderr}")
        if not re.search(r"## Served jobs", board.stdout):
            fail("board is missing the Served jobs section")
        print("results board rendered from trajectory + job log")

        # --- 5: a hub restart keeps the shared store's hits ------------
        hub_restart_leg(workdir)
        print("service smoke: OK")
    finally:
        if server.poll() is None:
            server.kill()


if __name__ == "__main__":
    main()
