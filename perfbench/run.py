"""Benchmark of the repro harness itself: four workloads, pinned outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_model --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  Each metric is printed by name with its unit, then one host
fingerprint line, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output matched its pin.  Workload rationale and
metric definitions: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads  # sibling module
from hostspeed import setup_ref_s, speed_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up samples per run (fresh interpreters for the in-process
#: workloads, topology launches for ``serve_hub``); ``setup_s`` is
#: their median.
SETUP_SAMPLES = 2
#: Per-request client timeout, per-process shutdown wait and the wait
#: for a serving process to answer an interleaver signal, seconds.
REQUEST_TIMEOUT_S = 60.0
EXIT_WAIT_S = 30.0
SIGNAL_WAIT_S = 20.0
#: Packages whose cumulative import time is reported by the traced run.
IMPORT_PACKAGES = ("repro.harness", "repro.analysis", "repro.aiwc",
                   "repro.service", "scipy.stats")


def fail_usage(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def cpu_times() -> list[int]:
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:9]]


def host_fingerprint(stat_start: list[int]) -> dict:
    stat_end = cpu_times()
    delta = [b - a for a, b in zip(stat_start, stat_end)]
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu": model,
        "nproc": os.cpu_count(),
        "steal_frac": delta[7] / sum(delta) if sum(delta) else 0.0,
    }


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def import_breakdown() -> dict[str, float]:
    """``setup.import_ms.*`` from ``-X importtime`` of a fresh interpreter.

    A package's first line is its own subtree (later lines of the same
    name also count the parent packages imported around it).  A package
    whose own line is missing (scipy loads ``scipy.stats`` through a
    module ``__getattr__``, which ``-X importtime`` does not log) is
    charged the cumulative time of its outermost submodules.
    """
    proc = subprocess.run(
        python("-X", "importtime", "-c", "import repro.harness.cli"),
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header
        depth = len(name) - len(name.lstrip())
        rows.append((name.strip(), depth, int(cumulative) / 1e3))
    metrics = {}
    for package in IMPORT_PACKAGES:
        exact = [ms for name, _d, ms in rows if name == package]
        if exact:
            metrics[f"setup.import_ms.{package}"] = exact[0]
            continue
        subs = [(d, ms) for name, d, ms in rows
                if name.startswith(package + ".")]
        top = min((d for d, _ms in subs), default=0)
        metrics[f"setup.import_ms.{package}"] = sum(
            ms for d, ms in subs if d == top)
    return metrics


def work_process(*args: str) -> tuple[float, subprocess.Popen]:
    """Start ``work.py``; return its set-up time and the process.

    That is ``setup_s`` for the in-process workloads: fresh interpreter
    start to ready, i.e. ``import repro.harness.cli`` plus config
    construction, at the reference host speed of the calibration
    ``work.py`` ran alongside.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(python(str(HERE / "work.py"), *args),
                            env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    word, _, calibration = proc.stdout.readline().partition(" ")
    elapsed = time.perf_counter() - start
    if word != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"work.py {' '.join(args)} never got ready")
    return setup_ref_s(elapsed, [json.loads(calibration)]), proc


def finish(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for ``proc`` to exit, killing it if it overruns ``timeout``."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode


def setup_sample(workload: str) -> float:
    elapsed, proc = work_process("setup", workload)
    finish(proc, EXIT_WAIT_S)
    return elapsed


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def timed_phase(workload: str, traced: bool, seconds: int,
                scratch: Path) -> dict:
    """One ``work.py run``; its set-up time is kept as ``ready_s``."""
    out = scratch / f"work-{int(traced)}.json"
    ready_s, proc = work_process("run", workload, str(int(traced)),
                                 str(seconds), str(out))
    if finish(proc, 170) != 0:
        raise RuntimeError(f"work.py run {workload} exited {proc.returncode}")
    result = json.loads(out.read_text())
    result["ready_s"] = ready_s
    return result


def run_in_process(workload: str, args, scratch: Path) -> dict:
    """Metrics, attempted and failures of one in-process workload run."""
    if not args.trace:
        setups = [setup_sample(workload) for _ in range(SETUP_SAMPLES - 1)]
        work = timed_phase(workload, False, args.seconds, scratch)
        return {
            "metrics": {
                "setup_s": statistics.median([*setups, work["ready_s"]]),
                "wall_s": statistics.median(work["walls"]),
                "cpu_s": statistics.median(work["cpus"]),
                "cpu_ref_s": statistics.median(work["cpu_refs"]),
                "peak_rss_mb": work["peak_rss_mb"],
            },
            "attempted": work["attempted"],
            "failures": work["failures"],
        }
    layers = import_breakdown()
    plain = timed_phase(workload, False, args.seconds, scratch)
    traced = timed_phase(workload, True, args.seconds, scratch)
    layers.update(traced["layers"])
    layers["wall_s"] = statistics.median(plain["walls"])
    layers["cpu_s"] = statistics.median(plain["cpus"])
    layers["bench.trace_overhead_frac"] = (
        statistics.median(traced["walls"])
        / statistics.median(plain["walls"]) - 1.0)
    layers["bench.layer_coverage"] = (
        layers.pop("bench.self_s") / sum(traced["walls"]))
    return {"metrics": layers,
            "attempted": plain["attempted"] + traced["attempted"],
            "failures": plain["failures"] + traced["failures"]}


# ----------------------------------------------------------------------
# serve_hub: a cache-only hub, a --jobs 1 server, two closed-loop clients
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def process_tree(pids: list[int]) -> list[int]:
    """``pids`` and all their live descendants."""
    seen, todo = [], list(pids)
    while todo:
        pid = todo.pop()
        if pid in seen:
            continue
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
        except FileNotFoundError:
            continue  # exited meanwhile
        seen.append(pid)
    return seen


def peak_rss_mb(pids: list[int]) -> float:
    """Summed VmHWM of ``pids`` and all their descendants."""
    total_kb = 0
    for pid in process_tree(pids):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except FileNotFoundError:
            continue
    return total_kb / 1024


def cpu_s(pids: list[int]) -> float:
    """Summed user + system CPU time of ``pids`` and their descendants."""
    ticks = 0
    for pid in process_tree(pids):
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


class WireError(RuntimeError):
    """The server answered with an ``error`` or ``rejected`` record."""


class WireClient:
    """One connection speaking the service's line-delimited JSON protocol.

    The benchmark speaks the wire format (``docs/service.md``) itself
    rather than importing ``repro.service.client``: importing the
    program would add seconds of start-up to every run and put the
    program's import in the client process.
    """

    def __init__(self, port: int, timeout_s: float = REQUEST_TIMEOUT_S):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout_s)
        self.stream = self.sock.makefile("rwb")
        self.next_id = 1
        self.read()  # the greeting

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            self.stream.close()
        finally:
            self.sock.close()

    def read(self) -> dict:
        line = self.stream.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def call(self, record: dict, reply: str) -> dict:
        """Send ``record``; return the first response of type ``reply``."""
        self.stream.write((json.dumps({**record, "id": self.next_id})
                           + "\n").encode())
        self.stream.flush()
        self.next_id += 1
        return self.wait_for(reply)

    def wait_for(self, reply: str) -> dict:
        while True:
            response = self.read()
            if response["type"] == reply:
                return response
            if response["type"] in ("error", "rejected"):
                raise WireError(f"{response['type']}: "
                                f"{response.get('error')}")

    def run_cell(self, benchmark: str, size: str, device: str) -> dict:
        self.call({"type": "submit", "benchmark": benchmark, "size": size,
                   "device": device, "samples": workloads.SAMPLES,
                   "seed": workloads.PROGRAM_SEED}, "ack")
        return self.wait_for("result")


def answers_ping(port: int) -> bool:
    try:
        with WireClient(port, timeout_s=5) as client:
            client.call({"type": "ping"}, "pong")
        return True
    except OSError:
        return False


class Topology:
    """One hub and one server, started together; stopped by ``close``.

    Both start through ``serve_boot.py``, which registers every serving
    process (the server's pool worker too) in ``calib_dir`` for the
    interleaver signals of :meth:`start_interleavers` and
    :meth:`stop_interleavers`.
    """

    def __init__(self, scratch: Path, tag: str, layers_out: Path | None):
        self.hub_port = free_port()
        self.server_port = None
        self.procs: list[subprocess.Popen] = []
        self._logs = []
        self.calib_dir = scratch / f"calib-{tag}"
        self.calib_dir.mkdir()
        start = time.perf_counter()
        self.hub = self._launch(
            scratch, f"hub-{tag}", None,
            ["--cache-only", "--port", str(self.hub_port),
             "--cache-dir", str(scratch / f"store-{tag}")])
        port_file = scratch / f"server-{tag}.port"
        self.server = self._launch(
            scratch, f"server-{tag}", layers_out,
            ["--jobs", "1", "--port", "0", "--port-file", str(port_file),
             "--cache-dir", f"remote://127.0.0.1:{self.hub_port}"])
        self.hub_ready_s = self.server_ready_s = None
        try:
            while self.hub_ready_s is None or self.server_ready_s is None:
                if time.perf_counter() - start > 120:
                    raise RuntimeError("serve topology not ready in 120 s")
                for proc in self.procs:
                    if proc.poll() is not None:
                        raise RuntimeError(
                            f"{proc.args[-1]} exited during start-up")
                if self.hub_ready_s is None and answers_ping(self.hub_port):
                    self.hub_ready_s = time.perf_counter() - start
                if self.server_ready_s is None and port_file.exists():
                    text = port_file.read_text().strip()
                    if text and answers_ping(int(text)):
                        self.server_port = int(text)
                        self.server_ready_s = time.perf_counter() - start
                time.sleep(0.005)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _launch(self, scratch, tag, layers_out, flags) -> subprocess.Popen:
        log = open(scratch / f"{tag}.log", "w")
        self._logs.append(log)
        proc = subprocess.Popen(
            python(str(HERE / "serve_boot.py"), str(self.calib_dir),
                   str(layers_out or "-"), "serve", *flags),
            env=child_env(), cwd=ROOT, stdout=log, stderr=log)
        self.procs.append(proc)
        return proc

    def _signal_all(self, signum: int, reply: str) -> list[Path]:
        """Send ``signum`` to every live registered serving process and
        return its reply files once all have appeared."""
        replies = []
        for registered in sorted(self.calib_dir.glob("*.pid")):
            pid = int(registered.stem)
            if pid not in process_tree([p.pid for p in self.procs]):
                continue  # exited, e.g. a replaced pool worker
            os.kill(pid, signum)
            replies.append(self.calib_dir / f"{pid}.{reply}")
        deadline = time.perf_counter() + SIGNAL_WAIT_S
        while not all(path.exists() for path in replies):
            if time.perf_counter() > deadline:
                raise RuntimeError(f"serving processes did not answer "
                                   f"signal {signum} in {SIGNAL_WAIT_S} s")
            time.sleep(0.005)
        return replies

    def start_interleavers(self) -> list[dict]:
        """End the set-up calibration and start the drive's; return the
        set-up calibration of hub and server."""
        setups = [path.with_suffix(".setup")
                  for path in self._signal_all(signal.SIGUSR1, "on")]
        return [json.loads(path.read_text())
                for path in setups if path.exists()]

    def stop_interleavers(self) -> list[dict]:
        """The ``Interleaver.stop`` result of every serving process."""
        return [json.loads(path.read_text())
                for path in self._signal_all(signal.SIGUSR2, "json")]

    def close(self) -> None:
        """Ask both to shut down; kill whatever does not exit in time."""
        for proc, port in ((self.server, self.server_port),
                           (self.hub, self.hub_port)):
            if proc.poll() is None and port is not None:
                try:
                    with WireClient(port, timeout_s=5) as client:
                        client.call({"type": "shutdown"}, "bye")
                except (OSError, WireError):
                    pass
            try:
                proc.wait(timeout=EXIT_WAIT_S if port is not None else 0.1)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self._logs:
            log.close()


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def drive(topology: Topology, sequence: list, pins: dict) -> dict:
    """Replay ``sequence`` over two closed-loop client connections.

    Each client takes the next request as soon as its previous one has
    its result.  Served payloads are checked against their pins once
    the timed phase is over.
    """
    lock = threading.Lock()
    todo = iter(sequence)
    served, failures = [], []

    def client_loop():
        client = None
        while True:
            with lock:
                cell = next(todo, None)
            if cell is None:
                break
            start = time.perf_counter()
            try:
                client = client or WireClient(topology.server_port)
                record = client.run_cell(*cell)
            except (WireError, OSError, ValueError) as exc:
                with lock:
                    failures.append(f"{workloads.cell_id(*cell)}: {exc!r}")
                if client is not None:
                    client.close()
                client = None
                continue
            served.append((cell, time.perf_counter() - start, record))
        if client is not None:
            client.close()

    threads = [threading.Thread(target=client_loop)
               for _ in range(workloads.SERVE_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    records = []
    for cell, latency, record in served:
        cid = workloads.cell_id(*cell)
        if record.get("status") != "done":
            failures.append(f"{cid}: status {record.get('status')}")
        elif workloads.payload_digest(record["result"]) != pins.get(cid):
            failures.append(f"{cid}: served payload off its pin")
        else:
            records.append((record["cached"], latency, record["elapsed_s"]))
    hits = [lat for cached, lat, _e in records if cached]
    misses = [lat for cached, lat, _e in records if not cached]
    engine_hits = [e for cached, _l, e in records if cached]
    engine_misses = [e for cached, _l, e in records if not cached]
    return {
        "wall_s": wall,
        "failures": failures,
        "rejected": sum("rejected" in f for f in failures),
        "hit_p50_ms": percentile(hits, 50) * 1e3,
        "hit_p95_ms": percentile(hits, 95) * 1e3,
        "miss_p50_ms": percentile(misses, 50) * 1e3,
        "miss_p90_ms": percentile(misses, 90) * 1e3,
        "hits": len(hits),
        "misses": len(misses),
        "service.engine_hit_p50_ms": percentile(engine_hits, 50) * 1e3,
        "service.engine_miss_p50_ms": percentile(engine_misses, 50) * 1e3,
        "service.transport_p50_ms": percentile(
            [lat - e for _c, lat, e in records], 50) * 1e3,
    }


def service_counts(topology: Topology, rejected: int) -> dict:
    """The ``service.*`` counts, from the server's ``metrics`` record."""
    with WireClient(topology.server_port) as client:
        text = client.call({"type": "metrics"}, "metrics")["text"]
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name = line.split("{")[0].split()[0]
            totals[name] = totals.get(name, 0.0) + float(line.split()[-1])
    requests = totals.get("service_requests_total", 0.0)
    hits = totals.get("service_cache_hits_total", 0.0)
    dedup = totals.get("service_dedup_hits_total", 0.0)
    return {
        "service.requests": requests,
        "service.computed": totals.get("sweep_cells_computed_total", 0.0),
        "service.cache_hits": hits,
        "service.dedup_hits": dedup,
        "service.reuse_ratio": (hits + dedup) / requests if requests else 0.0,
        "service.rejected": float(rejected),
    }


def serve_pass(scratch: Path, tag: str, sequence: list, pins: dict,
               traced: bool, setups: int = 1) -> dict:
    """Start the topology ``setups`` times, drive the last one, stop it."""
    layers_out = scratch / f"layers-{tag}.json" if traced else None
    ready = []
    for i in range(setups):
        topology = Topology(scratch, f"{tag}{i}", layers_out)
        try:
            setup_parts = topology.start_interleavers()
        except BaseException:
            topology.close()
            raise
        ready.append((setup_ref_s(topology.setup_s, setup_parts),
                      topology.hub_ready_s, topology.server_ready_s))
        if i < setups - 1:
            topology.close()
    try:
        # CPU time comes from /proc, so a process counts even if its
        # calibration went missing; the calibration only sets the scale
        pids = [p.pid for p in topology.procs]
        cpu_start = cpu_s(pids)
        out = drive(topology, sequence, pins)
        parts = topology.stop_interleavers()
        out["cpu_s"] = (cpu_s(pids) - cpu_start
                        - sum(part["calib_cpu_s"] for part in parts))
        out["cpu_ref_s"] = out["cpu_s"] * speed_scale(parts)
        out["calib_units"] = [part["samples"] for part in parts]
        out.update(service_counts(topology, out["rejected"]))
        out["peak_rss_mb"] = peak_rss_mb([p.pid for p in topology.procs])
    finally:
        topology.close()
    out["setup_s"] = statistics.median(r[0] for r in ready)
    out["setup.hub_ready_s"] = statistics.median(r[1] for r in ready)
    out["setup.server_ready_s"] = statistics.median(r[2] for r in ready)
    if traced:
        out["layers"] = json.loads(layers_out.read_text())
    return out


def run_serve(args, scratch: Path) -> dict:
    pins = workloads.load_pins()["sweep_model"]
    sequence = workloads.request_sequence(workloads.SERVE_CELLS, args.seed)
    if not args.trace:
        out = serve_pass(scratch, "plain", sequence, pins, traced=False,
                         setups=SETUP_SAMPLES)
        print(f"serve_hub {out['hits']} hits, {out['misses']} computed; "
              f"hit p50 {out['hit_p50_ms']:.2f} ms, p95 "
              f"{out['hit_p95_ms']:.2f} ms; computed p50 "
              f"{out['miss_p50_ms']:.2f} ms, p90 {out['miss_p90_ms']:.2f} ms; "
              f"calibration units per serving process {out['calib_units']}")
        return {"metrics": {key: out[key] for key in
                            ("setup_s", "wall_s", "cpu_s", "cpu_ref_s",
                             "peak_rss_mb")},
                "attempted": len(sequence), "failures": out["failures"]}
    layers = import_breakdown()
    plain = serve_pass(scratch, "plain", sequence, pins, traced=False)
    traced = serve_pass(scratch, "traced", sequence, pins, traced=True)
    layers.update({key: value for key, value in plain.items()
                   if key.startswith(("setup.", "service.", "hit_", "miss_"))})
    layers["wall_s"] = plain["wall_s"]
    layers["cpu_s"] = plain["cpu_s"]
    layers.update({key: value for key, value in traced["layers"].items()
                   if key.startswith("store.")})
    layers["bench.trace_overhead_frac"] = (
        traced["wall_s"] / plain["wall_s"] - 1.0)
    layers["bench.layer_coverage"] = (
        traced["layers"]["bench.self_s"] / traced["wall_s"])
    return {"metrics": layers, "attempted": 2 * len(sequence),
            "failures": plain["failures"] + traced["failures"]}


# ----------------------------------------------------------------------
def run_all(args) -> int:
    """Every workload in turn, each in its own ``run.py`` process."""
    results, worst = {}, 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            python(str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)),
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1]) if lines else None
        worst = max(worst, proc.returncode)
    summary = {
        "correct": all(r and r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{w}.{name}": metric
                    for w, r in results.items() if r
                    for name, metric in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return worst or (0 if summary["correct"] else 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # run the cleanup in ``finally`` blocks (servers, scratch) on SIGTERM
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        fail_usage(f"no program to measure: {SRC / 'repro'} is missing")
    if not workloads.PINS_PATH.is_file():
        fail_usage(f"no output pins: {workloads.PINS_PATH} is missing")
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    stat_start = cpu_times()
    scratch = ROOT / ".perfbench_work" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        if args.workload == "serve_hub":
            out = run_serve(args, scratch)
        else:
            out = run_in_process(args.workload, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = out["failures"]
    measured = out["metrics"]
    measured["failed_frac"] = len(failures) / out["attempted"]
    metrics = {}
    for entry in wanted:
        value = float(measured.get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{args.workload} {entry['name']} = {value:.6g} {entry['unit']}")
    if not args.trace:
        print(f"{args.workload} wall_s = {measured['wall_s']:.6g} s")
        print(f"{args.workload} cpu_s = {measured['cpu_s']:.6g} s")
        print(f"{args.workload} failed_frac = {measured['failed_frac']:.6g} "
              f"ratio ({len(failures)} of {out['attempted']})")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("host " + json.dumps(host_fingerprint(stat_start)))
    print(json.dumps({"correct": not failures,
                      "attempted": out["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
