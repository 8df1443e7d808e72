"""The parallel sweep engine: determinism, caching, resume, telemetry.

Acceptance pins for ISSUE 2's tentpole:

* a parallel sweep produces samples **bit-identical** to a serial one
  (the process-stable ``cell_seed`` derivation);
* the content-addressed cache turns a repeated sweep into 0 computed
  cells, misses on any config/model change, and survives corruption;
* ``--resume`` (cache reuse) continues an interrupted matrix, only
  computing the missing cells — counter-verified.
"""

import hashlib
import importlib
import json
import os
import signal

import numpy as np
import pytest

from repro.harness.artifacts import clear_memo
from repro.harness.runner import RunConfig, cell_seed, run_benchmark, run_matrix
from repro.harness import sweep as crossover_sweep_function  # legacy name
from repro.harness.sweep import (
    CACHE_FORMAT,
    SweepCache,
    WorkerDied,
    cell_key,
    default_cache_dir,
    result_from_payload,
    result_to_payload,
    run_sweep,
)
from repro.telemetry.metrics import default_registry
from repro.telemetry.runlog import memory_runlog


def _configs(samples=6, execute=False):
    return [
        RunConfig("fft", "tiny", "i7-6700K", samples=samples,
                  execute=execute, validate=execute),
        RunConfig("fft", "tiny", "GTX 1080", samples=samples,
                  execute=execute, validate=execute),
        RunConfig("crc", "tiny", "R9 290X", samples=samples,
                  execute=execute, validate=execute),
        RunConfig("srad", "small", "K20m", samples=samples,
                  execute=execute, validate=execute),
    ]


class TestCellSeed:
    def test_stable_value(self):
        """The derivation is frozen: same inputs, same 64-bit seed,
        in every process regardless of PYTHONHASHSEED."""
        assert cell_seed(12345, "fft", "tiny", "GTX 1080") == \
            cell_seed(12345, "fft", "tiny", "GTX 1080")

    def test_distinct_per_coordinate(self):
        base = cell_seed(1, "fft", "tiny", "GTX 1080")
        assert cell_seed(2, "fft", "tiny", "GTX 1080") != base
        assert cell_seed(1, "crc", "tiny", "GTX 1080") != base
        assert cell_seed(1, "fft", "small", "GTX 1080") != base
        assert cell_seed(1, "fft", "tiny", "K20m") != base


class TestParallelDeterminism:
    def test_parallel_equals_serial(self):
        """Same seed => identical samples, any number of workers."""
        configs = _configs()
        serial = run_sweep(configs, jobs=1)
        parallel = run_sweep(configs, jobs=2)
        assert serial.computed == parallel.computed == len(configs)
        for a, b in zip(serial.results, parallel.results):
            np.testing.assert_array_equal(a.times_s, b.times_s)
            np.testing.assert_array_equal(a.energies_j, b.energies_j)
            assert a.loop_iterations == b.loop_iterations
            assert a.nominal_s == b.nominal_s

    def test_results_in_input_order(self):
        configs = _configs()
        outcome = run_sweep(configs, jobs=2)
        got = [(r.benchmark, r.size, r.device) for r in outcome.results]
        assert got == [(c.benchmark, c.size, c.device) for c in configs]

    def test_parallel_matches_direct_run_benchmark(self):
        config = RunConfig("csr", "tiny", "K40m", samples=5)
        direct = run_benchmark(config)
        pooled = run_sweep([config], jobs=2).results[0]
        np.testing.assert_array_equal(direct.times_s, pooled.times_s)

    def test_worker_logs_merged_into_parent(self):
        runlog, buffer = memory_runlog()
        run_sweep(_configs()[:2], jobs=2, runlog=runlog)
        records = [json.loads(l) for l in buffer.getvalue().splitlines()]
        events = [r["event"] for r in records]
        assert events[0] == "sweep_start" and events[-1] == "sweep_complete"
        completes = [r for r in records if r["event"] == "run_complete"]
        assert len(completes) == 2
        assert all("worker_pid" in r for r in completes)

    def test_worker_metrics_merged_into_parent(self):
        registry = default_registry()
        registry.reset()
        run_sweep(_configs()[:2], jobs=2)
        assert registry.counter("harness_runs_total").total == 2
        assert registry.counter("harness_samples_total").total == 12


class TestSweepCache:
    def test_miss_then_hit(self, tmp_path):
        cache = SweepCache(tmp_path)
        registry = default_registry()
        registry.reset()
        configs = _configs()
        first = run_sweep(configs, jobs=1, cache=cache)
        assert (first.computed, first.cached) == (4, 0)
        assert len(cache) == 4
        second = run_sweep(configs, jobs=1, cache=cache)
        assert (second.computed, second.cached) == (0, 4)
        assert registry.counter("sweep_cells_computed_total").total == 4
        assert registry.counter("sweep_cells_cached_total").total == 4
        for a, b in zip(first.results, second.results):
            np.testing.assert_array_equal(a.times_s, b.times_s)
            np.testing.assert_array_equal(a.energies_j, b.energies_j)

    def test_key_sensitivity(self, tmp_path):
        """Any config coordinate change re-addresses the cell."""
        base = RunConfig("fft", "tiny", "i7-6700K", samples=5)
        key = cell_key(base)
        assert cell_key(RunConfig("fft", "tiny", "i7-6700K", samples=6)) != key
        assert cell_key(RunConfig("fft", "small", "i7-6700K", samples=5)) != key
        assert cell_key(RunConfig("fft", "tiny", "GTX 1080", samples=5)) != key
        variant = RunConfig("fft", "tiny", "i7-6700K", samples=5, seed=7)
        assert cell_key(variant) != key
        # canonicalisation: device name case does not split the cache
        assert cell_key(RunConfig("fft", "tiny", "I7-6700K", samples=5)) == key

    def test_key_bytes_match_the_whole_material_dump(self):
        """The per-spec JSON memo leaves every key byte-identical to
        one ``json.dumps`` of the whole key material."""
        import dataclasses

        from repro.devices import get_device
        from repro.devices.catalog import device_names
        from repro.harness.sweep import MODEL_VERSION

        def whole_dump_key(config, model_version=MODEL_VERSION):
            spec = get_device(config.device)
            fields = dataclasses.asdict(config)
            fields["device"] = spec.name
            material = {"model_version": model_version, "config": fields,
                        "device_spec": dataclasses.asdict(spec)}
            blob = json.dumps(material, sort_keys=True, default=str)
            return hashlib.sha256(blob.encode()).hexdigest()

        for name in device_names():
            for config in (
                    RunConfig("fft", "tiny", name, samples=5),
                    RunConfig("kmeans", "small", name.upper(), samples=50,
                              seed=7, execute=True, validate=True)):
                for _ in range(2):  # the second call reads the memo
                    assert cell_key(config) == whole_dump_key(config), name
                assert (cell_key(config, model_version="999-test")
                        == whole_dump_key(config, "999-test"))

    def test_model_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path)
        configs = _configs()[:2]
        run_sweep(configs, jobs=1, cache=cache)
        import sys
        sweep_module = sys.modules["repro.harness.sweep"]
        monkeypatch.setattr(sweep_module, "MODEL_VERSION", "999-test")
        outcome = run_sweep(configs, jobs=1, cache=cache)
        assert (outcome.computed, outcome.cached) == (2, 0)

    def test_corrupt_entry_is_a_miss(self, tmp_path, caplog):
        cache = SweepCache(tmp_path)
        config = RunConfig("fft", "tiny", "i7-6700K", samples=4)
        run_sweep([config], jobs=1, cache=cache)
        key = cell_key(config)
        cache.path_for(key).write_text("{ truncated garbage")
        with caplog.at_level("WARNING", logger="repro.harness.sweep"):
            assert cache.get(key) is None
        assert any("miss" in r.message for r in caplog.records)
        outcome = run_sweep([config], jobs=1, cache=cache)
        assert outcome.computed == 1  # recomputed and healed
        assert cache.get(key) is not None

    def test_torn_npz_entry_is_a_logged_miss(self, tmp_path, caplog):
        """A partially-written npz (killed mid-write, full disk) must
        read as a miss with a warning, never crash the sweep."""
        cache = SweepCache(tmp_path)
        config = RunConfig("fft", "tiny", "i7-6700K", samples=4)
        run_sweep([config], jobs=1, cache=cache)
        key = cell_key(config)
        path = cache.path_for(key)
        blob = path.read_bytes()
        assert blob[:2] == b"PK" and path.suffix == ".npz"
        path.write_bytes(blob[: len(blob) // 2])  # torn: half the zip
        with caplog.at_level("WARNING", logger="repro.harness.sweep"):
            assert cache.get(key) is None
        assert any("corrupt" in r.message for r in caplog.records)
        outcome = run_sweep([config], jobs=1, cache=cache)
        assert outcome.computed == 1  # recomputed and healed
        assert cache.get(key) is not None

    def test_refresh_recomputes_and_overwrites(self, tmp_path):
        cache = SweepCache(tmp_path)
        configs = _configs()[:2]
        run_sweep(configs, jobs=1, cache=cache)
        outcome = run_sweep(configs, jobs=1, cache=cache, refresh=True)
        assert (outcome.computed, outcome.cached) == (2, 0)
        assert len(cache) == 2

    def test_format_stamp_checked(self, tmp_path):
        from repro.harness.sweep import (
            _decode_result_entry,
            _encode_result_entry,
        )
        cache = SweepCache(tmp_path)
        config = RunConfig("fft", "tiny", "i7-6700K", samples=4)
        run_sweep([config], jobs=1, cache=cache)
        key = cell_key(config)
        entry = _decode_result_entry(cache.path_for(key).read_bytes())
        assert entry["format"] == CACHE_FORMAT
        entry["format"] = CACHE_FORMAT + 1
        cache.path_for(key).write_bytes(_encode_result_entry(entry))
        assert cache.get(key) is None

    def test_legacy_json_layouts_served(self, tmp_path):
        """Entries written by the pre-npz layouts — sharded and flat
        JSON — are still served transparently."""
        import dataclasses

        from repro.harness.sweep import LEGACY_CACHE_FORMAT, MODEL_VERSION

        cache = SweepCache(tmp_path)
        configs = _configs()[:2]
        fresh = run_sweep(configs, jobs=1)
        for layout, (config, result) in zip(
                ("sharded", "flat"), zip(configs, fresh.results)):
            key = cell_key(config)
            entry = json.dumps({
                "format": LEGACY_CACHE_FORMAT,
                "model_version": MODEL_VERSION,
                "key": key,
                "config": dataclasses.asdict(config),
                "created_unix": 0.0,
                "result": result_to_payload(result),
            }, default=str)
            if layout == "sharded":
                path = tmp_path / key[:2] / f"{key}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
            else:
                path = tmp_path / f"{key}.json"
            path.write_text(entry)
        assert len(cache) == 2
        outcome = run_sweep(configs, jobs=1, cache=cache)
        assert (outcome.computed, outcome.cached) == (0, 2)
        for a, b in zip(fresh.results, outcome.results):
            np.testing.assert_array_equal(a.times_s, b.times_s)
            np.testing.assert_array_equal(a.energies_j, b.energies_j)

    def test_entries_land_in_sharded_npz_layout(self, tmp_path):
        cache = SweepCache(tmp_path)
        config = RunConfig("fft", "tiny", "i7-6700K", samples=4)
        run_sweep([config], jobs=1, cache=cache)
        key = cell_key(config)
        path = cache.path_for(key)
        assert path == tmp_path / key[:2] / f"{key}.npz"
        assert path.exists()

    def test_sweep_persists_results_only(self, tmp_path):
        """A cached sweep writes no ``analysis/`` tree, and a rerun
        restores every cell, payloads unchanged."""
        cache = SweepCache(tmp_path)
        configs = _configs()
        first = run_sweep(configs, jobs=1, cache=cache)
        assert not (tmp_path / "analysis").exists()
        clear_memo()
        second = run_sweep(configs, jobs=1, cache=cache)
        assert (second.computed, second.cached) == (0, len(configs))
        assert ([result_to_payload(r) for r in second.results]
                == [result_to_payload(r) for r in first.results])
        assert not (tmp_path / "analysis").exists()

    def test_root_with_analysis_subtree_still_serves(self, tmp_path):
        """A root written by older releases — result shards plus an
        ``analysis/<xx>/<key>.npz`` artifact tree — keeps serving its
        results; the stale tree is neither counted nor cleared."""
        cache = SweepCache(tmp_path)
        configs = _configs()[:2]
        first = run_sweep(configs, jobs=1, cache=cache)
        key = hashlib.sha256(json.dumps(
            {"artifact_version": "3", "benchmark": "fft", "size": "tiny",
             "trace_len": 120_000}, sort_keys=True).encode()).hexdigest()
        stale = tmp_path / "analysis" / key[:2] / f"{key}.npz"
        stale.parent.mkdir(parents=True)
        np.savez_compressed(
            stale, meta=np.asarray(json.dumps({"benchmark": "fft"})),
            trace=np.arange(64, dtype=np.int64),
            branch_pcs=np.zeros(64, dtype=np.int64),
            branch_outcomes=np.ones(64, dtype=bool))
        blob = stale.read_bytes()
        assert len(cache) == 2
        second = run_sweep(configs, jobs=1, cache=cache)
        assert (second.computed, second.cached) == (0, 2)
        assert ([result_to_payload(r) for r in second.results]
                == [result_to_payload(r) for r in first.results])
        assert cache.clear() == 2
        assert len(cache) == 0
        assert stale.read_bytes() == blob

    def test_clear(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_sweep(_configs()[:2], jobs=1, cache=cache)
        assert cache.clear() == 2
        assert len(cache) == 0


def _degraded(**labels):
    return default_registry().counter("sweep_cache_degraded_total").value(
        **labels)


class TestDegradedCounter:
    """Every read served as a miss and every dropped write is counted."""

    def test_truncated_npz_counts_corrupt_read(self, tmp_path):
        cache = SweepCache(tmp_path)
        config = RunConfig("fft", "tiny", "i7-6700K", samples=4)
        run_sweep([config], jobs=1, cache=cache)
        path = cache.path_for(cell_key(config))
        path.write_bytes(path.read_bytes()[:100])
        labels = dict(backend="local", op="read", reason="corrupt")
        before = _degraded(**labels)
        assert cache.get(cell_key(config)) is None
        assert _degraded(**labels) == before + 1

    def test_unreachable_remote_counts_backend_failures(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        cache = SweepCache(f"remote://127.0.0.1:{dead_port}")
        cache.backend.timeout_s = 1.0
        read = dict(backend="remote", op="read", reason="backend")
        write = dict(backend="remote", op="write", reason="backend")
        before = _degraded(**read), _degraded(**write)
        config = RunConfig("fft", "tiny", "i7-6700K", samples=4)
        assert cache.get(cell_key(config)) is None
        assert _degraded(**read) == before[0] + 1
        cache.put(cell_key(config), config, run_benchmark(config))
        assert _degraded(**write) == before[1] + 1
        assert _degraded(backend="remote", op="read",
                         reason="corrupt") == 0

    def test_sweep_complete_reports_degraded_deltas_per_reason(self, tmp_path):
        cache = SweepCache(tmp_path)
        config = RunConfig("fft", "tiny", "i7-6700K", samples=4)
        run_sweep([config], jobs=1, cache=cache)
        path = cache.path_for(cell_key(config))
        path.write_bytes(path.read_bytes()[:100])
        runlog, buffer = memory_runlog()
        outcome = run_sweep([config], jobs=1, cache=cache, runlog=runlog)
        assert outcome.computed == 1
        records = [json.loads(l) for l in buffer.getvalue().splitlines()]
        assert records[-1]["event"] == "sweep_complete"
        assert records[-1]["cache_degraded"] == {"corrupt": 1, "backend": 0}
        # The rewritten entry reads clean: the next sweep degrades nothing.
        runlog, buffer = memory_runlog()
        run_sweep([config], jobs=1, cache=cache, runlog=runlog)
        last = json.loads(buffer.getvalue().splitlines()[-1])
        assert last["cache_degraded"] == {"corrupt": 0, "backend": 0}


class TestResume:
    def test_resume_after_simulated_crash(self, tmp_path):
        """A sweep killed mid-matrix resumes: only missing cells run."""
        cache = SweepCache(tmp_path)
        configs = _configs()
        # the "crashed" first invocation persisted 2 of 4 cells
        interrupted = run_sweep(configs[:2], jobs=1, cache=cache)
        assert interrupted.computed == 2
        registry = default_registry()
        registry.reset()
        resumed = run_sweep(configs, jobs=1, cache=cache)
        assert (resumed.computed, resumed.cached) == (2, 2)
        assert registry.counter("sweep_cells_computed_total").total == 2
        assert registry.counter("sweep_cells_cached_total").total == 2
        # and the restored cells equal what a fresh serial run produces
        fresh = run_sweep(configs, jobs=1)
        for a, b in zip(resumed.results, fresh.results):
            np.testing.assert_array_equal(a.times_s, b.times_s)

    def test_cached_cells_logged(self, tmp_path):
        cache = SweepCache(tmp_path)
        configs = _configs()[:2]
        run_sweep(configs, jobs=1, cache=cache)
        runlog, buffer = memory_runlog()
        run_sweep(configs, jobs=1, cache=cache, runlog=runlog)
        events = [json.loads(l)["event"]
                  for l in buffer.getvalue().splitlines()]
        assert events.count("cell_cached") == 2
        assert events.count("run_complete") == 0


#: ``repro.harness.sweep`` the attribute is the legacy function of that
#: name, so the module comes from ``importlib``.
_sweep_module = importlib.import_module("repro.harness.sweep")
_real_compute_cell = _sweep_module._compute_cell


def _kill_crc_worker(config, trace_ctx=None):
    """Stands in for ``_compute_cell``: the worker measuring the crc cell
    dies as if OOM-killed; every other cell computes normally."""
    if config.benchmark == "crc":
        os.kill(os.getpid(), signal.SIGKILL)
    return _real_compute_cell(config, trace_ctx)


def _echo_cell(config, trace_ctx=None):
    """Stands in for ``_compute_cell``: the reply is the cell itself."""
    return config


def _sweep_records(buffer, event):
    records = [json.loads(l) for l in buffer.getvalue().splitlines()]
    return [r for r in records if r["event"] == event]


class TestWorkerDeath:
    def test_clean_pooled_sweep_reports_no_failures(self):
        runlog, buffer = memory_runlog()
        run_sweep(_configs()[:2], jobs=2, runlog=runlog)
        [done] = _sweep_records(buffer, "sweep_complete")
        assert (done["failed"], done["worker_restarts"]) == (0, 0)
        assert _sweep_records(buffer, "cell_failed") == []

    def test_killed_worker_fails_only_the_cells_in_flight(
            self, tmp_path, monkeypatch):
        """One SIGKILLed worker: the sweep finishes and caches every
        other cell, then raises naming the lost ones; a rerun computes
        only those and matches a clean serial sweep bit for bit."""
        configs = _configs() + [
            RunConfig("csr", "tiny", "i7-6700K", samples=6),
            RunConfig("nw", "tiny", "GTX 1080", samples=6),
        ]
        doomed = configs[2]
        assert doomed.benchmark == "crc"
        cache = SweepCache(tmp_path)
        restarts = default_registry().counter("sweep_worker_restarts_total")
        before = restarts.total
        runlog, buffer = memory_runlog()
        monkeypatch.setattr(_sweep_module, "_compute_cell", _kill_crc_worker)
        with pytest.raises(WorkerDied) as died:
            run_sweep(configs, jobs=2, cache=cache, runlog=runlog)
        monkeypatch.undo()

        lost = died.value.configs
        assert doomed in lost and len(lost) <= 2  # at most `jobs` in flight
        assert "crc/tiny/R9 290X" in str(died.value)
        assert restarts.total - before == 1
        for config in configs:
            if config not in lost:
                assert cache.get(cell_key(config)) is not None
        [done] = _sweep_records(buffer, "sweep_complete")
        assert done["failed"] == len(lost)
        assert done["worker_restarts"] == 1
        assert done["computed"] == len(configs) - len(lost)
        assert sorted(r["key"] for r in _sweep_records(buffer, "cell_failed")
                      ) == sorted(cell_key(c) for c in lost)

        rerun = run_sweep(configs, jobs=2, cache=cache)
        assert (rerun.computed, rerun.cached) == (
            len(lost), len(configs) - len(lost))
        clean = run_sweep(configs, jobs=1)
        assert [result_to_payload(r) for r in rerun.results] == [
            result_to_payload(r) for r in clean.results]


class TestCellPool:
    def test_concurrent_submits_all_resolve(self, monkeypatch):
        """Three workers on fewer cores, two submitting threads and a
        tiny switch interval: every queued cell reaches a worker and
        its own reply, and none is left in the pool's books."""
        import sys
        import threading
        from concurrent.futures import wait

        monkeypatch.setattr(_sweep_module, "_compute_cell", _echo_cell)
        configs = [RunConfig("fft", "tiny", f"dev{i}") for i in range(200)]
        futures = {}
        switch = sys.getswitchinterval()
        pool = _sweep_module.CellPool(3)
        sys.setswitchinterval(1e-6)
        try:
            def submit(part):
                for config in part:
                    futures[pool.submit(config)] = config

            threads = [threading.Thread(target=submit, args=(configs[k::2],))
                       for k in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            _, not_done = wait(futures, timeout=60)
            assert not not_done
        finally:
            sys.setswitchinterval(switch)
            pool.close()
        assert all(f.result() == c for f, c in futures.items())
        assert len(futures) == len(configs)
        assert pool.restarts == 0 and not pool._gen.cells


class TestSerialization:
    def test_result_payload_roundtrip(self):
        result = run_benchmark(RunConfig("fft", "tiny", "i7-6700K", samples=5))
        back = result_from_payload(
            json.loads(json.dumps(result_to_payload(result))))
        np.testing.assert_array_equal(result.times_s, back.times_s)
        np.testing.assert_array_equal(result.energies_j, back.energies_j)
        assert back.validated == result.validated
        assert back.breakdown.bound == result.breakdown.bound
        assert back.breakdown.total_s == pytest.approx(result.breakdown.total_s)
        assert len(back.recorder) == len(result.recorder)
        assert back.recorder.regions == result.recorder.regions
        assert back.footprint_bytes == result.footprint_bytes

    def test_recorder_tags_survive(self):
        result = run_benchmark(RunConfig("fft", "tiny", "i7-6700K", samples=3))
        back = result_from_payload(result_to_payload(result))
        assert back.recorder.to_csv() == result.recorder.to_csv()

    def test_none_recorder_roundtrips(self):
        result = run_benchmark(RunConfig("fft", "tiny", "i7-6700K", samples=3))
        result.recorder = None
        assert result_from_payload(result_to_payload(result)).recorder is None


class TestMatrixIntegration:
    def test_run_matrix_cache_and_jobs_passthrough(self, tmp_path):
        cache = SweepCache(tmp_path)
        a = run_matrix("fft", ["tiny"], ["i7-6700K", "GTX 1080"],
                       samples=4, cache=cache)
        b = run_matrix("fft", ["tiny"], ["i7-6700K", "GTX 1080"],
                       samples=4, cache=cache, jobs=2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.times_s, y.times_s)
        assert len(cache) == 2

    def test_legacy_sweep_name_still_crossover(self):
        """`from repro.harness import sweep` keeps meaning the
        crossover sweep function, not the new engine module."""
        assert callable(crossover_sweep_function)
        assert crossover_sweep_function.__module__ == \
            "repro.harness.crossover"


class TestCLI:
    def test_run_all_sweeps_and_summarises(self, tmp_path, capsys):
        from repro.harness.cli import main
        rc = main(["run", "all", "--size", "tiny", "--samples", "3",
                   "--device", "i7-6700K", "--no-execute",
                   "--jobs", "1", "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fastest device per benchmark x size" in out
        assert "computed" in out and "cached" in out
        # second invocation completes from cache alone
        rc = main(["run", "all", "--size", "tiny", "--samples", "3",
                   "--device", "i7-6700K", "--no-execute",
                   "--jobs", "1", "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 computed" in out

    def test_run_single_with_cache_dir(self, tmp_path, capsys):
        from repro.harness.cli import main
        argv = ["run", "fft", "--size", "tiny", "--device", "i7-6700K",
                "--samples", "3", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "1 computed" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "1 cached" in second
        # the printed measurement is identical, cache or not
        assert first.splitlines()[:8] == second.splitlines()[:8]

    def test_resume_contradicts_no_cache(self, capsys):
        from repro.harness.cli import EXIT_USAGE, main
        rc = main(["run", "all", "--size", "tiny", "--resume", "--no-cache"])
        assert rc == EXIT_USAGE
        assert "--resume" in capsys.readouterr().err

    def test_dead_worker_is_one_line_and_exit_3(self, tmp_path, capsys,
                                                  monkeypatch):
        from repro.harness.cli import EXIT_WORKER_DIED, main
        monkeypatch.setattr(_sweep_module, "_compute_cell", _kill_crc_worker)
        rc = main(["run", "all", "--size", "tiny", "--samples", "3",
                   "--device", "i7-6700K", "--no-execute", "--jobs", "2",
                   "--cache-dir", str(tmp_path)])
        assert rc == EXIT_WORKER_DIED == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "worker process died" in err
        assert "crc/tiny/i7-6700K" in err

    def test_figure_with_cache(self, tmp_path, capsys):
        from repro.harness.cli import main
        argv = ["figure", "5", "--samples", "3", "--jobs", "1",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        registry = default_registry()
        before = registry.counter("sweep_cells_computed_total").total
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert registry.counter("sweep_cells_computed_total").total == before
        assert first == second

    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
