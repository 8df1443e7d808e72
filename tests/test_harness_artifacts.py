"""Memoized analysis artifacts and the per-cell counter simulation.

Covers the content-addressed artifact key, the in-process memo and
the SweepCache npz persistence layer (round-trip, corruption-as-miss),
the determinism and JSON-nativeness of ``simulate_cell_counters``,
its per-geometry replay against the ``PapiEventSet`` oracle, and the
``counters`` field riding along in cached sweep payloads.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from repro.cache.branch import BranchPredictor
from repro.cache.setassoc import SetAssociativeCache, as_addresses
from repro.cache.tlb import TLB
from repro.counters.papi import PapiEventSet
from repro.devices import get_device
from repro.devices.catalog import device_names
from repro.harness import artifacts as art
from repro.harness.artifacts import (
    ARTIFACT_VERSION,
    CellArtifacts,
    artifact_key,
    clear_memo,
    get_cell_artifacts,
    simulate_cell_counters,
)
from repro.harness.runner import RunConfig, RunResult, run_benchmark
from repro.harness.sweep import (
    SweepCache,
    result_from_payload,
    result_to_payload,
)
from repro.sizing.verify import scaled_spec, touched_bytes
from repro.telemetry.metrics import default_registry


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_artifact_key_is_stable_and_discriminating():
    k = artifact_key("csr", "tiny")
    assert k == artifact_key("csr", "tiny")
    assert len(k) == 64 and set(k) <= set("0123456789abcdef")
    assert k != artifact_key("csr", "small")
    assert k != artifact_key("fft", "tiny")
    assert k != artifact_key("csr", "tiny", trace_len=10)


def test_artifact_key_depends_on_version(monkeypatch):
    before = artifact_key("csr", "tiny")
    monkeypatch.setattr(art, "ARTIFACT_VERSION", ARTIFACT_VERSION + "-next")
    assert artifact_key("csr", "tiny") != before


# ----------------------------------------------------------------------
# Memo and computation
# ----------------------------------------------------------------------
def test_get_cell_artifacts_memoizes(monkeypatch):
    calls = []
    real_compute = art._compute

    def counting(benchmark, size, trace_len):
        calls.append((benchmark, size))
        return real_compute(benchmark, size, trace_len)

    monkeypatch.setattr(art, "_compute", counting)
    first = get_cell_artifacts("csr", "tiny", trace_len=512)
    second = get_cell_artifacts("csr", "tiny", trace_len=512)
    assert second is first
    assert calls == [("csr", "tiny")]
    assert first.trace.dtype == np.int64
    assert first.trace.size <= 512
    assert first.branch_pcs.shape == first.branch_outcomes.shape
    assert first.footprint_bytes > 0
    assert isinstance(first.static_bytes, int) and first.static_bytes > 0


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(art, "_MEMO_MAX", 2)
    for size in ("tiny", "small", "medium"):
        get_cell_artifacts("crc", size, trace_len=256)
    assert len(art._memo) == 2
    # Oldest shape (tiny) was trimmed; newest two remain.
    assert artifact_key("crc", "tiny", 256) not in art._memo


# ----------------------------------------------------------------------
# SweepCache persistence
# ----------------------------------------------------------------------
def _equal_artifacts(a: CellArtifacts, b: CellArtifacts) -> bool:
    return (
        (a.benchmark, a.size, a.trace_len,
         a.footprint_bytes, a.static_bytes, a.strides)
        == (b.benchmark, b.size, b.trace_len,
            b.footprint_bytes, b.static_bytes, b.strides)
        and np.array_equal(a.trace, b.trace)
        and np.array_equal(a.branch_pcs, b.branch_pcs)
        and np.array_equal(a.branch_outcomes, b.branch_outcomes)
    )


def test_artifact_npz_round_trip(tmp_path):
    cache = SweepCache(tmp_path)
    original = get_cell_artifacts("csr", "tiny", trace_len=512)
    key = artifact_key("csr", "tiny", 512)
    path = cache.put_artifact(key, original)
    assert path == cache.artifact_path_for(key)
    assert path.suffix == ".npz"
    loaded = cache.get_artifact(key)
    assert loaded is not None
    assert _equal_artifacts(loaded, original)


def test_artifact_cache_feeds_the_memo(tmp_path, monkeypatch):
    cache = SweepCache(tmp_path)
    key = artifact_key("csr", "tiny", 512)
    cache.put_artifact(key, get_cell_artifacts("csr", "tiny", trace_len=512))
    clear_memo()

    def explode(*_args):  # a warm cache must not recompute
        raise AssertionError("recomputed despite persistent cache hit")

    monkeypatch.setattr(art, "_compute", explode)
    loaded = get_cell_artifacts("csr", "tiny", trace_len=512, cache=cache)
    assert loaded.benchmark == "csr"


def test_artifact_corruption_is_a_miss(tmp_path):
    cache = SweepCache(tmp_path)
    key = artifact_key("csr", "tiny", 512)
    path = cache.artifact_path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"not an npz archive")
    assert cache.get_artifact(key) is None
    assert cache.get_artifact(artifact_key("fft", "tiny")) is None  # absent


def test_v1_artifact_meta_is_a_miss(tmp_path):
    """Entries whose meta lacks a field (older layouts) reload as a miss."""
    cache = SweepCache(tmp_path)
    original = get_cell_artifacts("csr", "tiny", trace_len=512)
    key = artifact_key("csr", "tiny", 512)
    path = cache.put_artifact(key, original)
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        arrays = {k: data[k] for k in ("trace", "branch_pcs",
                                       "branch_outcomes")}
    del meta["strides"]
    np.savez_compressed(path, meta=np.asarray(json.dumps(meta)), **arrays)
    assert cache.get_artifact(key) is None


def test_torn_artifact_npz_is_a_miss(tmp_path):
    """Half an npz (zip magic intact) is a miss, as for result entries."""
    cache = SweepCache(tmp_path)
    key = artifact_key("csr", "tiny", 512)
    path = cache.put_artifact(key, get_cell_artifacts("csr", "tiny",
                                                      trace_len=512))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert cache.get_artifact(key) is None


def test_result_cache_len_ignores_artifacts(tmp_path):
    cache = SweepCache(tmp_path)
    assert len(cache) == 0
    cache.put_artifact(artifact_key("csr", "tiny", 512),
                       get_cell_artifacts("csr", "tiny", trace_len=512))
    assert len(cache) == 0


# ----------------------------------------------------------------------
# Counter simulation
# ----------------------------------------------------------------------
def test_simulate_cell_counters_is_deterministic_and_json_native():
    spec = get_device("i7-6700K")
    artifacts = get_cell_artifacts("csr", "tiny", trace_len=512)
    first = simulate_cell_counters(spec, artifacts)
    second = simulate_cell_counters(spec, artifacts)
    assert first == second
    assert first["PAPI_TOT_INS"] > 0
    assert first["PAPI_BR_INS"] == int(artifacts.branch_pcs.size)
    for name, value in first.items():
        assert type(value) is int, name
    json.dumps(first)


# ----------------------------------------------------------------------
# Per-geometry replay against the PapiEventSet oracle
# ----------------------------------------------------------------------
#: crc tiny fits every cache; hmm small replays on a hierarchy scaled by
#: 0.135; fft small walks 14 distinct geometry prefixes.
ORACLE_SHAPES = (("crc", "tiny"), ("hmm", "small"), ("fft", "small"))


def _oracle_counters(spec, artifacts) -> dict[str, int]:
    """A fresh ``PapiEventSet`` replay on the scaled spec, per cell."""
    factor = min(1.0, touched_bytes(artifacts.trace)
                 / max(artifacts.footprint_bytes, 1))
    events = PapiEventSet(scaled_spec(spec, factor))
    events.start()
    if artifacts.trace.size:
        events.record_memory_trace(artifacts.trace)
    if artifacts.branch_pcs.size:
        events.record_branch_trace(artifacts.branch_pcs,
                                   artifacts.branch_outcomes)
    return {name: int(value)
            for name, value in events.stop().counts.items()}


@pytest.fixture(scope="module")
def oracle_shapes():
    """``[(artifacts, {device: oracle counts})]`` for ORACLE_SHAPES."""
    clear_memo()
    shapes = []
    for benchmark, size in ORACLE_SHAPES:
        artifacts = get_cell_artifacts(benchmark, size)
        shapes.append((artifacts, {
            name: _oracle_counters(get_device(name), artifacts)
            for name in device_names()}))
    return shapes


def _assert_matches_oracle(artifacts, expected: dict) -> None:
    for name, counts in expected.items():
        got = simulate_cell_counters(get_device(name), artifacts)
        assert got == counts, (artifacts.benchmark, artifacts.size, name)
        assert list(got) == list(counts)


def test_counters_match_oracle_device_major(oracle_shapes):
    for artifacts, expected in oracle_shapes:
        _assert_matches_oracle(artifacts, expected)


def test_counters_match_oracle_shape_interleaved(oracle_shapes):
    (a, expected_a), (b, expected_b), _ = oracle_shapes
    for name in device_names():
        spec = get_device(name)
        assert simulate_cell_counters(spec, a) == expected_a[name]
        assert simulate_cell_counters(spec, b) == expected_b[name]
        assert simulate_cell_counters(spec, a) == expected_a[name]


def test_counters_key_on_the_trace_not_its_name(oracle_shapes):
    """A ``dataclasses.replace`` twin shares the name, not the trace.

    The rotated trace has the same length and footprint, hence the
    same scale factor and geometry prefixes, but different misses.
    """
    differs = 0
    for artifacts, expected in oracle_shapes:
        _assert_matches_oracle(artifacts, expected)
        twin = dataclasses.replace(
            artifacts, trace=np.roll(artifacts.trace, artifacts.trace.size // 3))
        for name in device_names():
            spec = get_device(name)
            want = _oracle_counters(spec, twin)
            assert simulate_cell_counters(spec, twin) == want, name
            differs += want != expected[name]
        _assert_matches_oracle(artifacts, expected)
    assert differs


@pytest.fixture
def per_address_oracles(monkeypatch):
    """Route every trace entry point through the per-address methods."""

    def filter_misses(self, addresses):
        return np.asarray([a for a in addresses.tolist()
                           if not self.access(a)], dtype=np.int64)

    def access_many(self, addresses):
        before = self.stats.misses
        for a in as_addresses(addresses).tolist():
            self.access(a)
        return self.stats.misses - before

    def run_trace(self, pcs, outcomes):
        before = self.mispredictions
        for pc, taken in zip(np.asarray(pcs).tolist(),
                             np.asarray(outcomes, dtype=bool).tolist()):
            self.predict_and_update(pc, taken)
        return self.mispredictions - before

    monkeypatch.setattr(SetAssociativeCache, "filter_misses", filter_misses)
    monkeypatch.setattr(TLB, "access_many", access_many)
    monkeypatch.setattr(BranchPredictor, "run_trace", run_trace)
    clear_memo()  # no replay memoized by the batch path may answer
    yield
    clear_memo()


def test_counters_match_per_address_oracle(oracle_shapes,
                                           per_address_oracles):
    for artifacts, expected in oracle_shapes:
        _assert_matches_oracle(artifacts, expected)


def test_counter_replay_memo_holds_one_instance():
    a = get_cell_artifacts("crc", "tiny", trace_len=4096)
    b = get_cell_artifacts("fft", "tiny", trace_len=4096)
    spec = get_device("i7-6700K")
    simulate_cell_counters(spec, a)
    held_a = weakref.ref(art._replay)
    assert held_a().artifacts is a and held_a().levels
    simulate_cell_counters(spec, b)
    gc.collect()
    assert held_a() is None  # a's miss streams went with the switch
    assert art._replay.artifacts is b
    held_b = weakref.ref(art._replay)
    clear_memo()
    gc.collect()
    assert art._replay is None and held_b() is None


def test_counter_levels_metric_counts_replays_and_reuse():
    artifacts = get_cell_artifacts("crc", "tiny")
    family = default_registry().counter("harness_counter_levels_total")
    before = {outcome: family.value(outcome=outcome)
              for outcome in ("replayed", "reused")}
    for name in device_names():
        simulate_cell_counters(get_device(name), artifacts)
    replayed = family.value(outcome="replayed") - before["replayed"]
    reused = family.value(outcome="reused") - before["reused"]
    walked = sum(min(len(get_device(name).caches), 3)
                 for name in device_names())
    assert replayed == 10  # distinct geometry prefixes over 15 devices
    assert replayed + reused == walked
    assert 'outcome="reused"' in default_registry().expose()


def test_run_benchmark_attaches_counters(tmp_path):
    config = RunConfig(benchmark="crc", size="tiny", device="i7-6700K",
                       samples=3, min_loop_seconds=0.0)
    result = run_benchmark(config, artifact_cache=SweepCache(tmp_path))
    assert result.counters is not None
    assert result.counters["PAPI_TOT_INS"] > 0
    json.dumps(result.counters)


def test_counters_survive_payload_round_trip(tmp_path):
    config = RunConfig(benchmark="crc", size="tiny", device="i7-6700K",
                       samples=3, min_loop_seconds=0.0)
    result = run_benchmark(config)
    payload = result_to_payload(result)
    assert payload["counters"] == result.counters
    restored = result_from_payload(payload)
    assert restored.counters == result.counters
    # Pre-counter payloads (model_version "1" era) load as None.
    del payload["counters"]
    assert result_from_payload(payload).counters is None
