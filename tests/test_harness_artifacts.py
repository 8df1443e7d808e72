"""Memoized counter-replay artifacts and the per-cell counter simulation.

Covers the in-process memo keyed by the (benchmark, size, trace
length) shape, the determinism and JSON-nativeness of
``simulate_cell_counters``, its per-geometry replay against the
``PapiEventSet`` oracle, and the ``counters`` field riding along in
cached sweep payloads.
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
    branch_trace,
    clear_memo,
    get_cell_artifacts,
    simulate_cell_counters,
)
from repro.harness.runner import RunConfig, run_benchmark
from repro.harness.sweep import result_from_payload, result_to_payload
from repro.sizing.verify import scaled_spec, touched_bytes
from repro.telemetry.metrics import default_registry
from tests.cache_oracles import cache_access, predict_and_update, tlb_access


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


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
    assert first.footprint_bytes > 0


def test_memo_key_is_the_shape_tuple():
    first = get_cell_artifacts("csr", "tiny", trace_len=512)
    assert list(art._memo) == [("csr", "tiny", 512)]
    assert get_cell_artifacts("csr", "tiny", trace_len=512) is first
    for shape in (("csr", "small", 512), ("fft", "tiny", 512),
                  ("csr", "tiny", 10)):
        assert get_cell_artifacts(*shape) is not first
    assert len(art._memo) == 4


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(art, "_MEMO_MAX", 2)
    for size in ("tiny", "small", "medium"):
        get_cell_artifacts("crc", size, trace_len=256)
    assert len(art._memo) == 2
    # Oldest shape (tiny) was trimmed; newest two remain.
    assert list(art._memo) == [("crc", "small", 256), ("crc", "medium", 256)]


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
    assert first["PAPI_BR_INS"] == int(artifacts.trace.size)
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
        events.record_branch_trace(*branch_trace(int(artifacts.trace.size)))
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
    """Route every trace entry point through the per-address oracles."""

    def filter_misses(self, addresses):
        hits = cache_access(self, addresses.tolist())
        return addresses[~np.asarray(hits, dtype=bool)]

    def access_many(self, addresses):
        return tlb_access(self, as_addresses(addresses).tolist()).count(False)

    def run_trace(self, pcs, outcomes):
        before = self.mispredictions
        predict_and_update(self, np.asarray(pcs).tolist(),
                           np.asarray(outcomes, dtype=bool).tolist())
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


def test_per_address_oracles_are_reached_after_clear_memo(
        per_address_oracles, monkeypatch):
    """Memoized branch counts and per-instance counts do not outlive
    ``clear_memo``, so the oracles answer for an instance counted
    before it (as the module's ``oracle_shapes`` are)."""
    branch_calls, tlb_calls = [], []
    oracle_run_trace = BranchPredictor.run_trace
    oracle_access_many = TLB.access_many

    def branch_counting(self, pcs, outcomes):
        branch_calls.append(len(pcs))
        return oracle_run_trace(self, pcs, outcomes)

    def tlb_counting(self, addresses):
        tlb_calls.append(len(addresses))
        return oracle_access_many(self, addresses)

    monkeypatch.setattr(BranchPredictor, "run_trace", branch_counting)
    monkeypatch.setattr(TLB, "access_many", tlb_counting)
    artifacts = get_cell_artifacts("crc", "tiny", trace_len=2048)
    spec = get_device("i7-6700K")
    first = simulate_cell_counters(spec, artifacts)
    n = int(artifacts.trace.size)
    assert branch_calls == tlb_calls == [n]
    assert simulate_cell_counters(get_device("GTX 1080"), artifacts)
    assert branch_calls == tlb_calls == [n]  # counted once per instance
    clear_memo()
    assert simulate_cell_counters(spec, artifacts) == first
    assert branch_calls == tlb_calls == [n, n]


#: Three shapes, well within the memo, interleaved in serve order.
ORDER_SHAPES = (("crc", "tiny"), ("fft", "small"), ("hmm", "small"))


def test_counters_do_not_depend_on_cell_order(monkeypatch):
    """Serve order (shapes round-robin) and shape-sorted order give the
    same counters, with one TLB replay per artifacts instance."""
    replayed = []
    real_access_many = TLB.access_many

    def counting(self, addresses):
        replayed.append(addresses)
        return real_access_many(self, addresses)

    monkeypatch.setattr(TLB, "access_many", counting)
    names = device_names()

    def counters(cells):
        clear_memo()
        replayed.clear()
        instances, got = {}, {}
        for (benchmark, size), name in cells:
            artifacts = instances[benchmark, size] = get_cell_artifacts(
                benchmark, size)
            got[benchmark, size, name] = simulate_cell_counters(
                get_device(name), artifacts)
        traces = sorted(id(a.trace) for a in instances.values())
        assert sorted(id(t) for t in replayed) == traces
        return got

    serve_order = [(shape, name) for name in names for shape in ORDER_SHAPES]
    sorted_order = [(shape, name) for shape in ORDER_SHAPES for name in names]
    by_serve = counters(serve_order)
    by_shape = counters(sorted_order)
    assert len(by_serve) == len(ORDER_SHAPES) * len(names) == 45
    assert by_serve == by_shape


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


def test_run_benchmark_attaches_counters():
    config = RunConfig(benchmark="crc", size="tiny", device="i7-6700K",
                       samples=3, min_loop_seconds=0.0)
    result = run_benchmark(config)
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
