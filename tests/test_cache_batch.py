"""Batch-vs-scalar equivalence for the vectorized simulators.

Every model in :mod:`repro.cache` keeps its original per-address loop
as the scalar oracle (``REPRO_SIM_BATCH=0``) next to the numpy batch
path used by default.  These property tests drive random traces
through both and require *bit-exact* agreement — outcomes, counters,
and the internal LRU/counter state — plus a perf smoke test pinning
the batch path's headroom on a 1M-address trace.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import (
    BranchPredictor,
    CacheHierarchy,
    CacheStats,
    SetAssociativeCache,
    StreamPrefetcher,
    TLB,
    batch_enabled,
    batch_mode,
    scalar_mode,
)
from repro.cache.batch import ENV_VAR, as_addresses

SLOW = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def traces(max_address: int = 1 << 16, max_len: int = 300):
    """Random address traces with enough collisions to evict."""
    return st.lists(st.integers(min_value=0, max_value=max_address),
                    min_size=0, max_size=max_len)


def small_caches():
    """Tiny caches so eviction paths are exercised constantly."""
    return st.builds(
        SetAssociativeCache,
        size_bytes=st.sampled_from([256, 512, 1024, 4096]),
        line_bytes=st.sampled_from([32, 64]),
        associativity=st.sampled_from([1, 2, 4]),
    )


def _clone(cache: SetAssociativeCache) -> SetAssociativeCache:
    return SetAssociativeCache(
        size_bytes=cache.size_bytes, line_bytes=cache.line_bytes,
        associativity=cache.associativity, name=cache.name)


def _stats_tuple(stats: CacheStats) -> tuple[int, int, int]:
    return (stats.accesses, stats.hits, stats.misses)


# ----------------------------------------------------------------------
# SetAssociativeCache
# ----------------------------------------------------------------------
@SLOW
@given(cache=small_caches(), trace=traces())
def test_setassoc_batch_matches_scalar(cache, trace):
    other = _clone(cache)
    with scalar_mode():
        scalar_hits = [cache.access(a) for a in trace]
        scalar_misses = len(trace) - sum(scalar_hits)
    with batch_mode():
        batch_misses = other.access_many(trace)
        batch_hits = other.access_batch(np.asarray([], dtype=np.int64))
    assert batch_misses == scalar_misses
    assert batch_hits.size == 0
    assert _stats_tuple(other.stats) == _stats_tuple(cache.stats)
    # Internal LRU state must match exactly, including recency order.
    assert [list(s) for s in other._sets] == [list(s) for s in cache._sets]


@SLOW
@given(cache=small_caches(), trace=traces())
def test_setassoc_hit_mask_matches_oracle(cache, trace):
    other = _clone(cache)
    with scalar_mode():
        scalar_hits = [cache.access(a) for a in trace]
    mask = other.access_batch(np.asarray(trace, dtype=np.int64))
    assert mask.tolist() == scalar_hits


@SLOW
@given(cache=small_caches(), chunks=st.lists(traces(max_len=60),
                                             min_size=1, max_size=5))
def test_setassoc_scalar_and_batch_interleave(cache, chunks):
    """Both paths share the canonical state, so calls may alternate."""
    other = _clone(cache)
    for i, chunk in enumerate(chunks):
        if i % 2:
            with scalar_mode():
                cache.access_many(chunk)
                other.access_many(chunk)
        else:
            with scalar_mode():
                cache.access_many(chunk)
            with batch_mode():
                other.access_many(chunk)
    assert _stats_tuple(other.stats) == _stats_tuple(cache.stats)
    assert [list(s) for s in other._sets] == [list(s) for s in cache._sets]


# ----------------------------------------------------------------------
# CacheHierarchy
# ----------------------------------------------------------------------
def _small_hierarchy() -> CacheHierarchy:
    return CacheHierarchy([
        SetAssociativeCache(512, line_bytes=64, associativity=2, name="L1"),
        SetAssociativeCache(2048, line_bytes=64, associativity=4, name="L2"),
        SetAssociativeCache(8192, line_bytes=64, associativity=4, name="L3"),
    ])


@SLOW
@given(trace=traces(max_address=1 << 15))
def test_hierarchy_batch_matches_scalar(trace):
    ref, vec = _small_hierarchy(), _small_hierarchy()
    with scalar_mode():
        ref.access_many(trace)
    with batch_mode():
        vec.access_many(trace)
    assert vec.memory_accesses == ref.memory_accesses
    assert vec.miss_counts() == ref.miss_counts()
    for lr, lv in zip(ref.levels, vec.levels):
        assert _stats_tuple(lv.stats) == _stats_tuple(lr.stats)
        assert [list(s) for s in lv._sets] == [list(s) for s in lr._sets]


@SLOW
@given(trace=traces(max_address=1 << 15))
def test_hierarchy_level_walk_matches_interleaved_oracle(trace):
    """``access_many`` walks level by level; ``access`` interleaves.

    Both modes of the level walk must leave the same counters and LRU
    state as the per-address ``access`` walk through all levels.
    """
    oracle = _small_hierarchy()
    for address in trace:
        oracle.access(address)
    for mode in (scalar_mode, batch_mode):
        walked = _small_hierarchy()
        with mode():
            walked.access_many(trace)
        assert walked.memory_accesses == oracle.memory_accesses
        for lo, lw in zip(oracle.levels, walked.levels):
            assert _stats_tuple(lw.stats) == _stats_tuple(lo.stats)
            assert [list(s) for s in lw._sets] == [list(s) for s in lo._sets]


@SLOW
@given(cache=small_caches(), trace=traces())
def test_filter_misses_returns_the_miss_stream_in_order(cache, trace):
    addresses = as_addresses(trace)
    oracle = _clone(cache)
    expected = [a for a in trace if not oracle.access(a)]
    for mode in (scalar_mode, batch_mode):
        replayed = _clone(cache)
        with mode():
            misses = replayed.filter_misses(addresses)
        assert misses.dtype == np.int64
        assert misses.tolist() == expected
        assert _stats_tuple(replayed.stats) == _stats_tuple(oracle.stats)


# ----------------------------------------------------------------------
# TLB — both the capacity shortcut and the eviction fallback
# ----------------------------------------------------------------------
@SLOW
@given(trace=traces(max_address=1 << 17),  # <= 32 pages: shortcut regime
       entries=st.sampled_from([4, 8, 64]))
def test_tlb_batch_matches_scalar(trace, entries):
    ref, vec = TLB(entries=entries), TLB(entries=entries)
    with scalar_mode():
        ref_misses = ref.access_many(trace)
    with batch_mode():
        vec_misses = vec.access_many(trace)
    assert vec_misses == ref_misses
    assert _stats_tuple(vec.stats) == _stats_tuple(ref.stats)
    # The final recency (insertion) order must match, not just the set.
    assert list(vec._pages) == list(ref._pages)


@SLOW
@given(pages=st.lists(st.integers(0, 200), min_size=1, max_size=400))
def test_tlb_eviction_fallback_matches_scalar(pages):
    """Page universe >> entries forces the compressed-replay path."""
    trace = [p * 4096 for p in pages]
    ref, vec = TLB(entries=8), TLB(entries=8)
    with scalar_mode():
        ref.access_many(trace)
    with batch_mode():
        vec.access_many(trace)
    assert _stats_tuple(vec.stats) == _stats_tuple(ref.stats)
    assert list(vec._pages) == list(ref._pages)


def test_tlb_batch_on_warm_state():
    """The shortcut must honour pre-existing resident entries."""
    ref, vec = TLB(entries=6), TLB(entries=6)
    warmup = [i * 4096 for i in (0, 1, 2, 3)]
    trace = [i * 4096 for i in (2, 4, 0, 4, 5)]
    with scalar_mode():
        ref.access_many(warmup)
        vec.access_many(warmup)
        ref.access_many(trace)
    with batch_mode():
        vec.access_many(trace)
    assert _stats_tuple(vec.stats) == _stats_tuple(ref.stats)
    assert list(vec._pages) == list(ref._pages)


# ----------------------------------------------------------------------
# Branch predictor
# ----------------------------------------------------------------------
@SLOW
@given(n=st.integers(0, 400), data=st.data())
def test_branch_batch_matches_scalar(n, data):
    pcs = data.draw(st.lists(st.integers(0, 1 << 20),
                             min_size=n, max_size=n))
    outcomes = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ref, vec = BranchPredictor(table_size=64), BranchPredictor(table_size=64)
    with scalar_mode():
        ref_mis = ref.run_trace(pcs, outcomes)
    with batch_mode():
        vec_mis = vec.run_trace(pcs, outcomes)
    assert vec_mis == ref_mis
    assert vec.branches == ref.branches
    assert vec.mispredictions == ref.mispredictions
    assert np.array_equal(vec._table, ref._table)


def test_branch_long_runs_saturate_identically():
    """Closed-form run updates must clamp exactly like the oracle."""
    pcs = [0x40] * 500 + [0x40] * 500
    outcomes = [True] * 500 + [False] * 500
    ref, vec = BranchPredictor(), BranchPredictor()
    with scalar_mode():
        ref.run_trace(pcs, outcomes)
    with batch_mode():
        vec.run_trace(pcs, outcomes)
    assert vec.mispredictions == ref.mispredictions
    assert np.array_equal(vec._table, ref._table)


# ----------------------------------------------------------------------
# Prefetcher
# ----------------------------------------------------------------------
@SLOW
@given(trace=traces(max_address=1 << 14, max_len=200))
def test_prefetcher_batch_matches_scalar(trace):
    ref = StreamPrefetcher(_small_hierarchy(), streams=2, depth=2)
    vec = StreamPrefetcher(_small_hierarchy(), streams=2, depth=2)
    with scalar_mode():
        ref.access_many(trace)
    with batch_mode():
        vec.access_many(trace)
    assert vars(vec.stats) == vars(ref.stats)
    assert vec.hierarchy.miss_counts() == ref.hierarchy.miss_counts()
    assert vec._prefetched_lines == ref._prefetched_lines


# ----------------------------------------------------------------------
# Toggle and coercion plumbing
# ----------------------------------------------------------------------
def test_batch_toggle_env_values(monkeypatch):
    for value in ("0", "false", "OFF", " no "):
        monkeypatch.setenv(ENV_VAR, value)
        assert not batch_enabled()
    for value in ("1", "true", "on", ""):
        monkeypatch.setenv(ENV_VAR, value)
        assert batch_enabled()
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert batch_enabled()  # default is on


def test_mode_context_managers_restore_prior(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "0")
    with batch_mode():
        assert batch_enabled()
        with scalar_mode():
            assert not batch_enabled()
        assert batch_enabled()
    assert not batch_enabled()


def test_as_addresses_accepts_every_iterable():
    expected = [1, 2, 3]
    for source in ([1, 2, 3], (1, 2, 3), range(1, 4),
                   np.array([1, 2, 3], dtype=np.int32),
                   np.array([1.0, 2.0, 3.0]),
                   (x for x in [1, 2, 3])):
        arr = as_addresses(source)
        assert arr.dtype == np.int64
        assert arr.ndim == 1
        assert arr.tolist() == expected
    assert as_addresses([]).size == 0


# ----------------------------------------------------------------------
# CacheStats boundary behaviour
# ----------------------------------------------------------------------
def test_cache_stats_record_batch_coerces_numpy_ints():
    stats = CacheStats()
    stats.record_batch(np.int64(10), np.int64(7))
    assert (stats.accesses, stats.hits, stats.misses) == (10, 7, 3)
    for value in vars(stats).values():
        assert type(value) is int
    # Must stay JSON-native after batch updates.
    json.dumps(vars(stats))


def test_cache_stats_stay_python_int_through_batch_access():
    cache = SetAssociativeCache(512, associativity=2)
    with batch_mode():
        cache.access_many(np.arange(0, 8192, 64, dtype=np.int64))
    for value in vars(cache.stats).values():
        assert type(value) is int
    json.dumps(vars(cache.stats))


def test_cache_stats_reset_zeroes_independently():
    stats = CacheStats(accesses=5, hits=3, misses=2)
    stats.reset()
    assert (stats.accesses, stats.hits, stats.misses) == (0, 0, 0)
    stats.hits = 1
    assert stats.accesses == 0 and stats.misses == 0


# ----------------------------------------------------------------------
# Perf smoke: 1M addresses under a generous wall bound
# ----------------------------------------------------------------------
def test_batch_perf_smoke_one_million_addresses():
    rng = np.random.default_rng(7)
    sequential = np.arange(0, 700_000 * 4, 4, dtype=np.int64)
    random_part = rng.integers(0, 1 << 26, size=300_000, dtype=np.int64)
    trace = np.concatenate([sequential, random_part])
    assert trace.size == 1_000_000
    hierarchy = _small_hierarchy()
    tlb = TLB(entries=64)
    start = time.perf_counter()
    with batch_mode():
        hierarchy.access_many(trace)
        tlb.access_many(trace)
    elapsed = time.perf_counter() - start
    assert hierarchy.levels[0].stats.accesses == 1_000_000
    assert tlb.stats.accesses == 1_000_000
    # Generous: the batch path does this in well under a second on any
    # plausible host; the scalar oracle takes tens of seconds.
    assert elapsed < 30.0, f"batch path took {elapsed:.1f}s on 1M addresses"
