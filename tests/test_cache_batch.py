"""Batch-vs-oracle equivalence for the vectorized simulators.

Every model in :mod:`repro.cache` has one trace entry point, a numpy
batch path.  Its oracle is the per-address walk in
:mod:`tests.cache_oracles`, over the same state.  These property tests
drive random traces through the batch path and through the oracle and
require *bit-exact* agreement — outcomes, counters, and the LRU/counter
state — plus a perf smoke test pinning the batch path's headroom on a
1M-address trace.
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
    TLB,
)
from repro.cache import setassoc
from repro.cache.setassoc import as_addresses
from tests.cache_oracles import (
    cache_access,
    hierarchy_access,
    predict_and_update,
    tlb_access,
)

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


def _oracle_branches(predictor: BranchPredictor, pcs, outcomes) -> int:
    """Walk a branch trace through the oracle; new mispredictions."""
    before = predictor.mispredictions
    predict_and_update(predictor, pcs, outcomes)
    return predictor.mispredictions - before


# ----------------------------------------------------------------------
# SetAssociativeCache
# ----------------------------------------------------------------------
@SLOW
@given(cache=small_caches(), trace=traces())
def test_setassoc_batch_matches_scalar(cache, trace):
    other = _clone(cache)
    scalar_hits = cache_access(cache, trace)
    scalar_misses = len(trace) - sum(scalar_hits)
    batch_misses = other.access_many(trace)
    batch_hits = other.access_batch(np.asarray([], dtype=np.int64))
    assert batch_misses == scalar_misses
    assert batch_hits.size == 0
    assert _stats_tuple(other.stats) == _stats_tuple(cache.stats)
    # The LRU state must match exactly, including recency order.
    assert other.resident.tolist() == cache.resident.tolist()


@SLOW
@given(cache=small_caches(), trace=traces())
def test_setassoc_hit_mask_matches_oracle(cache, trace):
    other = _clone(cache)
    scalar_hits = cache_access(cache, trace)
    mask = other.access_batch(np.asarray(trace, dtype=np.int64))
    assert mask.tolist() == scalar_hits


@SLOW
@given(cache=small_caches(), chunks=st.lists(traces(max_len=60),
                                             min_size=1, max_size=5))
def test_setassoc_scalar_and_batch_interleave(cache, chunks):
    """Both paths share the ``resident`` state, so calls may alternate."""
    other = _clone(cache)
    for i, chunk in enumerate(chunks):
        cache_access(cache, chunk)
        if i % 2:
            cache_access(other, chunk)
        else:
            other.access_many(chunk)
    assert _stats_tuple(other.stats) == _stats_tuple(cache.stats)
    assert other.resident.tolist() == cache.resident.tolist()


def _geometry_cache(sets: int, ways: int, line: int) -> SetAssociativeCache:
    return SetAssociativeCache(sets * ways * line, line_bytes=line,
                               associativity=ways)


def geometry_caches():
    """One-set, 12-way and 16-way caches next to the small common shapes."""
    return st.builds(_geometry_cache, sets=st.sampled_from([1, 2, 8]),
                     ways=st.sampled_from([1, 2, 3, 4, 12, 16]),
                     line=st.sampled_from([32, 64]))


@st.composite
def lookback_traces(draw, cache: SetAssociativeCache):
    """Fewer hot lines than ways, with cold lines reused after long stretches.

    Every line maps to one set, so a cold line's reuse window holds many
    positions but few distinct lines: the replay has to look far back
    to tell hit from miss.
    """
    ways, sets, line = cache.associativity, cache.n_sets, cache.line_bytes
    set_index = draw(st.integers(0, sets - 1))
    hot = draw(st.integers(1, max(1, ways - 1)))
    cold = draw(st.integers(1, ways + 2))
    segments = draw(st.lists(
        st.tuples(st.integers(0, cold - 1), st.integers(ways, 4 * ways + 40)),
        min_size=1, max_size=12))
    ids = []
    for c, length in segments:
        ids.append(hot + c)
        ids.extend(i % hot for i in range(length))
    return [(i * sets + set_index) * line for i in ids]


def _assert_batch_equals_oracle(cache, chunks, batch_chunks) -> list[bool]:
    """Replay ``chunks`` through an oracle and a clone; batch where asked.

    Returns the last chunk's hit outcomes.
    """
    other = _clone(cache)
    got: list[bool] = []
    for i, chunk in enumerate(chunks):
        want = cache_access(cache, chunk)
        if i in batch_chunks:
            got = other.access_batch(np.asarray(chunk, dtype=np.int64)).tolist()
        else:
            got = cache_access(other, chunk)
        assert got == want
        assert _stats_tuple(other.stats) == _stats_tuple(cache.stats)
        assert other.resident.tolist() == cache.resident.tolist()
    return got


@SLOW
@given(cache=geometry_caches(), data=st.data())
def test_setassoc_prepopulated_interleaved_matches_oracle(cache, data):
    """Batch calls on warm state left by scalar calls, and vice versa."""
    span = 4 * cache.n_sets * cache.associativity * cache.line_bytes
    chunks = data.draw(st.lists(traces(max_address=span, max_len=80),
                                min_size=2, max_size=6))
    batch_chunks = data.draw(st.sets(st.integers(1, len(chunks) - 1)))
    _assert_batch_equals_oracle(cache, chunks, batch_chunks)


@SLOW
@given(cache=geometry_caches(), data=st.data())
def test_setassoc_lookback_heavy_matches_oracle(cache, data):
    chunks = [data.draw(lookback_traces(cache)) for _ in range(2)]
    _assert_batch_equals_oracle(cache, chunks, {0, 1})


@SLOW
@given(cache=geometry_caches(), data=st.data())
def test_setassoc_lookback_in_narrow_blocks_matches_oracle(cache, data):
    """A tiny block budget splits every look-back into many short steps."""
    chunks = [data.draw(lookback_traces(cache)),
              data.draw(traces(max_address=1 << 12))]
    budget = setassoc._LOOKBACK_BUDGET
    setassoc._LOOKBACK_BUDGET = 3
    try:
        _assert_batch_equals_oracle(cache, chunks, {0, 1})
    finally:
        setassoc._LOOKBACK_BUDGET = budget


@pytest.mark.parametrize("ways", [2, 3, 4, 12, 16])
@pytest.mark.parametrize("sets", [1, 8])
def test_setassoc_far_reuse_at_the_associativity_boundary(ways, sets):
    """A line comes back after many positions holding A-1 or A lines."""
    for distinct, hit in ((ways - 1, True), (ways, False)):
        ids = [ways + 1] + list(range(distinct)) * 3 + [ways + 1]
        trace = [i * sets * 64 for i in ids]
        hits = _assert_batch_equals_oracle(_geometry_cache(sets, ways, 64),
                                           [trace], {0})
        assert hits[-1] is hit


def _one_set_adversary(rounds: int, alternations: int) -> np.ndarray:
    """Cold lines c0-c7, each followed by a hot pair's alternations.

    All in one set of a 16-way cache: each cold line comes back after
    ``8 * 2 * alternations`` positions that hold only 9 other lines.
    """
    sets = 64
    block = []
    for cold in range(8):
        block.append(2 + cold)
        block.extend([0, 1] * alternations)
    return np.asarray(block * rounds, dtype=np.int64) * (sets * 64)


def test_setassoc_one_set_adversary_matches_oracle():
    trace = _one_set_adversary(rounds=3, alternations=40)
    cache = SetAssociativeCache(64 * 16 * 64, line_bytes=64, associativity=16)
    _assert_batch_equals_oracle(cache, [trace.tolist()], {0})
    assert cache.stats.misses == 10  # 8 cold + 2 hot, all first uses


def test_setassoc_one_set_adversary_wall_bound():
    trace = _one_set_adversary(rounds=4, alternations=20_000)
    assert trace.size == 1_280_032
    cache = SetAssociativeCache(64 * 16 * 64, line_bytes=64, associativity=16)
    start = time.perf_counter()
    misses = cache.access_many(trace)
    elapsed = time.perf_counter() - start
    assert misses == 10
    # Set 0 holds line i * 64 of each id i, LRU to MRU.
    assert cache.resident.tolist() == [
        i * 64 for i in (2, 3, 4, 5, 6, 7, 8, 9, 0, 1)]
    # Generous, like the 1M smoke test below: well under a second on
    # any plausible host.
    assert elapsed < 30.0, f"one-set adversary took {elapsed:.1f}s"


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
    """The level walk against each level's oracle over its input."""
    ref, vec = _small_hierarchy(), _small_hierarchy()
    pending = list(trace)
    for cache in ref.levels:
        pending = [a for a, hit in zip(pending, cache_access(cache, pending))
                   if not hit]
    assert vec.access_many(trace).tolist() == pending
    assert vec.memory_accesses == len(pending)
    assert vec.miss_counts() == ref.miss_counts()
    for lr, lv in zip(ref.levels, vec.levels):
        assert _stats_tuple(lv.stats) == _stats_tuple(lr.stats)
        assert lv.resident.tolist() == lr.resident.tolist()


@SLOW
@given(trace=traces(max_address=1 << 15))
def test_hierarchy_level_walk_matches_interleaved_oracle(trace):
    """``access_many`` walks level by level; the oracle interleaves.

    The level walk must leave the same counters and LRU state as the
    per-address walk through all levels.
    """
    oracle = _small_hierarchy()
    hierarchy_access(oracle, trace)
    walked = _small_hierarchy()
    walked.access_many(trace)
    assert walked.memory_accesses == oracle.memory_accesses
    for lo, lw in zip(oracle.levels, walked.levels):
        assert _stats_tuple(lw.stats) == _stats_tuple(lo.stats)
        assert lw.resident.tolist() == lo.resident.tolist()


@SLOW
@given(cache=small_caches(), trace=traces())
def test_filter_misses_returns_the_miss_stream_in_order(cache, trace):
    addresses = as_addresses(trace)
    oracle = _clone(cache)
    expected = [a for a, hit in zip(trace, cache_access(oracle, trace))
                if not hit]
    replayed = _clone(cache)
    misses = replayed.filter_misses(addresses)
    assert misses.dtype == np.int64
    assert misses.tolist() == expected
    assert _stats_tuple(replayed.stats) == _stats_tuple(oracle.stats)
    assert replayed.resident.tolist() == oracle.resident.tolist()


# ----------------------------------------------------------------------
# TLB — both the capacity shortcut and the eviction fallback
# ----------------------------------------------------------------------
@SLOW
@given(trace=traces(max_address=1 << 17),  # <= 32 pages: shortcut regime
       entries=st.sampled_from([4, 8, 64]))
def test_tlb_batch_matches_scalar(trace, entries):
    ref, vec = TLB(entries=entries), TLB(entries=entries)
    ref_misses = len(trace) - sum(tlb_access(ref, trace))
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
    tlb_access(ref, trace)
    vec.access_many(trace)
    assert _stats_tuple(vec.stats) == _stats_tuple(ref.stats)
    assert list(vec._pages) == list(ref._pages)


def test_tlb_batch_on_warm_state():
    """The shortcut must honour pre-existing resident entries."""
    ref, vec = TLB(entries=6), TLB(entries=6)
    warmup = [i * 4096 for i in (0, 1, 2, 3)]
    trace = [i * 4096 for i in (2, 4, 0, 4, 5)]
    tlb_access(ref, warmup)
    tlb_access(vec, warmup)
    tlb_access(ref, trace)
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
    ref_mis = _oracle_branches(ref, pcs, outcomes)
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
    _oracle_branches(ref, pcs, outcomes)
    vec.run_trace(pcs, outcomes)
    assert vec.mispredictions == ref.mispredictions
    assert np.array_equal(vec._table, ref._table)


# ----------------------------------------------------------------------
# Address coercion
# ----------------------------------------------------------------------
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
    hierarchy.access_many(trace)
    tlb.access_many(trace)
    elapsed = time.perf_counter() - start
    assert hierarchy.levels[0].stats.accesses == 1_000_000
    assert tlb.stats.accesses == 1_000_000
    # Generous: the batch path does this in well under a second on any
    # plausible host; the scalar oracle takes tens of seconds.
    assert elapsed < 30.0, f"batch path took {elapsed:.1f}s on 1M addresses"
