"""Memoized per-(benchmark, size) counter-replay artifacts.

Every sweep cell replays a representative access trace through the
PAPI counter simulator.  The trace depends only on the (benchmark,
size, trace-length) shape — not on the device or the measurement
protocol — so this module builds it once per shape and keeps it in a
small **in-process LRU memo** keyed by that tuple (a full matrix
sweeps every device of one (benchmark, size) back to back; pool
workers each touch few shapes).  Nothing is persisted: rebuilding a
shape's trace is cheaper than reading it back from disk.

:func:`simulate_cell_counters` replays the memoized traces through
the PAPI counter simulator (scaled-hierarchy technique shared with
:mod:`repro.sizing.verify`), producing the per-cell counter dict the
runner attaches to each :class:`~repro.harness.runner.RunResult`.
It shares work across the devices of one shape: the TLB and branch
counts once per artifacts instance, each cache level once per
geometry prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..devices.specs import DeviceSpec
from ..dwarfs.registry import get_benchmark
from ..telemetry.metrics import default_registry
from ..telemetry.tracer import get_tracer

#: Trace length replayed per cell (matches repro.sizing.verify).
DEFAULT_TRACE_LEN = 120_000

#: In-process memo capacity (insertion-ordered LRU).
_MEMO_MAX = 16

#: Synthetic branch-trace model: one loop branch, taken 63 of every
#: 64 iterations — the classic inner-loop pattern the bimodal
#: predictor is built for.
_BRANCH_PC = 0x400000
_BRANCH_PERIOD = 64


def branch_trace(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The synthetic ``(pcs, outcomes)`` branch trace of ``n`` branches."""
    pcs = np.full(n, _BRANCH_PC, dtype=np.int64)
    outcomes = (np.arange(n, dtype=np.int64) % _BRANCH_PERIOD
                != _BRANCH_PERIOD - 1)
    return pcs, outcomes


@dataclass(frozen=True)
class CellArtifacts:
    """The counter-replay inputs shared by every device cell of one shape."""

    benchmark: str
    size: str
    trace_len: int
    #: Declared device footprint (``Benchmark.footprint_bytes``).
    footprint_bytes: int
    #: Representative memory-access trace (int64 byte addresses).
    trace: np.ndarray = field(repr=False)


def _compute(benchmark: str, size: str, trace_len: int) -> CellArtifacts:
    """Generate the artifacts for one shape."""
    from ..analysis.accessmodel import resolve_access_trace

    bench = get_benchmark(benchmark).from_size(size)
    with get_tracer().span("cell_artifacts", phase="cache_sim",
                           benchmark=benchmark, size=size):
        trace = np.asarray(
            resolve_access_trace(bench, max_len=trace_len), dtype=np.int64)
        return CellArtifacts(
            benchmark=benchmark, size=size, trace_len=trace_len,
            footprint_bytes=int(bench.footprint_bytes()), trace=trace)


_memo: dict[tuple[str, str, int], CellArtifacts] = {}


def clear_memo() -> None:
    """Drop the in-process artifact, counter-replay and IR memos."""
    from ..analysis.absint import clear_ir_memo

    global _replay
    _memo.clear()
    _replay = None
    clear_ir_memo()


def get_cell_artifacts(benchmark: str, size: str,
                       trace_len: int = DEFAULT_TRACE_LEN) -> CellArtifacts:
    """Fetch (or compute) the artifacts for one shape from the LRU memo."""
    key = (benchmark, size, trace_len)
    artifacts = _memo.pop(key, None)
    if artifacts is None:
        artifacts = _compute(benchmark, size, trace_len)
    _memo[key] = artifacts  # newest LRU position
    while len(_memo) > _MEMO_MAX:
        _memo.pop(next(iter(_memo)))
    return artifacts


@dataclass
class _CounterReplay:
    """The counter replay of one artifacts instance, shared by devices.

    ``base`` holds the counts that do not depend on the device; each
    entry of ``levels`` maps a geometry prefix — the ``(size_bytes,
    line_bytes, associativity)`` of levels ``0..i`` of the scaled,
    pow2-rounded hierarchy — to level ``i``'s ``(accesses, misses,
    miss stream)``.  A level's input stream depends only on the trace
    and the geometries above it, so devices sharing a prefix share
    the replay.
    """

    artifacts: CellArtifacts
    factor: float
    base: dict[str, int]
    levels: dict = field(default_factory=dict)


#: The replay of the artifacts instance counted last.  One instance at
#: a time bounds the miss streams held; sweeps visit every device of a
#: shape back to back.
_replay: _CounterReplay | None = None

#: Hierarchy levels the PAPI events read (L1, L2, L3).
_COUNTED_LEVELS = 3


def _replay_for(artifacts: CellArtifacts) -> _CounterReplay:
    """The replay of ``artifacts`` (by identity, never by shape name).

    Twins made with ``dataclasses.replace`` share benchmark, size and
    trace length but not the trace, so only the instance itself may
    key the memo.  Computes the device-independent counts on a miss.
    """
    global _replay
    replay = _replay
    if replay is not None and replay.artifacts is artifacts:
        return replay
    from ..cache.branch import BranchPredictor
    from ..cache.tlb import TLB
    from ..sizing.verify import touched_bytes

    trace = artifacts.trace
    tlb = TLB(entries=64)  # PapiEventSet's default
    if trace.size:
        tlb.access_many(trace)
    branch = BranchPredictor()
    if trace.size:
        branch.run_trace(*branch_trace(int(trace.size)))
    replay = _replay = _CounterReplay(
        artifacts=artifacts,
        factor=min(1.0, touched_bytes(trace)
                   / max(artifacts.footprint_bytes, 1)),
        base={"PAPI_TOT_INS": int(trace.size) + branch.branches,
              "PAPI_TLB_DM": int(tlb.stats.misses),
              "PAPI_BR_INS": int(branch.branches),
              "PAPI_BR_MSP": int(branch.mispredictions)})
    return replay


def simulate_cell_counters(spec: DeviceSpec,
                           artifacts: CellArtifacts) -> dict[str, int]:
    """Replay one shape's traces through the counter simulator.

    Uses the scaled-hierarchy technique of
    :func:`repro.sizing.verify.verify_benchmark_sizes` so subsampled
    traces keep the capacity relationship honest.  The TLB, branch
    and instruction counts are computed once per artifacts instance,
    and each cache level is replayed once per geometry prefix: the
    15 catalog devices share 4 distinct L1s, so most levels are
    reused.  The counts equal a fresh :class:`~repro.counters.papi.
    PapiEventSet` replay on the scaled spec, the oracle
    (``tests/test_harness_artifacts.py``).  Deterministic (no RNG),
    and every value is a Python ``int``.
    """
    from ..cache.hierarchy import CacheHierarchy, level_geometries
    from ..cache.setassoc import SetAssociativeCache, as_addresses
    from ..sizing.verify import scaled_spec

    replay = _replay_for(artifacts)
    geometry = level_geometries(scaled_spec(spec, replay.factor))
    walked = []
    replayed = 0
    pending = as_addresses(artifacts.trace)
    for i in range(min(len(geometry), _COUNTED_LEVELS)):
        prefix = geometry[:i + 1]
        level = replay.levels.get(prefix)
        if level is None:
            size, line, ways = geometry[i]
            # One level as its own hierarchy, so the replay is traced
            # and profiled like any other (cache_sim_trace span).
            cache = SetAssociativeCache(size, line_bytes=line,
                                        associativity=ways)
            misses = CacheHierarchy([cache]).access_many(pending)
            level = replay.levels[prefix] = (
                int(pending.size), int(misses.size), misses)
            replayed += 1
        walked.append(level)
        pending = level[2]
    outcomes = default_registry().counter(
        "harness_counter_levels_total",
        "Cache levels of the per-cell counter replay, by outcome")
    if replayed:
        outcomes.inc(replayed, outcome="replayed")
    if len(walked) > replayed:
        outcomes.inc(len(walked) - replayed, outcome="reused")
    level_misses = [level[1] for level in walked]
    level_misses += [0] * (_COUNTED_LEVELS - len(walked))
    return {
        "PAPI_TOT_INS": replay.base["PAPI_TOT_INS"],
        "PAPI_L1_DCM": level_misses[0],
        "PAPI_L2_DCM": level_misses[1],
        "PAPI_L3_TCM": level_misses[2],
        "PAPI_TLB_DM": replay.base["PAPI_TLB_DM"],
        "PAPI_BR_INS": replay.base["PAPI_BR_INS"],
        "PAPI_BR_MSP": replay.base["PAPI_BR_MSP"],
        "_L3_REQUESTS": walked[2][0] if len(walked) > 2 else 0,
    }
