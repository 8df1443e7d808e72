"""Memoized per-(benchmark, size) analysis artifacts.

Every sweep cell used to regenerate its access trace and re-run the
abstract interpreter from scratch, even though those artifacts depend
only on the (benchmark, size, trace-length) shape — not on the device
or the measurement protocol.  This module computes them once per
shape and shares them at two levels:

* an **in-process LRU memo** (a handful of entries; a full matrix
  sweeps every device of one (benchmark, size) back to back), which
  also serves pool workers, each of which touches few shapes;
* the **content-addressed persistent layer** of the
  :class:`~repro.harness.sweep.SweepCache`
  (``<root>/analysis/<key[:2]>/<key>.npz``), written only by the
  parent sweep process, so repeated sweeps pay the ``absint`` phase
  zero times.

The artifact key is a SHA-256 over (artifact version, benchmark,
size, trace length) — the same invalidation-by-addressing discipline
as the result cache.

:func:`simulate_cell_counters` replays the memoized traces through
the PAPI counter simulator (scaled-hierarchy technique shared with
:mod:`repro.sizing.verify`), producing the per-cell counter dict the
runner attaches to each :class:`~repro.harness.runner.RunResult`.
It shares work across the devices of one shape: the TLB and branch
counts once per artifacts instance, each cache level once per
geometry prefix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..devices.specs import DeviceSpec
from ..dwarfs.registry import get_benchmark
from ..telemetry.metrics import default_registry
from ..telemetry.tracer import get_tracer

#: Stamp mixed into every artifact key; bump when the artifact layout
#: or the synthetic branch-trace model changes (version history:
#: docs/formats.md).
ARTIFACT_VERSION = "3"

#: Trace length replayed per cell (matches repro.sizing.verify).
DEFAULT_TRACE_LEN = 120_000

#: In-process memo capacity (insertion-ordered LRU).
_MEMO_MAX = 16

#: Synthetic branch-trace model: one loop branch, taken 63 of every
#: 64 iterations — the classic inner-loop pattern the bimodal
#: predictor is built for.
_BRANCH_PC = 0x400000
_BRANCH_PERIOD = 64


@dataclass(frozen=True)
class CellArtifacts:
    """Analysis artifacts shared by every device cell of one shape."""

    benchmark: str
    size: str
    trace_len: int
    #: Declared device footprint (``Benchmark.footprint_bytes``).
    footprint_bytes: int
    #: Abstract-interpretation working set of the launch model.
    static_bytes: int
    #: Per-kernel, per-parameter stride classes from the IR pipeline.
    strides: dict = field(repr=False)
    #: Representative memory-access trace (int64 byte addresses).
    trace: np.ndarray = field(repr=False)
    #: Synthetic branch trace (parallel pc/outcome arrays).
    branch_pcs: np.ndarray = field(repr=False)
    branch_outcomes: np.ndarray = field(repr=False)


def artifact_key(benchmark: str, size: str,
                 trace_len: int = DEFAULT_TRACE_LEN) -> str:
    """Content hash (SHA-256 hex) addressing one artifact shape."""
    material = json.dumps(
        {"artifact_version": ARTIFACT_VERSION, "benchmark": benchmark,
         "size": size, "trace_len": trace_len},
        sort_keys=True)
    return hashlib.sha256(material.encode()).hexdigest()


def _compute(benchmark: str, size: str, trace_len: int) -> CellArtifacts:
    """Generate the artifacts for one shape (the ``absint`` cost)."""
    from ..analysis.absint import static_footprint
    from ..analysis.accessmodel import resolve_access_trace

    cls = get_benchmark(benchmark)
    bench = cls.from_size(size)
    with get_tracer().span("cell_artifacts", phase="absint",
                           benchmark=benchmark, size=size):
        trace = np.asarray(
            resolve_access_trace(bench, max_len=trace_len), dtype=np.int64)
        footprint = static_footprint(bench.static_launches())
        n = int(trace.size)
        branch_pcs = np.full(n, _BRANCH_PC, dtype=np.int64)
        branch_outcomes = (
            (np.arange(n, dtype=np.int64) % _BRANCH_PERIOD)
            != _BRANCH_PERIOD - 1)
        return CellArtifacts(
            benchmark=benchmark, size=size, trace_len=trace_len,
            footprint_bytes=int(bench.footprint_bytes()),
            static_bytes=int(footprint.total_bytes),
            strides=footprint.strides, trace=trace,
            branch_pcs=branch_pcs, branch_outcomes=branch_outcomes,
        )


_memo: dict[str, CellArtifacts] = {}


def clear_memo() -> None:
    """Drop the in-process artifact, counter-replay and IR memos."""
    from ..analysis.absint import clear_ir_memo

    global _replay
    _memo.clear()
    _replay = None
    clear_ir_memo()


def get_cell_artifacts(benchmark: str, size: str,
                       trace_len: int = DEFAULT_TRACE_LEN,
                       cache=None) -> CellArtifacts:
    """Fetch (or compute) the artifacts for one shape.

    Lookup order: in-process memo, then the persistent ``cache``
    (any object with ``get_artifact``/``put_artifact``, i.e. a
    :class:`~repro.harness.sweep.SweepCache`), then a fresh
    computation — which is written back to both layers.
    """
    key = artifact_key(benchmark, size, trace_len)
    artifacts = _memo.get(key)
    if artifacts is not None:
        _memo.pop(key)
        _memo[key] = artifacts  # refresh LRU position
        return artifacts
    if cache is not None:
        artifacts = cache.get_artifact(key)
    if artifacts is None:
        artifacts = _compute(benchmark, size, trace_len)
        if cache is not None:
            cache.put_artifact(key, artifacts)
    _memo[key] = artifacts
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
    if artifacts.branch_pcs.size:
        branch.run_trace(artifacts.branch_pcs, artifacts.branch_outcomes)
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
    from ..cache.batch import as_addresses
    from ..cache.hierarchy import CacheHierarchy, level_geometries
    from ..cache.setassoc import SetAssociativeCache
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
