"""Counter-based verification of problem-size selection.

The paper verifies its sizes with PAPI cache counters: "cache miss
results ... were used to verify the selection of suitable problem
sizes for each benchmark" (§4.4) — a correctly-chosen *tiny* shows
negligible L1 misses after warm-up, *small* spills L1 but not L2, and
so on.  This module replays each benchmark's representative access
trace (see :meth:`Benchmark.access_trace`) through the cache simulator
of the reference device and reports the per-level miss rates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..cache.trace import distinct_lines
from ..counters.papi import CounterReport, PapiEventSet
from ..devices.catalog import get_device
from ..devices.specs import CacheLevel, DeviceSpec
from ..dwarfs.registry import get_benchmark

#: Trace length used for verification runs.
TRACE_LEN = 120_000


def scaled_spec(spec: DeviceSpec, factor: float) -> DeviceSpec:
    """A copy of ``spec`` with every cache level scaled by ``factor``.

    Trace subsampling (needed to keep verification fast for
    multi-megabyte footprints) touches only a fraction of the working
    set's cache lines; scaling the simulated hierarchy by the same
    fraction preserves the capacity relationship — the standard
    scaled-simulation technique.  Shared with the per-cell counter
    replay in :mod:`repro.harness.artifacts`.
    """
    if factor >= 1.0:
        return spec
    levels = tuple(
        dataclasses.replace(
            level,
            size_kib=max(int(level.size_kib * factor),
                         level.line_bytes * level.associativity // 1024 + 1),
        )
        for level in spec.caches
    )
    return dataclasses.replace(spec, caches=levels)


def touched_bytes(trace: np.ndarray, line_bytes: int = 64) -> int:
    """Distinct cache-line bytes a trace actually exercises."""
    return distinct_lines(trace, line_bytes) * line_bytes


@dataclass(frozen=True)
class SizeVerification:
    """Counter results per problem size for one benchmark."""

    benchmark: str
    device: str
    reports: dict  # size -> CounterReport

    def miss_percent(self, size: str, counter: str) -> float:
        """Misses as a percentage of total instructions (paper §4.4)."""
        return 100.0 * self.reports[size].rate(counter)

    def summary_rows(self) -> list[dict]:
        rows = []
        for size, report in self.reports.items():
            rows.append({
                "size": size,
                "L1 miss %": round(100 * report.rate("PAPI_L1_DCM"), 3),
                "L2 miss %": round(100 * report.rate("PAPI_L2_DCM"), 3),
                "L3 miss %": round(100 * report.rate("PAPI_L3_TCM"), 3),
                "TLB miss %": round(100 * report.rate("PAPI_TLB_DM"), 3),
            })
        return rows


def verify_benchmark_sizes(
    benchmark: str,
    device: DeviceSpec | str = "i7-6700K",
    sizes: tuple[str, ...] | None = None,
    trace_len: int = TRACE_LEN,
) -> SizeVerification:
    """Replay a benchmark's trace per size through the cache simulator."""
    from ..analysis.accessmodel import resolve_access_trace

    spec = get_device(device) if isinstance(device, str) else device
    cls = get_benchmark(benchmark)
    sizes = sizes or cls.available_sizes()
    reports: dict[str, CounterReport] = {}
    for size in sizes:
        bench = cls.from_size(size)
        trace = resolve_access_trace(bench, max_len=trace_len)
        footprint = max(bench.footprint_bytes(), 1)
        factor = min(1.0, touched_bytes(trace) / footprint)
        events = PapiEventSet(scaled_spec(spec, factor))
        events.start()
        events.record_memory_trace(trace)
        reports[size] = events.stop()
    return SizeVerification(benchmark=benchmark, device=spec.name, reports=reports)


def verify_static_footprints(
    benchmark: str, sizes: tuple[str, ...] | None = None
) -> dict:
    """Cross-check addressed extents against the declared buffers.

    The analytic complement of the cache-counter replay above: for each
    size preset, the benchmark's static launch model is abstractly
    interpreted (:mod:`repro.analysis.absint`) and the extents its
    kernels address are compared with the buffers it declares.
    Returns ``{size: FootprintComparison}``.
    """
    from ..analysis.absint import verify_benchmark_footprint

    cls = get_benchmark(benchmark)
    sizes = sizes or cls.available_sizes()
    out: dict = {}
    for size in sizes:
        comparison = verify_benchmark_footprint(benchmark, size)
        if comparison is not None:
            out[size] = comparison
    return out


def transition_detected(verification: SizeVerification, level: str,
                        smaller: str, larger: str, factor: float = 2.0) -> bool:
    """Whether a cache level's miss rate jumps between two sizes.

    The signature of a correct size selection: moving from the size
    that fits a level to the one that spills it multiplies the level's
    miss rate.
    """
    lo = verification.reports[smaller].rate(level)
    hi = verification.reports[larger].rate(level)
    if lo <= 0:
        return hi > 0
    return hi >= factor * lo
