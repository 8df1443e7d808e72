"""Kernel workload characterization.

A :class:`KernelProfile` is an architecture-independent description of
one kernel launch: how many floating-point and integer operations it
performs, how many bytes it moves with which access pattern, how much
parallelism it exposes and how much of it is serial.  The analytic
performance model (:mod:`repro.perfmodel.roofline`) combines a profile
with a :class:`~repro.devices.DeviceSpec` to predict execution time.

This mirrors the paper's AIWC (Architecture Independent Workload
Characterization) methodology mentioned in §7: kernel structure is
captured once, then explains runtime differences between devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class KernelProfile:
    """Architecture-independent description of one kernel launch.

    Parameters
    ----------
    name:
        Kernel identifier (matches the OpenCL kernel name).
    flops:
        Floating-point operations per launch.
    int_ops:
        Integer / bitwise / comparison operations per launch.
    bytes_read, bytes_written:
        Unique data volume moved per launch, before any cache-line
        amplification (the memory model applies amplification for
        non-sequential patterns).
    working_set_bytes:
        Resident set the kernel touches repeatedly; decides which cache
        level the traffic is served from.
    work_items:
        Global NDRange size (total work items).
    work_groups:
        Number of work groups dispatched.
    seq_fraction, strided_fraction, random_fraction:
        Partition of the memory traffic by access pattern.  Must sum to
        1.  *Sequential* is unit-stride streaming; *strided* is a small
        constant stride (CPU prefetchers mostly hide it, GPUs lose
        coalescing); *random* is data-dependent/indexed access.
    branch_fraction:
        Fraction of operations control-dependent on data (divergence).
    serial_ops:
        Operations on the critical path that cannot be parallelised
        (Amdahl term), executed at single-lane scalar rate.
    chain_ops:
        Dependent operations *per work item* forming a latency chain
        (e.g. the byte loop of table-driven CRC: each step needs the
        previous CRC value).  Executed at the device's chain-step
        latency; extra lanes only help across items, never within one.
    launches:
        Number of times this kernel is enqueued per benchmark iteration
        (e.g. one per wavefront diagonal in ``nw``).

    All operation/byte quantities are **per launch**; aggregate
    profiles must divide totals by ``launches``.
    """

    name: str
    flops: float
    int_ops: float
    bytes_read: float
    bytes_written: float
    working_set_bytes: float
    work_items: int
    work_groups: int = 0
    seq_fraction: float = 1.0
    strided_fraction: float = 0.0
    random_fraction: float = 0.0
    branch_fraction: float = 0.0
    serial_ops: float = 0.0
    chain_ops: float = 0.0
    launches: int = 1

    def __post_init__(self):
        total = self.seq_fraction + self.strided_fraction + self.random_fraction
        if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-9):
            raise ValueError(
                f"access-pattern fractions must sum to 1, got {total} for {self.name!r}"
            )
        if self.work_items <= 0:
            raise ValueError(f"work_items must be positive, got {self.work_items}")
        if self.work_groups == 0:
            # default work-group size of 64 (a wavefront), as used by the
            # portable OpenDwarfs kernels
            object.__setattr__(self, "work_groups", max(1, self.work_items // 64))
        for attr in ("flops", "int_ops", "bytes_read", "bytes_written",
                     "working_set_bytes", "serial_ops", "chain_ops"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative")
        if self.launches < 1:
            raise ValueError("launches must be >= 1")

    @property
    def bytes_total(self) -> float:
        """Total unique traffic per launch."""
        return self.bytes_read + self.bytes_written

    @property
    def total_ops(self) -> float:
        """All operations per launch (fp + int)."""
        return self.flops + self.int_ops

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of unique traffic (the roofline x-axis)."""
        if self.bytes_total == 0:
            return math.inf
        return self.flops / self.bytes_total

    def scaled(self, launches: int) -> "KernelProfile":
        """A copy of this profile enqueued ``launches`` times."""
        return replace(self, launches=launches)


def static_profiles(bench: object) -> list[KernelProfile]:
    """Kernel profiles derived statically from the benchmark's IR.

    The source-only twin of ``Benchmark.profiles()``: the static AIWC
    stage (:mod:`repro.analysis.staticaiwc`) interprets the
    benchmark's :class:`~repro.dwarfs.base.StaticLaunchModel` and
    synthesizes one profile per kernel, so the analytic model and the
    scheduler can price a kernel that has never run.
    """
    from ..analysis.staticaiwc import profiles_from_model

    return profiles_from_model(bench.static_launches())  # type: ignore[attr-defined]


def merge_working_set(profiles: list[KernelProfile]) -> float:
    """Combined working set of a group of kernels sharing buffers.

    Used by the sizing verifier: the benchmark's device-side footprint
    is the maximum of the per-kernel working sets (buffers are shared,
    not duplicated, between kernels of one benchmark).
    """
    if not profiles:
        return 0.0
    return max(p.working_set_bytes for p in profiles)
