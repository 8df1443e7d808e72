"""Multi-level cache hierarchy.

Chains :class:`SetAssociativeCache` levels the way the paper's CPU
platforms do (L1 -> L2 -> L3 -> memory): an access probes levels
inward-out, allocating in every level it missed (inclusive fill).
Per-level counters map onto the PAPI events the paper collects
(``PAPI_L1_DCM``, ``PAPI_L2_DCM``, ``PAPI_L3_TCM``).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..devices.specs import DeviceSpec
from ..telemetry.tracer import get_tracer
from .batch import as_addresses
from .setassoc import SetAssociativeCache


def level_geometries(spec: DeviceSpec) -> tuple[tuple[int, int, int], ...]:
    """``(size_bytes, line_bytes, associativity)`` of each cache level.

    Cache sizes are rounded down to the nearest valid power-of-two set
    count (the i5-3550's 6 MiB L3, for instance, is 12-way with a
    non-power-of-two capacity; modelling it as the nearest valid
    geometry at the same capacity-per-way keeps miss behaviour
    realistic).
    """
    geometries = []
    for level in spec.caches:
        line = level.line_bytes
        ways = level.associativity
        n_sets = max(1, level.size_kib * 1024 // (line * ways))
        pow2_sets = 1 << (n_sets.bit_length() - 1)
        geometries.append((pow2_sets * line * ways, line, ways))
    return tuple(geometries)


class CacheHierarchy:
    """An inclusive multi-level cache fed with byte addresses."""

    def __init__(self, levels: list[SetAssociativeCache]) -> None:
        if not levels:
            raise ValueError("hierarchy needs at least one level")
        sizes = [l.size_bytes for l in levels]
        if sizes != sorted(sizes):
            raise ValueError(f"levels must grow outward, got sizes {sizes}")
        self.levels = levels
        #: Number of accesses that missed every level (went to memory).
        self.memory_accesses = 0

    @classmethod
    def for_device(cls, spec: DeviceSpec) -> "CacheHierarchy":
        """Build the hierarchy described by a device's spec."""
        return cls([
            SetAssociativeCache(size_bytes=size, line_bytes=line,
                                associativity=ways, name=f"L{i + 1}")
            for i, (size, line, ways) in enumerate(level_geometries(spec))
        ])

    # ------------------------------------------------------------------
    def access(self, address: int) -> int:
        """Access an address; returns the level index that hit.

        ``len(levels)`` means main memory.  Fills are inclusive: a miss
        at level *i* allocates the line in levels ``0..i``.
        """
        for i, cache in enumerate(self.levels):
            if cache.access(address):
                return i
        self.memory_accesses += 1
        return len(self.levels)

    def access_many(self, addresses: Iterable[int]) -> np.ndarray:
        """Feed a whole trace; return the addresses that missed every level.

        Level-filtered miss propagation: each level replays its input
        stream through :meth:`SetAssociativeCache.filter_misses` (batch
        or scalar, per :mod:`repro.cache.batch`), and L2 only sees L1's
        miss subset, in original order.  Each level's state depends
        only on its own input stream, and that stream is identical to
        the one the per-address :meth:`access` walk feeds it, so the
        result is bit-exact against that walk.
        """
        with get_tracer().span("cache_sim_trace", phase="cache_sim") as sp:
            pending = as_addresses(addresses)
            sp.set_attribute("accesses", int(pending.size))
            for cache in self.levels:
                if pending.size == 0:
                    break
                pending = cache.filter_misses(pending)
            self.memory_accesses += int(pending.size)
            return pending

    # ------------------------------------------------------------------
    def miss_counts(self) -> dict[str, int]:
        """Misses per level keyed by level name."""
        return {c.name: c.stats.misses for c in self.levels}

    def miss_rates(self) -> dict[str, float]:
        """Miss rate per level (misses / accesses at that level)."""
        return {c.name: c.stats.miss_rate for c in self.levels}

    def reset(self) -> None:
        for c in self.levels:
            c.reset()
        self.memory_accesses = 0

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.levels)
        return f"<CacheHierarchy [{inner}]>"
