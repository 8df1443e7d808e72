"""Hardware prefetcher model (next-line / stride stream prefetcher).

CPU prefetchers are why the paper's sequential *tiny/small* workloads
show near-zero demand misses after warm-up and why small-stride codes
retain most of their streaming bandwidth.  This module wraps a
:class:`CacheHierarchy` with a simple stream prefetcher: it detects
up to ``streams`` concurrent constant-stride access streams and, on a
match, prefetches ``depth`` lines ahead into the hierarchy.

Counters distinguish demand misses from prefetch-covered accesses, so
the prefetcher's coverage is directly measurable — the classic metric
for evaluating these units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .hierarchy import CacheHierarchy
from .setassoc import as_addresses


@dataclass
class StreamState:
    """One tracked access stream."""

    last_line: int
    stride: int
    confidence: int = 0


@dataclass
class PrefetchStats:
    demand_accesses: int = 0
    demand_misses: int = 0
    prefetches_issued: int = 0
    prefetch_hits: int = 0  # demand accesses that hit a prefetched line

    @property
    def coverage(self) -> float:
        """Fraction of would-be misses covered by prefetching."""
        would_miss = self.demand_misses + self.prefetch_hits
        return self.prefetch_hits / would_miss if would_miss else 0.0

    @property
    def demand_miss_rate(self) -> float:
        return (self.demand_misses / self.demand_accesses
                if self.demand_accesses else 0.0)


class StreamPrefetcher:
    """Stride-detecting stream prefetcher in front of a hierarchy.

    Parameters
    ----------
    hierarchy:
        The cache hierarchy to train on and prefetch into.
    streams:
        Concurrent stream trackers (LRU-replaced).
    depth:
        Lines prefetched ahead on a confident stream hit.
    trigger_confidence:
        Consecutive same-stride accesses before prefetching starts.
    """

    def __init__(self, hierarchy: CacheHierarchy, streams: int = 8,
                 depth: int = 2, trigger_confidence: int = 2) -> None:
        if streams < 1 or depth < 1 or trigger_confidence < 1:
            raise ValueError("streams, depth and trigger_confidence must be >= 1")
        self.hierarchy = hierarchy
        self.streams = streams
        self.depth = depth
        self.trigger_confidence = trigger_confidence
        self.line_bytes = hierarchy.levels[0].line_bytes
        self._trackers: dict[int, StreamState] = {}  # keyed by stream id
        self._next_id = 0
        self._prefetched_lines: set[int] = set()
        self.stats = PrefetchStats()

    # ------------------------------------------------------------------
    def _match_stream(self, line: int) -> StreamState | None:
        """Find (and update) the tracker whose prediction this line fits."""
        for state in self._trackers.values():
            stride = line - state.last_line
            if stride == 0:
                state.last_line = line
                return state
            if stride == state.stride:
                state.confidence += 1
                state.last_line = line
                return state
            # one-off re-train: adopt the new stride at low confidence
            if abs(stride) <= 8 and state.confidence == 0:
                state.stride = stride
                state.last_line = line
                return state
        return None

    def _allocate_stream(self, line: int) -> None:
        if len(self._trackers) >= self.streams:
            oldest = next(iter(self._trackers))
            del self._trackers[oldest]
        self._trackers[self._next_id] = StreamState(last_line=line, stride=1)
        self._next_id += 1

    # ------------------------------------------------------------------
    def access(self, address: int) -> bool:
        """One demand access; returns True if it hit (incl. prefetched)."""
        return self._access_line(int(address), int(address) // self.line_bytes)

    def _access_line(self, address: int, line: int) -> bool:
        """The :meth:`access` body with the line split precomputed."""
        self.stats.demand_accesses += 1

        was_prefetched = line in self._prefetched_lines
        level = self.hierarchy.access(int(address))
        hit = level < len(self.hierarchy.levels)
        if hit and was_prefetched:
            self.stats.prefetch_hits += 1
            self._prefetched_lines.discard(line)
        if not hit:
            self.stats.demand_misses += 1

        state = self._match_stream(line)
        if state is None:
            self._allocate_stream(line)
        elif state.confidence >= self.trigger_confidence:
            for ahead in range(1, self.depth + 1):
                target = line + state.stride * ahead
                if target < 0 or target in self._prefetched_lines:
                    continue
                self.hierarchy.access(target * self.line_bytes)
                self._prefetched_lines.add(target)
                self.stats.prefetches_issued += 1
        return hit

    def access_many(self, addresses: Iterable[int]) -> None:
        """Feed a demand trace.

        Unlike the pure cache models, the prefetcher is irreducibly
        sequential: each access both *reads* hierarchy state (was the
        line prefetched? did the demand hit?) and *writes* it (issues
        prefetches whose targets depend on the just-updated stream
        trackers).  Only the address→line decomposition is vectorized;
        each access then walks :meth:`CacheHierarchy.access`.
        """
        arr = as_addresses(addresses)
        access_line = self._access_line
        for address, line in zip(arr.tolist(),
                                 (arr // self.line_bytes).tolist()):
            access_line(address, line)

    def reset(self) -> None:
        self.hierarchy.reset()
        self._trackers.clear()
        self._prefetched_lines.clear()
        self.stats = PrefetchStats()
