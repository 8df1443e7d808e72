"""Set-associative cache with LRU replacement.

A faithful (if simple) single-level cache model: addresses are split
into line offset / set index / tag; each set holds ``associativity``
tags in LRU order.  Used by the problem-size verifier to reproduce the
paper's PAPI-counter methodology: miss rates jump when a benchmark's
working set no longer fits a level.

Two trace entry points share the same canonical state (the per-set
LRU dicts): the scalar :meth:`SetAssociativeCache.access` oracle and
the vectorized :meth:`SetAssociativeCache.access_batch` used by
``access_many`` when batch simulation is enabled (see
:mod:`repro.cache.batch` and ``docs/performance.md``).  The batch
path is bit-exact against the oracle: sets are mutually independent,
so grouping a trace by set index and replaying each group in order
produces the same final state and the same per-access hit/miss
outcomes as the interleaved scalar walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .batch import as_addresses, batch_enabled


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level.

    Counters are always Python ``int``s: batch updates pass through
    :meth:`record_batch`, which coerces at the boundary so JSON
    serialization of metrics never sees a ``np.int64``.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per access (0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def record_batch(self, accesses: int | np.integer,
                     hits: int | np.integer) -> None:
        """Accumulate one batch's counts, coercing numpy ints to ``int``."""
        accesses = int(accesses)
        hits = int(hits)
        self.accesses += accesses
        self.hits += hits
        self.misses += accesses - hits

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0


class SetAssociativeCache:
    """One level of set-associative, write-allocate, LRU cache.

    Parameters
    ----------
    size_bytes:
        Total capacity; must be a power-of-two multiple of
        ``line_bytes * associativity``.
    line_bytes:
        Cache line size (power of two).
    associativity:
        Ways per set.
    name:
        Label used in reports ("L1", "L2", ...).
    """

    def __init__(self, size_bytes: int, line_bytes: int = 64, associativity: int = 8,
                 name: str = "cache") -> None:
        if not _is_pow2(line_bytes):
            raise ValueError(f"line size must be a power of two, got {line_bytes}")
        if associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {associativity}")
        if size_bytes < line_bytes * associativity:
            raise ValueError(
                f"cache of {size_bytes} B cannot hold one set of "
                f"{associativity} x {line_bytes} B lines"
            )
        n_sets = size_bytes // (line_bytes * associativity)
        if not _is_pow2(n_sets):
            raise ValueError(
                f"size {size_bytes} / (line {line_bytes} x ways {associativity}) "
                f"gives {n_sets} sets, which is not a power of two"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.n_sets = n_sets
        self._offset_bits = line_bytes.bit_length() - 1
        self._set_bits = n_sets.bit_length() - 1
        self._index_mask = n_sets - 1
        # Per-set LRU stacks: dicts preserve insertion order; the first
        # key is the LRU line, the last the MRU.
        self._sets: list[dict[int, None]] = [dict() for _ in range(n_sets)]
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _split(self, address: int) -> tuple[int, int]:
        line = address >> self._offset_bits
        return line & self._index_mask, line >> self._set_bits

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on hit.

        Misses allocate the line, evicting LRU if the set is full.
        """
        set_index, tag = self._split(int(address))
        ways = self._sets[set_index]
        self.stats.accesses += 1
        if tag in ways:
            # refresh LRU position
            del ways[tag]
            ways[tag] = None
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.associativity:
            ways.pop(next(iter(ways)))  # evict LRU
        ways[tag] = None
        return False

    def access_many(self, addresses: Iterable[int]) -> int:
        """Run a sequence of byte addresses; returns the miss count added."""
        return int(self.filter_misses(as_addresses(addresses)).size)

    def filter_misses(self, addresses: np.ndarray) -> np.ndarray:
        """Replay an int64 address stream; return the addresses that missed.

        The misses come back in trace order: they are exactly the input
        stream of the next level out, which is how
        :meth:`CacheHierarchy.access_many
        <repro.cache.hierarchy.CacheHierarchy.access_many>` and the
        per-geometry counter replay chain levels.  Honours
        ``REPRO_SIM_BATCH``: the scalar oracle walks :meth:`access` per
        address, the batch path runs :meth:`access_batch`.
        """
        if batch_enabled():
            return addresses[~self.access_batch(addresses)]
        access = self.access
        return np.asarray([a for a in addresses.tolist() if not access(a)],
                          dtype=np.int64)

    # ------------------------------------------------------------------
    def access_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Access a whole int64 address array; returns the hit mask.

        Bit-exact against a scalar :meth:`access` loop: the trace is
        decomposed into (set, tag) with one vector shift, grouped by
        set (sets never interact, so per-set replay order equals the
        scalar interleaving restricted to that set), and within each
        set consecutive repeats of the same tag — guaranteed MRU hits
        that cannot change state — are compressed away before the
        remaining tags walk the LRU dict in a tight local loop.
        """
        addresses = np.asarray(addresses, dtype=np.int64).ravel()
        n = int(addresses.size)
        hit_mask = np.empty(n, dtype=bool)
        if n == 0:
            return hit_mask
        lines = addresses >> self._offset_bits
        tags = lines >> self._set_bits
        if self.n_sets == 1:
            self._replay_set(0, np.arange(n), tags, hit_mask)
        else:
            set_idx = lines & self._index_mask
            order = np.argsort(set_idx, kind="stable")
            sorted_sets = set_idx[order]
            bounds = np.flatnonzero(sorted_sets[1:] != sorted_sets[:-1]) + 1
            starts = np.concatenate(([0], bounds)).tolist()
            ends = np.concatenate((bounds, [n])).tolist()
            for gs, ge in zip(starts, ends):
                positions = order[gs:ge]
                self._replay_set(int(sorted_sets[gs]), positions,
                                 tags[positions], hit_mask)
        self.stats.record_batch(n, np.count_nonzero(hit_mask))
        return hit_mask

    def _replay_set(self, set_index: int, positions: np.ndarray,
                    tags_g: np.ndarray, hit_mask: np.ndarray) -> None:
        """Replay one set's tag subsequence, writing its hit outcomes."""
        m = int(tags_g.size)
        if m == 0:
            return
        # Consecutive equal tags within a set are MRU re-hits: no state
        # change, so only the run heads need to touch the LRU dict.
        keep = np.empty(m, dtype=bool)
        keep[0] = True
        np.not_equal(tags_g[1:], tags_g[:-1], out=keep[1:])
        ways = self._sets[set_index]
        assoc = self.associativity
        run_hits: list[bool] = []
        append = run_hits.append
        for tag in tags_g[keep].tolist():
            if tag in ways:
                del ways[tag]
                ways[tag] = None
                append(True)
            else:
                if len(ways) >= assoc:
                    ways.pop(next(iter(ways)))
                ways[tag] = None
                append(False)
        hit_mask[positions] = True  # compressed repeats always hit
        hit_mask[positions[keep]] = run_hits

    # ------------------------------------------------------------------
    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident (no LRU update)."""
        set_index, tag = self._split(int(address))
        return tag in self._sets[set_index]

    @property
    def lines_resident(self) -> int:
        return sum(len(s) for s in self._sets)

    def flush(self) -> None:
        """Invalidate all lines (counters are preserved)."""
        for s in self._sets:
            s.clear()

    def reset(self) -> None:
        """Invalidate all lines and zero the counters."""
        self.flush()
        self.stats.reset()

    def __repr__(self) -> str:
        return (
            f"<{self.name}: {self.size_bytes >> 10} KiB, "
            f"{self.associativity}-way, {self.n_sets} sets>"
        )
