"""Set-associative cache with LRU replacement.

A faithful (if simple) single-level cache model: addresses are split
into line offset / set index / tag; each set holds ``associativity``
tags in LRU order.  Used by the problem-size verifier to reproduce the
paper's PAPI-counter methodology: miss rates jump when a benchmark's
working set no longer fits a level.

Traces run through :meth:`SetAssociativeCache.access_batch` (behind
``access_many`` and ``filter_misses``), which has no per-set or
per-access Python loop: :func:`lru_replay` decides every hit from
next-use distances over whole arrays.  The cache's one LRU state is
:attr:`SetAssociativeCache.resident`, the resident line numbers
grouped by set and LRU to MRU within each set.  The per-address LRU
walk it is tested against lives in ``tests/cache_oracles.py``, which
reads and writes that same array: bit-exact in hit outcomes and in
each set's final LRU order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


def as_addresses(addresses: Iterable[int] | np.ndarray) -> np.ndarray:
    """Coerce any address iterable to a 1-D int64 numpy array.

    Accepts ndarrays (cast without copy when already int64), ranges,
    lists, tuples and generators.
    """
    if isinstance(addresses, np.ndarray):
        arr = addresses.astype(np.int64, copy=False)
    else:
        arr = np.fromiter((int(a) for a in addresses), dtype=np.int64) \
            if not isinstance(addresses, (list, tuple, range)) \
            else np.asarray(addresses, dtype=np.int64)
    return np.ravel(arr)


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


_NO_LINES = np.empty(0, dtype=np.int64)

#: Elements one look-back block may gather (bounds its temporaries).
_LOOKBACK_BUDGET = 1 << 18


def lru_replay(lines: np.ndarray, index_mask: int,
               associativity: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact set-associative LRU over a line-number stream, in numpy.

    Starts from an empty cache.  Returns the per-access hit mask and
    the resident lines afterwards, grouped by set and LRU to MRU
    within each set.  An access hits iff its line was used before in
    the same set and fewer than ``associativity`` distinct lines of
    that set were used in between (Mattson et al.'s stack distance).
    With the stream grouped by set and each line's next use ``nxt``
    known, the distinct lines strictly between a use at ``p`` and the
    reuse at ``i`` are the positions ``j`` in ``(p, i)`` with
    ``nxt[j] > i``: each line counted at its last use before ``i``.
    """
    total = int(lines.size)
    pos = np.int32 if total < np.iinfo(np.int32).max else np.int64
    order = None
    if index_mask:
        sets = lines & index_mask
        if index_mask <= np.iinfo(np.uint16).max:
            sets = sets.astype(np.uint16)  # radix sort
        order = np.argsort(sets, kind="stable")
        del sets
        lines = lines[order]
    # Consecutive uses of one line within a set are MRU re-hits that
    # change nothing; only the run heads enter the replay.
    head = np.empty(total, dtype=bool)
    head[0] = True
    np.not_equal(lines[1:], lines[:-1], out=head[1:])
    heads = lines[head]
    m = int(heads.size)
    # Previous and next use of each head: equal lines are adjacent, in
    # stream order, after one stable sort by tag (the stream is already
    # grouped by set).  ``m`` means "never again".
    tags = heads >> index_mask.bit_length()
    tags -= tags.min()
    if tags.max() <= np.iinfo(np.uint16).max:
        tags = tags.astype(np.uint16)  # radix sort
    by_line = np.argsort(tags, kind="stable").astype(pos)
    del tags
    reused = heads[by_line[1:]] == heads[by_line[:-1]]
    cur = by_line[1:][reused]
    prev = by_line[:-1][reused]
    del by_line, reused
    nxt = np.full(m, m, dtype=pos)
    nxt[prev] = cur
    hit = np.zeros(m, dtype=bool)
    # Fewer than ``associativity`` positions in between: a hit outright.
    near = cur - prev <= associativity
    hit[cur[near]] = True
    far = ~near
    cur, prev = cur[far], prev[far]
    del near, far
    if cur.size:
        # ``associativity`` distinct lines right before the reuse (all
        # of the last positions live past it) is a miss outright: a
        # sliding minimum of ``nxt`` settles most far reuses at once.
        win = nxt.copy()  # win[j] = min(nxt[j - w + 1 : j + 1])
        w = 1
        while 2 * w <= associativity:
            win[w:] = np.minimum(win[w:], win[:-w])
            w *= 2
        crowded = np.minimum(win[cur - 1],
                             win[cur - associativity + w - 1]) > cur
        del win
        cur, prev = cur[~crowded], prev[~crowded]
        del crowded
    # Look back from each far reuse in doubling blocks, counting the
    # positions whose next use lies beyond it; stop at
    # ``associativity`` (miss) or at the previous use (hit).
    lo = cur.copy()
    seen = np.zeros(cur.size, dtype=pos)
    width = associativity
    while cur.size:
        step = max(1, min(width, _LOOKBACK_BUDGET // cur.size))
        idx = lo[:, None] - np.arange(1, step + 1, dtype=pos)
        live = idx > prev[:, None]
        np.maximum(idx, 0, out=idx)
        live &= nxt[idx] > cur[:, None]
        del idx
        seen += np.count_nonzero(live, axis=1).astype(pos)
        del live
        lo -= step
        missed = seen >= associativity
        done = missed | (lo <= prev + 1)
        hit[cur[done & ~missed]] = True
        going = ~done
        cur, prev, lo, seen = cur[going], prev[going], lo[going], seen[going]
        width *= 2
    # The resident lines: the last ``associativity`` lines of each set
    # by last use, which is stream order of the final uses.
    resident = heads[nxt == m]
    del nxt
    if index_mask:
        sets = resident & index_mask
        ends = np.searchsorted(sets, sets, side="right")
        resident = resident[ends - np.arange(resident.size) <= associativity]
    else:
        resident = resident[-associativity:]
    hits = np.ones(total, dtype=bool)  # the dropped repeats all hit
    hits[head] = hit
    if order is None:
        return hits, resident
    unsorted = np.empty(total, dtype=bool)
    unsorted[order] = hits
    return unsorted, resident


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
        self._index_mask = n_sets - 1
        #: Resident line numbers, grouped by set, LRU to MRU within each.
        self.resident = _NO_LINES
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def access_many(self, addresses: Iterable[int]) -> int:
        """Run a sequence of byte addresses; returns the miss count added."""
        return int(self.filter_misses(as_addresses(addresses)).size)

    def filter_misses(self, addresses: np.ndarray) -> np.ndarray:
        """Replay an int64 address stream; return the addresses that missed.

        The misses come back in trace order: they are exactly the input
        stream of the next level out, which is how
        :meth:`CacheHierarchy.access_many
        <repro.cache.hierarchy.CacheHierarchy.access_many>` and the
        per-geometry counter replay chain levels.
        """
        return addresses[~self.access_batch(addresses)]

    # ------------------------------------------------------------------
    def access_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Access a whole int64 address array; returns the hit mask.

        The :attr:`resident` lines, LRU to MRU per set, are replayed
        first as if just accessed (which rebuilds exactly the current
        state), then the whole stream goes through :func:`lru_replay` in
        one vectorized pass.
        """
        addresses = np.asarray(addresses, dtype=np.int64).ravel()
        n = int(addresses.size)
        if n == 0:
            return np.empty(0, dtype=bool)
        lines = addresses >> self._offset_bits
        seed = self.resident
        if seed.size:
            lines = np.concatenate((seed, lines))
        hits, self.resident = lru_replay(lines, self._index_mask,
                                         self.associativity)
        hit_mask = hits[seed.size:]
        self.stats.record_batch(n, np.count_nonzero(hit_mask))
        return hit_mask

    def reset(self) -> None:
        """Invalidate all lines and zero the counters."""
        self.resident = _NO_LINES
        self.stats.reset()

    def __repr__(self) -> str:
        return (
            f"<{self.name}: {self.size_bytes >> 10} KiB, "
            f"{self.associativity}-way, {self.n_sets} sets>"
        )
