"""Per-address reference walks for the models in :mod:`repro.cache`.

Each model has one trace path, a numpy batch replay.  These loops are
what the batch paths are tested against: one address (or branch) at a
time, on the model's own state, so oracle and batch calls may
alternate on one object:

* :func:`cache_access` and :func:`hierarchy_access` work on each
  cache's ``resident`` lines, read into per-set LRU dicts once per
  call and written back (with ``stats``) at its end;
* :func:`tlb_access` works on the TLB's ``_pages`` LRU dict;
* :func:`predict_and_update` works on the predictor's ``_table`` of
  2-bit counters.
"""

from __future__ import annotations

import numpy as np


def _touch(lru: dict[int, None], key: int, capacity: int) -> bool:
    """Use ``key`` in an LRU dict (first key LRU, last MRU); whether it hit.

    A miss allocates ``key``, evicting the LRU key when full.
    """
    hit = key in lru
    if hit:
        del lru[key]
    elif len(lru) >= capacity:
        lru.pop(next(iter(lru)))
    lru[key] = None
    return hit


class _Sets:
    """One cache's resident lines as per-set LRU dicts, for one walk."""

    def __init__(self, cache) -> None:
        self.cache = cache
        self.shift = cache.line_bytes.bit_length() - 1
        self.mask = cache.n_sets - 1
        self.ways: list[dict[int, None]] = [{} for _ in range(cache.n_sets)]
        for line in cache.resident.tolist():
            self.ways[line & self.mask][line] = None
        self.accesses = self.hits = 0

    def access(self, address: int) -> bool:
        line = int(address) >> self.shift
        hit = _touch(self.ways[line & self.mask], line,
                     self.cache.associativity)
        self.accesses += 1
        self.hits += hit
        return hit

    def store(self) -> None:
        """Write the walked state back: ``resident`` and ``stats``."""
        self.cache.resident = np.asarray(
            [line for ways in self.ways for line in ways], dtype=np.int64)
        self.cache.stats.record_batch(self.accesses, self.hits)


def cache_access(cache, addresses) -> list[bool]:
    """Access byte addresses one at a time; the hit of each."""
    sets = _Sets(cache)
    hits = [sets.access(a) for a in addresses]
    sets.store()
    return hits


def hierarchy_access(hierarchy, addresses) -> list[int]:
    """Walk each address through the levels; the level index that hit.

    ``len(levels)`` means main memory.  Fills are inclusive: a miss at
    level *i* allocates the line in levels ``0..i``.
    """
    levels = [_Sets(cache) for cache in hierarchy.levels]
    memory = len(levels)
    served = [next((i for i, sets in enumerate(levels) if sets.access(a)),
                   memory)
              for a in addresses]
    for sets in levels:
        sets.store()
    hierarchy.memory_accesses += served.count(memory)
    return served


def tlb_access(tlb, addresses) -> list[bool]:
    """Translate byte addresses one at a time; the TLB hit of each."""
    shift = tlb.page_bytes.bit_length() - 1
    hits = [_touch(tlb._pages, int(a) >> shift, tlb.entries)
            for a in addresses]
    tlb.stats.record_batch(len(hits), sum(hits))
    return hits


def predict_and_update(predictor, pcs, outcomes) -> list[bool]:
    """Predict each branch, then update its counter; the predictions."""
    table, mask = predictor._table, predictor.table_size - 1
    predictions = []
    for pc, taken in zip(pcs, outcomes):
        idx = (int(pc) >> 2) & mask
        counter = int(table[idx])
        predictions.append(counter >= 2)
        predictor.branches += 1
        predictor.mispredictions += (counter >= 2) != bool(taken)
        table[idx] = min(counter + 1, 3) if taken else max(counter - 1, 0)
    return predictions
