"""Branch predictor model (2-bit saturating counters).

Provides the ``PAPI_BR_INS`` / ``PAPI_BR_MSP`` counters of the paper's
verification set.  A classic bimodal predictor: a table of 2-bit
saturating counters indexed by (hashed) branch PC.

``run_trace`` groups the trace by table slot and run-length-encodes
each slot's outcome stream: a run of ``L`` taken branches starting
from counter ``c`` mispredicts exactly ``clamp(2 - c, 0, L)`` times
and leaves the counter at ``min(3, c + L)`` (symmetrically for
not-taken), so each run costs O(1) instead of O(L).  Slots are
independent and per-slot order is preserved, so the result is
bit-exact against the per-branch predict-and-update walk over the same
counter table in ``tests/cache_oracles.py``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..telemetry.tracer import get_tracer

# 2-bit counter states: 0,1 predict not-taken; 2,3 predict taken.
_WEAK_NOT_TAKEN = 1


class BranchPredictor:
    """Bimodal predictor with a power-of-two counter table."""

    def __init__(self, table_size: int = 4096) -> None:
        if table_size & (table_size - 1) or table_size < 1:
            raise ValueError(f"table size must be a power of two, got {table_size}")
        self.table_size = table_size
        self._mask = table_size - 1
        self._table = np.full(table_size, _WEAK_NOT_TAKEN, dtype=np.int8)
        self.branches = 0
        self.mispredictions = 0

    def run_trace(self, pcs: Iterable[int] | np.ndarray,
                  outcomes: Iterable[bool] | np.ndarray) -> int:
        """Feed parallel arrays of PCs and outcomes; returns new mispredictions."""
        pcs = np.asarray(pcs)
        outcomes = np.asarray(outcomes, dtype=bool)
        if pcs.shape != outcomes.shape:
            raise ValueError(
                f"pc/outcome traces differ in length: {pcs.shape} vs {outcomes.shape}"
            )
        with get_tracer().span("branch_trace", phase="cache_sim") as sp:
            sp.set_attribute("branches", int(pcs.size))
            before = self.mispredictions
            self._run_batch(pcs.ravel(), outcomes.ravel())
            return self.mispredictions - before

    def _run_batch(self, pcs: np.ndarray, outcomes: np.ndarray) -> None:
        """Grouped run-length replay; exact against the per-branch oracle."""
        n = int(pcs.size)
        if n == 0:
            return
        slots = (pcs.astype(np.int64) >> 2) & self._mask
        order = np.argsort(slots, kind="stable")
        sorted_slots = slots[order]
        sorted_outs = outcomes[order]
        bounds = np.flatnonzero(sorted_slots[1:] != sorted_slots[:-1]) + 1
        starts = np.concatenate(([0], bounds)).tolist()
        ends = np.concatenate((bounds, [n])).tolist()
        table = self._table
        mispredicted = 0
        for gs, ge in zip(starts, ends):
            slot = int(sorted_slots[gs])
            counter = int(table[slot])
            outs = sorted_outs[gs:ge]
            m = ge - gs
            change = np.flatnonzero(outs[1:] != outs[:-1]) + 1
            run_starts = np.concatenate(([0], change)).tolist()
            run_ends = np.concatenate((change, [m])).tolist()
            for rs, re in zip(run_starts, run_ends):
                length = re - rs
                if outs[rs]:
                    mispredicted += min(max(2 - counter, 0), length)
                    counter = min(3, counter + length)
                else:
                    mispredicted += min(max(counter - 1, 0), length)
                    counter = max(0, counter - length)
            table[slot] = counter
        self.branches += n
        self.mispredictions += int(mispredicted)

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.branches if self.branches else 0.0

    def reset(self) -> None:
        self._table.fill(_WEAK_NOT_TAKEN)
        self.branches = 0
        self.mispredictions = 0
