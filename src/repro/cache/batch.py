"""Batch-simulation toggle shared by the cache/TLB/branch models.

The simulators in this package each keep two equivalent
implementations of their trace entry point (``access_many`` /
``run_trace``):

* the **scalar oracle** — the original per-address Python loop, kept
  byte-for-byte as the reference semantics;
* the **batch path** — a numpy rewrite over whole address arrays.
  The set-associative cache has no Python loop left: its LRU hits
  come from next-use distances (:func:`repro.cache.setassoc.lru_replay`).
  The TLB and the branch predictor still walk their irreducibly
  sequential updates (the TLB's LRU dict when it may evict, the
  saturating counters) in tight Python loops over compressed runs.

Both paths work on the *same* state, so scalar and batch calls can
interleave freely and property tests can pin the batch results
against the oracle bit-exactly (``tests/test_cache_batch.py``).

The batch path is on by default.  ``REPRO_SIM_BATCH=0`` (or ``false``
/ ``off``) falls back to the scalar oracle everywhere — the knob the
benchmark trajectory uses to record honest before/after points, and
an escape hatch should a platform's numpy misbehave.  The variable is
read at call time, so worker processes and the
:func:`scalar_mode` / :func:`batch_mode` context managers all see
changes immediately.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np

#: Environment variable controlling the batch fast path.
ENV_VAR = "REPRO_SIM_BATCH"

_FALSEY = {"0", "false", "off", "no"}


def batch_enabled() -> bool:
    """Whether the vectorized trace paths are active (default: yes)."""
    return os.environ.get(ENV_VAR, "1").strip().lower() not in _FALSEY


@contextmanager
def scalar_mode() -> Iterator[None]:
    """Force the scalar oracle within the block (tests, baselines)."""
    prior = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = "0"
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = prior


@contextmanager
def batch_mode() -> Iterator[None]:
    """Force the batch path within the block (symmetry with scalar_mode)."""
    prior = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = "1"
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = prior


def as_addresses(addresses: Iterable[int] | np.ndarray) -> np.ndarray:
    """Coerce any address iterable to a 1-D int64 numpy array.

    Accepts ndarrays (cast without copy when already int64), ranges,
    lists and generators — everything the scalar paths accepted.
    """
    if isinstance(addresses, np.ndarray):
        arr = addresses.astype(np.int64, copy=False)
    else:
        arr = np.fromiter((int(a) for a in addresses), dtype=np.int64) \
            if not isinstance(addresses, (list, tuple, range)) \
            else np.asarray(addresses, dtype=np.int64)
    return np.ravel(arr)
