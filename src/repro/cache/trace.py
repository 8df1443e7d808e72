"""Synthetic memory-access trace builders.

The sizing verifier replays a short, representative address trace per
benchmark through the cache simulator to confirm that *tiny/small/
medium/large* working sets produce the expected per-level miss-rate
transitions — the role PAPI counters play in the paper (§4.4).

Traces are numpy int64 arrays of byte addresses.  Builders cap trace
length (``max_len``) and scale strides up instead, so verification of
multi-megabyte working sets stays fast while still sweeping the whole
footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_LEN = 200_000


def sequential(working_set_bytes: int, element_bytes: int = 4, passes: int = 2,
               max_len: int = DEFAULT_MAX_LEN) -> np.ndarray:
    """Stream through the working set ``passes`` times, unit stride.

    If the trace would exceed ``max_len`` accesses, the stride is
    raised (still touching every cache line proportionally) so the
    footprint is preserved.
    """
    if working_set_bytes <= 0:
        return np.empty(0, dtype=np.int64)
    n = max(1, working_set_bytes // element_bytes)
    per_pass = max_len // max(passes, 1)
    step = max(1, int(np.ceil(n / max(per_pass, 1))))
    offsets = (np.arange(0, n, step, dtype=np.int64) * element_bytes)
    return np.tile(offsets, passes)


def strided(working_set_bytes: int, stride_bytes: int, element_bytes: int = 4,
            passes: int = 2, max_len: int = DEFAULT_MAX_LEN) -> np.ndarray:
    """Constant-stride sweep of the working set."""
    if working_set_bytes <= 0:
        return np.empty(0, dtype=np.int64)
    addresses = np.arange(0, working_set_bytes, stride_bytes, dtype=np.int64)
    if passes * len(addresses) > max_len:
        keep = max(1, max_len // max(passes, 1))
        idx = np.linspace(0, len(addresses) - 1, keep).astype(np.int64)
        addresses = addresses[idx]
    return np.tile(addresses, passes)


def random_uniform(working_set_bytes: int, n_accesses: int,
                   rng: np.random.Generator, element_bytes: int = 4) -> np.ndarray:
    """Uniformly random element accesses within the working set."""
    if working_set_bytes <= 0 or n_accesses <= 0:
        return np.empty(0, dtype=np.int64)
    n_elements = max(1, working_set_bytes // element_bytes)
    return rng.integers(0, n_elements, size=n_accesses, dtype=np.int64) * element_bytes


def blocked(working_set_bytes: int, block_bytes: int, reuse: int = 4,
            max_len: int = DEFAULT_MAX_LEN) -> np.ndarray:
    """Block-wise traversal: stream each block ``reuse`` times in turn.

    Models tiled kernels (``lud``) whose inner loops re-touch a block
    before moving on.
    """
    if working_set_bytes <= 0:
        return np.empty(0, dtype=np.int64)
    block_bytes = min(block_bytes, working_set_bytes)
    n_blocks = max(1, working_set_bytes // block_bytes)
    per_block = max(8, max_len // (n_blocks * max(reuse, 1)))
    step = max(4, block_bytes // per_block)
    parts = []
    for b in range(n_blocks):
        base = b * block_bytes
        once = np.arange(base, base + block_bytes, step, dtype=np.int64)
        parts.append(np.tile(once, reuse))
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def interleaved(traces: list[np.ndarray]) -> np.ndarray:
    """Round-robin interleave several traces (multi-array kernels).

    Shorter traces are exhausted first; remaining entries of longer
    traces follow in order.
    """
    traces = [np.asarray(t, dtype=np.int64) for t in traces if len(t)]
    if not traces:
        return np.empty(0, dtype=np.int64)
    # Between two consecutive distinct lengths the same traces are still
    # running, so that stretch is their slices stacked column-wise.
    parts: list[np.ndarray] = []
    start = 0
    for stop in sorted({len(t) for t in traces}):
        running = [t[start:stop] for t in traces if len(t) >= stop]
        parts.append(np.stack(running, axis=1).ravel())
        start = stop
    return np.concatenate(parts)


def offset_trace(trace: np.ndarray, base_address: int) -> np.ndarray:
    """Rebase a trace at ``base_address`` (distinct arrays in memory)."""
    if len(trace) == 0:
        return trace
    return trace + np.int64(base_address)


def distinct_lines(trace: np.ndarray, line_bytes: int) -> int:
    """Number of distinct ``line_bytes`` cache lines a trace touches.

    Equal to ``len(np.unique(trace // line_bytes))``, counted from one
    sort: numpy's hash-based ``unique`` is several times slower.
    """
    if len(trace) == 0:
        return 0
    lines = np.sort(trace // line_bytes)
    return int(np.count_nonzero(lines[1:] != lines[:-1])) + 1


# ---------------------------------------------------------------------------
# Declarative trace specs
# ---------------------------------------------------------------------------
#
# Every dwarf used to carry a hand-written ``access_trace`` body that
# composed the builders above.  The patterns were all instances of the
# same small grammar — interleave a few component streams, each with a
# share of the ``max_len`` budget, concatenate groups — so the per-dwarf
# knowledge is now expressed as data (`TraceSpec`) and interpreted by
# ``TraceSpec.build``.  The spec doubles as machine-readable ground
# truth for the differential trace gate: each component kind maps onto
# a stride class that the IR-derived model must agree with.

def _resolve_budget(budget: tuple[str, float] | None, max_len: int) -> int:
    # ("floordiv", k) → max_len // k; ("mul", f) → int(max_len * f); None →
    # max_len.  Budgets stay as exact forms (not collapsed to one float) so
    # rebuilt traces are bit-identical to the historical hand-written ones.
    if budget is None:
        return max_len
    op, arg = budget
    if op == "floordiv":
        return max_len // int(arg)
    if op == "mul":
        return int(max_len * arg)
    raise ValueError(f"unknown budget op: {op!r}")


@dataclass(frozen=True)
class TraceComponent:
    """One address stream inside a trace spec.

    ``kind`` selects the builder: ``sequential``, ``strided``,
    ``random`` or ``blocked``.  ``offset`` rebases the stream (distinct
    arrays laid out back to back); ``budget`` is this component's share
    of the overall ``max_len`` cap.
    """

    kind: str
    nbytes: int
    element_bytes: int = 4
    passes: int = 2
    stride_bytes: int = 0
    block_bytes: int = 0
    reuse: int = 4
    seed_offset: int = 0
    offset: int = 0
    budget: tuple[str, float] | None = None

    def build(self, max_len: int, seed: int) -> np.ndarray:
        cap = _resolve_budget(self.budget, max_len)
        if self.kind == "sequential":
            t = sequential(self.nbytes, element_bytes=self.element_bytes,
                           passes=self.passes, max_len=cap)
        elif self.kind == "strided":
            t = strided(self.nbytes, self.stride_bytes,
                        element_bytes=self.element_bytes,
                        passes=self.passes, max_len=cap)
        elif self.kind == "random":
            rng = np.random.default_rng(seed + self.seed_offset)
            t = random_uniform(self.nbytes, cap, rng,
                               element_bytes=self.element_bytes)
        elif self.kind == "blocked":
            t = blocked(self.nbytes, self.block_bytes, reuse=self.reuse,
                        max_len=cap)
        else:
            raise ValueError(f"unknown trace component kind: {self.kind!r}")
        return offset_trace(t, self.offset) if self.offset else t

    @property
    def stride_class(self) -> str:
        """The stride class this component models (differential gate)."""
        if self.kind == "sequential":
            return "unit"
        if self.kind in ("strided", "blocked"):
            return "strided"
        if self.kind == "random":
            return "indirect"
        raise ValueError(f"unknown trace component kind: {self.kind!r}")


@dataclass(frozen=True)
class TraceSpec:
    """Declarative access-trace description: groups of interleaved components.

    Components within a group are round-robin interleaved; groups are
    concatenated in order (``fft`` emits one group per butterfly stage).
    """

    groups: tuple[tuple[TraceComponent, ...], ...]

    @classmethod
    def single(cls, *components: TraceComponent) -> "TraceSpec":
        return cls(groups=(tuple(components),))

    def build(self, max_len: int = DEFAULT_MAX_LEN, seed: int = 0) -> np.ndarray:
        parts = [
            interleaved([c.build(max_len, seed) for c in group])
            for group in self.groups
        ]
        parts = [p for p in parts if len(p)]
        if not parts:
            return np.empty(0, dtype=np.int64)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def components(self) -> list[TraceComponent]:
        return [c for group in self.groups for c in group]

    def stride_classes(self) -> set[str]:
        return {c.stride_class for c in self.components()}

    def span_bytes(self) -> int:
        """Upper bound on the byte span the built trace covers."""
        hi = 0
        for c in self.components():
            if c.nbytes > 0:
                hi = max(hi, c.offset + c.nbytes)
        return hi


def seq(nbytes: int, *, element_bytes: int = 4, passes: int = 2,
        offset: int = 0, budget: tuple[str, float] | None = None) -> TraceComponent:
    """Shorthand for a sequential component."""
    return TraceComponent(kind="sequential", nbytes=nbytes,
                          element_bytes=element_bytes, passes=passes,
                          offset=offset, budget=budget)


def strided_component(nbytes: int, stride_bytes: int, *, passes: int = 2,
                      offset: int = 0,
                      budget: tuple[str, float] | None = None) -> TraceComponent:
    """Shorthand for a constant-stride component."""
    return TraceComponent(kind="strided", nbytes=nbytes,
                          stride_bytes=stride_bytes, passes=passes,
                          offset=offset, budget=budget)


def random_component(nbytes: int, *, element_bytes: int = 4, seed_offset: int = 0,
                     offset: int = 0,
                     budget: tuple[str, float] | None = None) -> TraceComponent:
    """Shorthand for a uniformly random (gather) component."""
    return TraceComponent(kind="random", nbytes=nbytes,
                          element_bytes=element_bytes, seed_offset=seed_offset,
                          offset=offset, budget=budget)


def blocked_component(nbytes: int, block_bytes: int, *, reuse: int = 4,
                      offset: int = 0,
                      budget: tuple[str, float] | None = None) -> TraceComponent:
    """Shorthand for a block-reuse (tiled) component."""
    return TraceComponent(kind="blocked", nbytes=nbytes,
                          block_bytes=block_bytes, reuse=reuse,
                          offset=offset, budget=budget)
