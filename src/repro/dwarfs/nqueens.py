"""nqueens — the Backtrack & Branch-and-Bound dwarf.

Counts the placements of N non-attacking queens with the classic
bitmask depth-first search.  As the paper notes, "memory footprint
scales very slowly with increasing number of queens, relative to the
computational cost.  Thus it is significantly compute-bound and only
one problem size is tested" (§4.4.4) — the paper evaluates N=18.

Parallel structure (as in the OpenCL code): the first ``PREFIX_DEPTH``
rows are expanded on the host into independent sub-problems, and one
work item counts each sub-problem's subtree.

**Exactness substitution** (documented in DESIGN.md): enumerating N=18
exactly (5.9e10 search nodes) is infeasible in pure Python, so
functional execution is exact up to :data:`MAX_EXACT_N` and switches
to the *Knuth tree-size estimator* beyond — each work item performs
random rooted descents and the solution count is estimated by
importance weighting (mean over walks of the product of branching
factors).  This runs the identical branch-and-bound step (free-square
bitmask computation) on a sampled schedule and is statistically
unbiased; ``exact`` is False for estimates.  The *performance profile*
always reflects the full search-tree size via the known node-count
table, so modeled timings are those of the complete enumeration.
"""

from __future__ import annotations

import numpy as np

from ..cache import trace as trace_mod
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError)

#: Known solution counts (OEIS A000170), indexed by board size.
KNOWN_SOLUTIONS = {
    1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724,
    11: 2680, 12: 14200, 13: 73712, 14: 365596, 15: 2279184, 16: 14772512,
    17: 95815104, 18: 666090624,
}

#: Approximate search-tree node counts (placements explored by the
#: bitmask DFS); used by the performance model.
KNOWN_NODES = {
    4: 16, 5: 53, 6: 152, 7: 551, 8: 2056, 9: 8393, 10: 35538,
    11: 166925, 12: 856188, 13: 4674889, 14: 27358552, 15: 171129071,
    16: 1141190302, 17: 8017021931, 18: 59365844128,
}

#: Largest board enumerated exactly in pure Python.
MAX_EXACT_N = 13

#: Host-side expansion depth producing the parallel sub-problems.
PREFIX_DEPTH = 2

#: Random descents per work item in estimator mode.
WALKS_PER_ITEM = 400

#: Work items in estimator mode.
ESTIMATOR_ITEMS = 64

#: Low 32 bits of a PCG64 output word.
_U32 = 0xFFFFFFFF


def solve_subproblem(n: int, cols: int, diag_l: int, diag_r: int, row: int) -> int:
    """Count completions of a partial placement (bitmask DFS)."""
    if row == n:
        return 1
    count = 0
    full = (1 << n) - 1
    free = full & ~(cols | diag_l | diag_r)
    while free:
        bit = free & -free
        free ^= bit
        count += solve_subproblem(
            n, cols | bit, ((diag_l | bit) << 1) & full, (diag_r | bit) >> 1, row + 1
        )
    return count


def expand_prefixes(n: int, depth: int) -> list[tuple[int, int, int]]:
    """All valid (cols, diag_l, diag_r) states after ``depth`` rows."""
    full = (1 << n) - 1
    states = [(0, 0, 0)]
    for _ in range(depth):
        nxt = []
        for cols, dl, dr in states:
            free = full & ~(cols | dl | dr)
            while free:
                bit = free & -free
                free ^= bit
                nxt.append((cols | bit, ((dl | bit) << 1) & full, (dr | bit) >> 1))
        states = nxt
    return states


def knuth_walk(n: int, rng: np.random.Generator) -> int:
    """One random descent; returns the importance-weighted estimate.

    The estimate is the product of the branching factors along the
    walk if it reaches a full placement, else 0.  Its expectation over
    walks is exactly the number of solutions (Knuth 1975).  The scalar
    oracle for :func:`_nqueens_estimate_kernel`: one ``rng.integers``
    call per step.
    """
    full = (1 << n) - 1
    cols = dl = dr = 0
    weight = 1
    for _ in range(n):
        free = full & ~(cols | dl | dr)
        k = free.bit_count()
        if k == 0:
            return 0
        weight *= k
        choice = int(rng.integers(k))
        bit = free
        for _ in range(choice):
            bit &= bit - 1
        bit &= -bit
        cols |= bit
        dl = ((dl | bit) << 1) & full
        dr = (dr | bit) >> 1
    return weight


def _nqueens_exact_kernel(nd, n, prefix_cols, prefix_dl, prefix_dr, counts):
    """One work item per sub-problem: exhaustive subtree count."""
    n = int(n)
    for idx in range(len(prefix_cols)):
        counts[idx] = solve_subproblem(
            n, int(prefix_cols[idx]), int(prefix_dl[idx]), int(prefix_dr[idx]),
            PREFIX_DEPTH,
        )


def uint32_stream(bitgen: np.random.BitGenerator, words: int) -> list[int]:
    """The next ``2 * words`` values ``next_uint32`` draws from ``bitgen``.

    numpy's PCG64 yields 32-bit values by splitting each 64-bit output
    word, low half first.  Splitting ``random_raw`` words with masks and
    shifts (not a ``uint32`` view) keeps that order on any byte order.
    """
    raw = bitgen.random_raw(words)
    out = np.empty(2 * words, dtype=np.uint64)
    out[0::2] = raw & _U32
    out[1::2] = raw >> 32
    return out.tolist()


def bounded_draw(k: int, draws: list[int], pos: int,
                 bitgen: np.random.BitGenerator) -> tuple[int, int]:
    """``Generator.integers(k)`` for ``1 <= k <= 2**32`` on a uint32 stream.

    numpy's bounded draw (Lemire's multiply-shift with rejection):
    ``k == 1`` draws nothing; otherwise ``m = u32 * k``, redrawn while
    its low word is below ``(2**32 - k) % k``, and the choice is
    ``m >> 32``.  Reads ``draws`` from ``pos`` and returns the choice
    and the next position.  Each redraw appends one more ``bitgen``
    word to ``draws``, so a caller that sized the stream at one value
    per draw never runs past its end.
    """
    if k == 1:
        return 0, pos
    m = draws[pos] * k
    pos += 1
    if m & _U32 < k:
        threshold = (_U32 + 1 - k) % k
        while m & _U32 < threshold:
            draws.extend(uint32_stream(bitgen, 1))
            m = draws[pos] * k
            pos += 1
    return m >> 32, pos


def _nqueens_estimate_kernel(nd, n, seeds, estimates):
    """One work item per seed: mean of ``WALKS_PER_ITEM`` Knuth walks.

    Each item draws its PCG64 stream once and runs the walks of
    :func:`knuth_walk` against it; the estimates are bit-identical to
    calling ``knuth_walk(n, default_rng(seed))`` per walk.
    """
    n = int(n)
    full = (1 << n) - 1
    for idx in range(len(seeds)):
        bitgen = np.random.default_rng(int(seeds[idx])).bit_generator
        # at most n draws per walk, plus rejections (extended on demand)
        draws = uint32_stream(bitgen, WALKS_PER_ITEM * n // 2 + n)
        pos = 0
        total = 0
        for _ in range(WALKS_PER_ITEM):
            cols = dl = dr = 0
            weight = 1
            for _ in range(n):
                free = full & ~(cols | dl | dr)
                k = free.bit_count()
                if k == 0:
                    weight = 0
                    break
                weight *= k
                choice, pos = bounded_draw(k, draws, pos, bitgen)
                bit = free
                for _ in range(choice):
                    bit &= bit - 1
                bit &= -bit
                cols |= bit
                dl = ((dl | bit) << 1) & full
                dr = (dr | bit) >> 1
            total += weight
        estimates[idx] = total / WALKS_PER_ITEM


class NQueens(Benchmark):
    """Backtrack & Branch-and-Bound dwarf: N-queens counting."""

    name = "nqueens"
    dwarf = "Backtrack & Branch and Bound"
    presets = {"tiny": 18}  # single problem size, as in the paper
    args_template = "{phi}"

    def __init__(self, n: int = 18, seed: int = 23):
        super().__init__()
        if not 1 <= n <= 31:
            raise ValueError(f"board size must be in [1, 31], got {n}")
        self.n = int(n)
        self.seed = seed
        self.exact = self.n <= MAX_EXACT_N
        self.solutions: int | None = None
        self.estimate_rel_stderr: float | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "NQueens":
        return cls(n=int(phi), **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "NQueens":
        if len(argv) != 1:
            raise ValueError(f"nqueens: expected board size, got {argv!r}")
        return cls(n=int(argv[0]), **overrides)

    # ------------------------------------------------------------------
    def _subproblem_count(self) -> int:
        if self.exact:
            return len(expand_prefixes(self.n, min(PREFIX_DEPTH, self.n)))
        return ESTIMATOR_ITEMS

    def static_launches(self) -> StaticLaunchModel:
        k = self._subproblem_count()
        if self.exact:
            return StaticLaunchModel(
                source=kernels_cl.NQUEENS_CL,
                macros={"PREFIX_DEPTH": PREFIX_DEPTH},
                buffers={
                    "cols": StaticBuffer("cols", k * 4),
                    "dl": StaticBuffer("dl", k * 4),
                    "dr": StaticBuffer("dr", k * 4),
                    "counts": StaticBuffer("counts", k * 8),
                },
                launches=(
                    StaticLaunch(
                        "nqueens_count", (k,),
                        scalars={"n": self.n},
                        buffers={"prefix_cols": ("cols", 0),
                                 "prefix_dl": ("dl", 0),
                                 "prefix_dr": ("dr", 0),
                                 "counts": ("counts", 0)},
                    ),
                ),
            )
        return StaticLaunchModel(
            source=kernels_cl.NQUEENS_CL,
            macros={"WALKS_PER_ITEM": WALKS_PER_ITEM},
            buffers={
                "seeds": StaticBuffer("seeds", k * 8),
                "estimates": StaticBuffer("estimates", k * 8),
            },
            launches=(
                StaticLaunch(
                    "nqueens_estimate", (k,),
                    scalars={"n": self.n},
                    buffers={"seeds": ("seeds", 0),
                             "estimates": ("estimates", 0)},
                ),
            ),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        if self.exact:
            prefixes = expand_prefixes(self.n, min(PREFIX_DEPTH, self.n))
            self.prefix_cols = np.array([p[0] for p in prefixes], dtype=np.int32)
            self.prefix_dl = np.array([p[1] for p in prefixes], dtype=np.int32)
            self.prefix_dr = np.array([p[2] for p in prefixes], dtype=np.int32)
            self.buf_cols = context.buffer_like(self.prefix_cols, MemFlags.READ_ONLY)
            self.buf_dl = context.buffer_like(self.prefix_dl, MemFlags.READ_ONLY)
            self.buf_dr = context.buffer_like(self.prefix_dr, MemFlags.READ_ONLY)
            self.buf_out = context.buffer_like(
                np.zeros(len(prefixes), dtype=np.int64)
            )
            program = Program(context, [
                KernelSource("nqueens_count", _nqueens_exact_kernel,
                             self._profile_nqueens,
                             cl_source=kernels_cl.NQUEENS_CL),
            ]).build()
            self.kernel = program.create_kernel("nqueens_count").set_args(
                self.n, self.buf_cols, self.buf_dl, self.buf_dr, self.buf_out
            )
            self._n_items = len(prefixes)
        else:
            seeds = np.arange(ESTIMATOR_ITEMS, dtype=np.int64) + self.seed * 1000
            self.seeds = seeds
            self.buf_seeds = context.buffer_like(seeds, MemFlags.READ_ONLY)
            self.buf_out = context.buffer_like(
                np.zeros(ESTIMATOR_ITEMS, dtype=np.float64)
            )
            program = Program(context, [
                KernelSource("nqueens_estimate", _nqueens_estimate_kernel,
                             self._profile_nqueens,
                             cl_source=kernels_cl.NQUEENS_CL),
            ]).build()
            self.kernel = program.create_kernel("nqueens_estimate").set_args(
                self.n, self.buf_seeds, self.buf_out
            )
            self._n_items = ESTIMATOR_ITEMS
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        if self.exact:
            return [
                queue.enqueue_write_buffer(self.buf_cols, self.prefix_cols),
                queue.enqueue_write_buffer(self.buf_dl, self.prefix_dl),
                queue.enqueue_write_buffer(self.buf_dr, self.prefix_dr),
            ]
        return [queue.enqueue_write_buffer(self.buf_seeds, self.seeds)]

    def run_iteration(self, queue) -> list[Event]:
        self._require_setup()
        return [queue.enqueue_nd_range_kernel(self.kernel, (self._n_items,))]

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        out = np.empty(self._n_items, dtype=self.buf_out.array.dtype)
        events = [queue.enqueue_read_buffer(self.buf_out, out)]
        if self.exact:
            self.solutions = int(out.sum())
            self.estimate_rel_stderr = 0.0
        else:
            mean = float(out.mean())
            stderr = float(out.std(ddof=1) / np.sqrt(len(out))) if len(out) > 1 else 0.0
            self.solutions = int(round(mean))
            self.estimate_rel_stderr = stderr / mean if mean else float("inf")
        return events

    def validate(self) -> None:
        if self.solutions is None:
            raise ValidationError("nqueens: results were never collected")
        expected = KNOWN_SOLUTIONS.get(self.n)
        if expected is None:
            return  # no published count to compare against
        if self.exact:
            if self.solutions != expected:
                raise ValidationError(
                    f"nqueens: counted {self.solutions}, known {expected}"
                )
        else:
            rel = abs(self.solutions - expected) / expected
            # the estimator's own standard error bounds the tolerance
            limit = max(4 * (self.estimate_rel_stderr or 0.0), 0.25)
            if rel > limit:
                raise ValidationError(
                    f"nqueens: estimate {self.solutions} off by {rel:.0%} "
                    f"from known {expected} (limit {limit:.0%})"
                )

    # ------------------------------------------------------------------
    def _profile_nqueens(self, nd, *args) -> KernelProfile:
        """Characterise the work the kernel actually performs.

        Exact mode explores the full search tree (node counts from the
        published table); estimator mode performs a fixed schedule of
        random descents.  OpenDwarfs's measured nqueens kernel likewise
        times a bounded search slice rather than full enumeration — its
        published Fig. 4b times for N=18 are in milliseconds, far below
        any full 5.9e10-node walk.
        """
        if self.exact:
            nodes = KNOWN_NODES.get(self.n)
            if nodes is None:
                nodes = 16 * 9.6 ** max(self.n - 4, 0)  # growth extrapolation
        else:
            nodes = float(ESTIMATOR_ITEMS * WALKS_PER_ITEM * self.n)
        subproblems = max(self.n * self.n - 3 * self.n + 2, 1)  # depth-2 prefixes
        if not self.exact:
            subproblems = ESTIMATOR_ITEMS
        return KernelProfile(
            name="nqueens_count",
            flops=0.0,
            int_ops=25.0 * nodes,           # mask ops, bit extraction, push/pop
            bytes_read=float(subproblems * 12),
            bytes_written=float(subproblems * 8),
            working_set_bytes=float(self.footprint_bytes()),
            work_items=subproblems,
            seq_fraction=1.0,
            branch_fraction=0.5,            # deeply data-dependent control flow
            serial_ops=50.0 * nodes / max(subproblems, 1),  # deepest subtree
        )

    def profiles(self) -> list[KernelProfile]:
        return [self._profile_nqueens(None)]

    def trace_spec(self) -> trace_mod.TraceSpec:
        """Tiny working set hammered repeatedly: everything is L1-hot."""
        return trace_mod.TraceSpec.single(
            trace_mod.seq(max(self.footprint_bytes(), 64), passes=64))
