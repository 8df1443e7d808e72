"""nw — the Dynamic Programming dwarf.

Needleman-Wunsch global sequence alignment over the BLOSUM62
substitution matrix with a linear gap penalty of 10 (Table 3:
``nw Φ 10``), structured exactly like the OpenCL original: the score
matrix is filled in BxB blocks processed anti-diagonal by
anti-diagonal, with **one kernel launch per block diagonal** — the
launch-count profile (2·N/B − 1 launches of short kernels) is what
ties this benchmark's performance "to micro-architecture or OpenCL
runtime support": AMD's higher per-launch cost makes its GPUs fall
behind as N grows, while Intel CPUs and NVIDIA GPUs stay comparable
(paper Fig. 3b).

Each kernel body processes all blocks of one diagonal by sweeping the
2B−1 intra-block cell diagonals with vectorised updates, which is the
same dependency schedule the OpenCL kernel realises with local-memory
tiles.  Validation compares against an independent full-matrix
anti-diagonal reference (and a pure-Python triple-loop for small N).
"""

from __future__ import annotations

import numpy as np

from ..cache import trace as trace_mod
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError)

#: Block edge used by the OpenDwarfs kernels.
BLOCK = 16

#: Default gap penalty (Table 3).
GAP_PENALTY = 10

# BLOSUM62 over the standard 24-symbol alphabet
# (ARNDCQEGHILKMFPSTWYVBZX*), as shipped with OpenDwarfs/Rodinia.
BLOSUM62 = np.array([
    [ 4, -1, -2, -2,  0, -1, -1,  0, -2, -1, -1, -1, -1, -2, -1,  1,  0, -3, -2,  0, -2, -1,  0, -4],
    [-1,  5,  0, -2, -3,  1,  0, -2,  0, -3, -2,  2, -1, -3, -2, -1, -1, -3, -2, -3, -1,  0, -1, -4],
    [-2,  0,  6,  1, -3,  0,  0,  0,  1, -3, -3,  0, -2, -3, -2,  1,  0, -4, -2, -3,  3,  0, -1, -4],
    [-2, -2,  1,  6, -3,  0,  2, -1, -1, -3, -4, -1, -3, -3, -1,  0, -1, -4, -3, -3,  4,  1, -1, -4],
    [ 0, -3, -3, -3,  9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -3, -3, -2, -4],
    [-1,  1,  0,  0, -3,  5,  2, -2,  0, -3, -2,  1,  0, -3, -1,  0, -1, -2, -1, -2,  0,  3, -1, -4],
    [-1,  0,  0,  2, -4,  2,  5, -2,  0, -3, -3,  1, -2, -3, -1,  0, -1, -3, -2, -2,  1,  4, -1, -4],
    [ 0, -2,  0, -1, -3, -2, -2,  6, -2, -4, -4, -2, -3, -3, -2,  0, -2, -2, -3, -3, -1, -2, -1, -4],
    [-2,  0,  1, -1, -3,  0,  0, -2,  8, -3, -3, -1, -2, -1, -2, -1, -2, -2,  2, -3,  0,  0, -1, -4],
    [-1, -3, -3, -3, -1, -3, -3, -4, -3,  4,  2, -3,  1,  0, -3, -2, -1, -3, -1,  3, -3, -3, -1, -4],
    [-1, -2, -3, -4, -1, -2, -3, -4, -3,  2,  4, -2,  2,  0, -3, -2, -1, -2, -1,  1, -4, -3, -1, -4],
    [-1,  2,  0, -1, -3,  1,  1, -2, -1, -3, -2,  5, -1, -3, -1,  0, -1, -3, -2, -2,  0,  1, -1, -4],
    [-1, -1, -2, -3, -1,  0, -2, -3, -2,  1,  2, -1,  5,  0, -2, -1, -1, -1, -1,  1, -3, -1, -1, -4],
    [-2, -3, -3, -3, -2, -3, -3, -3, -1,  0,  0, -3,  0,  6, -4, -2, -2,  1,  3, -1, -3, -3, -1, -4],
    [-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4,  7, -1, -1, -4, -3, -2, -2, -1, -2, -4],
    [ 1, -1,  1,  0, -1,  0,  0,  0, -1, -2, -2,  0, -1, -2, -1,  4,  1, -3, -2, -2,  0,  0,  0, -4],
    [ 0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  1,  5, -2, -2,  0, -1, -1,  0, -4],
    [-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1,  1, -4, -3, -2, 11,  2, -3, -4, -3, -2, -4],
    [-2, -2, -2, -3, -2, -1, -2, -3,  2, -1, -1, -2, -1,  3, -3, -2, -2,  2,  7, -1, -3, -2, -1, -4],
    [ 0, -3, -3, -3, -1, -2, -2, -3, -3,  3,  1, -2,  1, -1, -2, -2,  0, -3, -1,  4, -3, -2, -1, -4],
    [-2, -1,  3,  4, -3,  0,  1, -1,  0, -3, -4,  0, -3, -3, -2,  0, -1, -4, -3, -3,  4,  1, -1, -4],
    [-1,  0,  0,  1, -3,  3,  4, -2,  0, -3, -3,  1, -1, -3, -1,  0, -1, -3, -2, -2,  1,  4, -1, -4],
    [ 0, -1, -1, -1, -2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -2,  0,  0, -2, -1, -1, -1, -1, -1, -4],
    [-4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4,  1],
], dtype=np.int32)

ALPHABET = 24


def _nw_diagonal_kernel(nd, score, similarity, n, block, diag, penalty):
    """Process every block on block-diagonal ``diag``.

    ``score`` is the (n+1)x(n+1) DP matrix; ``similarity`` the
    precomputed substitution scores for the cell pairs.  Within the
    diagonal, the 2B−1 intra-block cell diagonals are swept in order;
    all member blocks advance together, vectorised.
    """
    n, b, diag, penalty = int(n), int(block), int(diag), int(penalty)
    f = score.reshape(n + 1, n + 1)
    sim = similarity.reshape(n, n)
    nb = n // b
    lo = max(0, diag - nb + 1)
    hi = min(diag, nb - 1)
    blocks_i = np.arange(lo, hi + 1)
    blocks_j = diag - blocks_i
    for t in range(2 * b - 1):
        li = np.arange(max(0, t - b + 1), min(t, b - 1) + 1)
        lj = t - li
        # global cell indices: blocks x cells-in-diagonal, flattened
        i = (1 + blocks_i[:, None] * b + li[None, :]).ravel()
        j = (1 + blocks_j[:, None] * b + lj[None, :]).ravel()
        match = f[i - 1, j - 1] + sim[i - 1, j - 1]
        delete = f[i - 1, j] - penalty
        insert = f[i, j - 1] - penalty
        f[i, j] = np.maximum(match, np.maximum(delete, insert))


class NW(Benchmark):
    """Dynamic Programming dwarf: Needleman-Wunsch alignment."""

    name = "nw"
    dwarf = "Dynamic Programming"
    presets = {"tiny": 48, "small": 176, "medium": 1008, "large": 4096}
    args_template = "{phi} 10"

    def __init__(self, n: int, penalty: int = GAP_PENALTY, block: int = BLOCK,
                 seed: int = 11):
        super().__init__()
        if n < block or n % block:
            raise ValueError(f"sequence length {n} must be a multiple of {block}")
        self.n = int(n)
        self.penalty = int(penalty)
        self.block = int(block)
        self.seed = seed
        self.seq1: np.ndarray | None = None
        self.seq2: np.ndarray | None = None
        self.score_out: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "NW":
        return cls(n=int(phi), **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "NW":
        """Parse ``N penalty`` (Table 3)."""
        if len(argv) != 2:
            raise ValueError(f"nw: expected 'N penalty', got {argv!r}")
        return cls(n=int(argv[0]), penalty=int(argv[1]), **overrides)

    # ------------------------------------------------------------------
    def static_launches(self) -> StaticLaunchModel:
        n, b = self.n, self.block
        nb = n // b
        launches: list[StaticLaunch] = []
        for diag in range(self.n_diagonals):
            blocks = min(diag, nb - 1) - max(0, diag - nb + 1) + 1
            launches.append(StaticLaunch(
                "nw_diagonal", (blocks * b,),
                scalars={"n": n, "block": b, "diag": diag,
                         "penalty": self.penalty},
                buffers={"score": ("score", 0),
                         "similarity": ("similarity", 0)},
                local_size=(b,)))
        return StaticLaunchModel(
            source=kernels_cl.NW_CL,
            buffers={
                "score": StaticBuffer("score", (n + 1) ** 2 * 4),
                "similarity": StaticBuffer("similarity", n * n * 4),
            },
            launches=tuple(launches),
        )

    @property
    def n_diagonals(self) -> int:
        """Kernel launches per iteration: 2·(N/B) − 1 block diagonals."""
        return 2 * (self.n // self.block) - 1

    def host_setup(self, context: Context) -> None:
        self.context = context
        rng = np.random.default_rng(self.seed)
        self.seq1 = rng.integers(0, 20, size=self.n, dtype=np.int32)  # residues
        self.seq2 = rng.integers(0, 20, size=self.n, dtype=np.int32)
        self.similarity = BLOSUM62[self.seq1[:, None], self.seq2[None, :]].astype(np.int32)

        score = np.zeros((self.n + 1, self.n + 1), dtype=np.int32)
        score[0, :] = -self.penalty * np.arange(self.n + 1)
        score[:, 0] = -self.penalty * np.arange(self.n + 1)
        self.initial_score = score

        self.buf_score = context.buffer_like(score)
        self.buf_similarity = context.buffer_like(self.similarity, MemFlags.READ_ONLY)
        program = Program(context, [
            KernelSource("nw_diagonal", _nw_diagonal_kernel, self._profile_diagonal,
                         cl_source=kernels_cl.NW_CL),
        ]).build()
        self.kernel = program.create_kernel("nw_diagonal")
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        return [
            queue.enqueue_write_buffer(self.buf_score, self.initial_score),
            queue.enqueue_write_buffer(self.buf_similarity, self.similarity),
        ]

    def run_iteration(self, queue) -> list[Event]:
        """One full alignment: a kernel launch per block diagonal."""
        self._require_setup()
        queue.enqueue_write_buffer(self.buf_score, self.initial_score)
        events = []
        nb = self.n // self.block
        for diag in range(self.n_diagonals):
            blocks = min(diag, nb - 1) - max(0, diag - nb + 1) + 1
            self.kernel.set_args(
                self.buf_score, self.buf_similarity,
                self.n, self.block, diag, self.penalty,
            )
            events.append(
                queue.enqueue_nd_range_kernel(self.kernel, (blocks * self.block,))
            )
        return events

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        self.score_out = np.empty_like(self.initial_score)
        return [queue.enqueue_read_buffer(self.buf_score, self.score_out)]

    # ------------------------------------------------------------------
    def _reference_antidiagonal(self) -> np.ndarray:
        """Independent reference: cell-level anti-diagonal sweep."""
        n, penalty = self.n, self.penalty
        f = self.initial_score.astype(np.int64).copy()
        sim = self.similarity.astype(np.int64)
        for d in range(2, 2 * n + 1):
            i = np.arange(max(1, d - n), min(d - 1, n) + 1)
            j = d - i
            match = f[i - 1, j - 1] + sim[i - 1, j - 1]
            delete = f[i - 1, j] - penalty
            insert = f[i, j - 1] - penalty
            f[i, j] = np.maximum(match, np.maximum(delete, insert))
        return f

    def reference_serial(self) -> np.ndarray:
        """Pure-Python triple-loop DP (for small N; tests only)."""
        n, penalty = self.n, self.penalty
        f = self.initial_score.astype(int).tolist()
        sim = self.similarity.tolist()
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                f[i][j] = max(
                    f[i - 1][j - 1] + sim[i - 1][j - 1],
                    f[i - 1][j] - penalty,
                    f[i][j - 1] - penalty,
                )
        return np.asarray(f, dtype=np.int64)

    def validate(self) -> None:
        if self.score_out is None:
            raise ValidationError("nw: results were never collected")
        expected = self._reference_antidiagonal()
        if not np.array_equal(self.score_out.astype(np.int64), expected):
            bad = int((self.score_out != expected).sum())
            raise ValidationError(
                f"nw: {bad} score cells disagree with the reference "
                f"(corner {self.score_out[-1, -1]} vs {expected[-1, -1]})"
            )

    def alignment_score(self) -> int:
        """The global alignment score (bottom-right DP cell)."""
        if self.score_out is None:
            raise ValidationError("nw: results were never collected")
        return int(self.score_out[-1, -1])

    # ------------------------------------------------------------------
    def _profile_diagonal(self, nd, score, similarity, n, block, diag, penalty
                          ) -> KernelProfile:
        n, b, diag = int(n), int(block), int(diag)
        nb = n // b
        blocks = min(diag, nb - 1) - max(0, diag - nb + 1) + 1
        cells = blocks * b * b
        return KernelProfile(
            name="nw_diagonal",
            flops=0.0,
            int_ops=10.0 * cells,           # 3 adds, 2 max, index arithmetic
            bytes_read=cells * 16.0,        # 3 neighbours + similarity
            bytes_written=cells * 4.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=max(blocks * b, 1),
            seq_fraction=0.4,
            strided_fraction=0.6,           # row-above accesses stride by N
            branch_fraction=0.2,
            serial_ops=(2.0 * b - 1) * 4.0,  # intra-block diagonal chain
        )

    def profiles(self) -> list[KernelProfile]:
        """All block diagonals aggregated into one launch-heavy profile.

        Quantities are per launch (average diagonal); ``launches``
        restores the totals.
        """
        total_cells = float(self.n * self.n)
        launches = self.n_diagonals
        cells_per_launch = total_cells / launches
        avg_blocks = max(cells_per_launch / (self.block * self.block), 1.0)
        return [KernelProfile(
            name="nw_diagonal",
            flops=0.0,
            int_ops=10.0 * cells_per_launch,
            bytes_read=cells_per_launch * 16.0,
            bytes_written=cells_per_launch * 4.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=max(int(avg_blocks * self.block), 1),
            seq_fraction=0.4,
            strided_fraction=0.6,
            branch_fraction=0.2,
            serial_ops=(2.0 * self.block - 1) * 4.0,
            launches=launches,
        )]

    def trace_spec(self) -> trace_mod.TraceSpec:
        """Blocked traversal of the score matrix plus similarity stream."""
        score_bytes = (self.n + 1) ** 2 * 4
        sim_bytes = self.n * self.n * 4
        return trace_mod.TraceSpec.single(
            trace_mod.blocked_component(score_bytes,
                                        self.block * (self.n + 1) * 4,
                                        reuse=2, budget=("floordiv", 2)),
            trace_mod.seq(sim_bytes, passes=1, offset=score_bytes,
                          budget=("floordiv", 2)),
        )
