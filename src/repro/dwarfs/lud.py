"""lud — the Dense Linear Algebra dwarf.

Blocked LU decomposition (no pivoting) of an NxN matrix, following the
OpenDwarfs/Rodinia structure of three kernels per block step:

* ``lud_diagonal``  — factorise the BxB diagonal block;
* ``lud_perimeter`` — triangular-solve the row and column panels;
* ``lud_internal``  — rank-B update of the trailing submatrix (GEMM-
  like; this is where the 2/3·N³ flops live).

The input matrix is generated diagonally dominant so factorisation
without pivoting is numerically safe.  Validation reconstructs L·U and
compares against the original matrix by relative Frobenius norm
(paper §4.4.2's "compare norms" utility).
"""

from __future__ import annotations

import numpy as np

from ..cache import trace as trace_mod
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError, assert_close)

#: Block size used by the OpenDwarfs kernels.
BLOCK = 16


def _diagonal_kernel(nd, a, n, k, b):
    """In-place unblocked LU of A[k:k+b, k:k+b]."""
    n, k, b = int(n), int(k), int(b)
    blk = a.reshape(n, n)[k:k + b, k:k + b]
    for j in range(b - 1):
        pivot = blk[j, j]
        blk[j + 1:, j] /= pivot
        blk[j + 1:, j + 1:] -= np.outer(blk[j + 1:, j], blk[j, j + 1:])


def _perimeter_kernel(nd, a, n, k, b):
    """Panel updates: row panel via L^-1, column panel via U^-1."""
    n, k, b = int(n), int(k), int(b)
    m = a.reshape(n, n)
    diag = m[k:k + b, k:k + b]
    lower = np.tril(diag, -1) + np.eye(b, dtype=a.dtype)
    upper = np.triu(diag)
    if k + b < n:
        # forward-substitute the row panel: L * X = A_row
        row = m[k:k + b, k + b:]
        for j in range(1, b):
            row[j] -= lower[j, :j] @ row[:j]
        # back-substitute the column panel: X * U = A_col
        col = m[k + b:, k:k + b]
        for j in range(b):
            if j:
                col[:, j] -= col[:, :j] @ upper[:j, j]
            col[:, j] /= upper[j, j]


def _internal_kernel(nd, a, n, k, b):
    """Trailing update: A22 -= A21 @ A12."""
    n, k, b = int(n), int(k), int(b)
    m = a.reshape(n, n)
    if k + b < n:
        m[k + b:, k + b:] -= m[k + b:, k:k + b] @ m[k:k + b, k + b:]


class LUD(Benchmark):
    """Dense Linear Algebra dwarf: blocked LU decomposition."""

    name = "lud"
    dwarf = "Dense Linear Algebra"
    presets = {"tiny": 80, "small": 240, "medium": 1440, "large": 4096}
    args_template = "-s {phi}"

    def __init__(self, n: int, block: int = BLOCK, seed: int = 7):
        super().__init__()
        if n < block or n % block:
            raise ValueError(f"matrix size {n} must be a positive multiple of {block}")
        self.n = int(n)
        self.block = int(block)
        self.seed = seed
        self.matrix: np.ndarray | None = None
        self.result: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "LUD":
        return cls(n=int(phi), **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "LUD":
        """Parse the Table 3 form ``-s N``."""
        if len(argv) != 2 or argv[0] != "-s":
            raise ValueError(f"lud: expected '-s N', got {argv!r}")
        return cls(n=int(argv[1]), **overrides)

    # ------------------------------------------------------------------
    def static_launches(self) -> StaticLaunchModel:
        n, b = self.n, self.block
        bind = {"a": ("a", 0)}
        launches: list[StaticLaunch] = []
        for k in range(0, n, b):
            remaining = n - k - b
            launches.append(StaticLaunch(
                "lud_diagonal", (b,),
                scalars={"n": n, "k": k, "b": b}, buffers=bind))
            if remaining > 0:
                launches.append(StaticLaunch(
                    "lud_perimeter", (2 * remaining,),
                    scalars={"n": n, "k": k, "b": b}, buffers=bind))
                launches.append(StaticLaunch(
                    "lud_internal", (remaining * remaining,),
                    scalars={"n": n, "k": k, "b": b}, buffers=bind))
        return StaticLaunchModel(
            source=kernels_cl.LUD_CL,
            buffers={"a": StaticBuffer("a", n * n * 4)},
            launches=tuple(launches),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        rng = np.random.default_rng(self.seed)
        a = rng.uniform(-1.0, 1.0, size=(self.n, self.n)).astype(np.float32)
        # diagonal dominance keeps no-pivot LU stable
        a[np.diag_indices(self.n)] = np.abs(a).sum(axis=1) + 1.0
        self.matrix = a
        self.buf_matrix = context.buffer_like(a)
        program = Program(context, [
            KernelSource("lud_diagonal", _diagonal_kernel, self._profile_diagonal,
                         cl_source=kernels_cl.LUD_CL),
            KernelSource("lud_perimeter", _perimeter_kernel, self._profile_perimeter,
                         cl_source=kernels_cl.LUD_CL),
            KernelSource("lud_internal", _internal_kernel, self._profile_internal,
                         cl_source=kernels_cl.LUD_CL),
        ]).build()
        self.kernels = program.all_kernels()
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        return [queue.enqueue_write_buffer(self.buf_matrix, self.matrix)]

    def run_iteration(self, queue) -> list[Event]:
        """One full decomposition: 3 kernels per block step.

        Because the decomposition is in-place, each iteration first
        rewrites the buffer with the pristine matrix (the OpenDwarfs
        loop re-transfers inputs per repetition for the same reason);
        the rewrite is a transfer, not kernel time.
        """
        self._require_setup()
        queue.enqueue_write_buffer(self.buf_matrix, self.matrix)
        events = []
        n, b = self.n, self.block
        for k in range(0, n, b):
            remaining = n - k - b
            diag = self.kernels["lud_diagonal"].set_args(self.buf_matrix, n, k, b)
            events.append(queue.enqueue_nd_range_kernel(diag, (b,)))
            if remaining > 0:
                perim = self.kernels["lud_perimeter"].set_args(self.buf_matrix, n, k, b)
                events.append(queue.enqueue_nd_range_kernel(perim, (2 * remaining,)))
                internal = self.kernels["lud_internal"].set_args(self.buf_matrix, n, k, b)
                events.append(queue.enqueue_nd_range_kernel(internal, (remaining * remaining,)))
        return events

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        self.result = np.empty_like(self.matrix)
        return [queue.enqueue_read_buffer(self.buf_matrix, self.result)]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.result is None:
            raise ValidationError("lud: results were never collected")
        lu = self.result.astype(np.float64)
        lower = np.tril(lu, -1) + np.eye(self.n)
        upper = np.triu(lu)
        # fp32 rounding grows with n; scale the tolerance accordingly
        rtol = 1e-5 * np.sqrt(self.n) * 10
        assert_close(lower @ upper, self.matrix.astype(np.float64), rtol,
                     "lud: L@U reconstruction")

    # ------------------------------------------------------------------
    def _step_sizes(self) -> np.ndarray:
        """Trailing-matrix size m_k for each block step."""
        return np.array([self.n - k - self.block for k in range(0, self.n, self.block)])

    def _profile_diagonal(self, nd, a, n, k, b) -> KernelProfile:
        b = int(b)
        return KernelProfile(
            name="lud_diagonal",
            flops=(2.0 / 3.0) * b**3,
            int_ops=b * b,
            bytes_read=b * b * 4.0,
            bytes_written=b * b * 4.0,
            working_set_bytes=b * b * 4.0,
            work_items=b,
            seq_fraction=0.7,
            strided_fraction=0.3,
            serial_ops=3.0 * b * b,  # sequential elimination over columns
        )

    def _profile_perimeter(self, nd, a, n, k, b) -> KernelProfile:
        n, k, b = int(n), int(k), int(b)
        m = max(n - k - b, 0)
        return KernelProfile(
            name="lud_perimeter",
            flops=2.0 * b * b * m,
            int_ops=b * m,
            bytes_read=(2 * m * b + b * b) * 4.0,
            bytes_written=2 * m * b * 4.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=max(2 * m, 1),
            seq_fraction=0.5,
            strided_fraction=0.5,  # the column panel is column-major access
        )

    def _profile_internal(self, nd, a, n, k, b) -> KernelProfile:
        n, k, b = int(n), int(k), int(b)
        m = max(n - k - b, 0)
        return KernelProfile(
            name="lud_internal",
            flops=2.0 * b * m * m,
            int_ops=m * m,
            bytes_read=(2 * m * b + m * m) * 4.0,
            bytes_written=m * m * 4.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=max(m * m, 1),
            seq_fraction=0.8,
            strided_fraction=0.2,
        )

    def profiles(self) -> list[KernelProfile]:
        """Per-iteration characterization: all block steps aggregated.

        Returns one profile per kernel with totals summed over steps
        and ``launches`` equal to the step count, so the launch-
        overhead model sees every enqueue.
        """
        n, b = self.n, self.block
        steps = list(range(0, n, b))
        sizes = [max(n - k - b, 0) for k in steps]
        nonzero = [m for m in sizes if m > 0]
        ws = float(self.footprint_bytes())
        # Profile quantities are PER LAUNCH: totals over all block steps
        # divided by the launch count (kernel_time multiplies back).
        out = [KernelProfile(
            name="lud_diagonal",
            flops=(2.0 / 3.0) * b**3,
            int_ops=float(b * b),
            bytes_read=b * b * 4.0,
            bytes_written=b * b * 4.0,
            working_set_bytes=b * b * 4.0,
            work_items=b,
            seq_fraction=0.7,
            strided_fraction=0.3,
            serial_ops=3.0 * b * b,
            launches=len(steps),
        )]
        if nonzero:
            k = len(nonzero)
            avg_m = float(sum(nonzero)) / k
            avg_m2 = float(sum(m * m for m in nonzero)) / k
            out.append(KernelProfile(
                name="lud_perimeter",
                flops=2.0 * b * b * avg_m,
                int_ops=b * avg_m,
                bytes_read=(2 * avg_m * b + b * b) * 4.0,
                bytes_written=2 * avg_m * b * 4.0,
                working_set_bytes=ws,
                work_items=max(int(2 * avg_m), 1),
                seq_fraction=0.5,
                strided_fraction=0.5,
                launches=k,
            ))
            out.append(KernelProfile(
                name="lud_internal",
                flops=2.0 * b * avg_m2,
                int_ops=avg_m2,
                bytes_read=(2 * b * avg_m + avg_m2) * 4.0,
                bytes_written=avg_m2 * 4.0,
                working_set_bytes=ws,
                work_items=max(int(avg_m2), 1),
                seq_fraction=0.8,
                strided_fraction=0.2,
                launches=k,
            ))
        return out

    def trace_spec(self) -> trace_mod.TraceSpec:
        """Blocked traversal: LU re-touches panels of the matrix."""
        return trace_mod.TraceSpec.single(
            trace_mod.blocked_component(self.footprint_bytes(),
                                        self.block * self.n * 4, reuse=3))
