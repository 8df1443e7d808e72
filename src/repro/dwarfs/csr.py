"""csr — the Sparse Linear Algebra dwarf.

Sparse matrix-vector multiply (y = A·x) over a CSR matrix produced by
the ``createcsr`` generator (Table 3: ``createcsr -n Φ -d 5000``, i.e.
0.5% dense).  One work item computes one row; the gather of ``x`` via
the column indices is the benchmark's signature random-access pattern.

Validation compares the fp32 device result against a float64 serial
row-by-row SpMV (an independent code path in :mod:`repro.io.csrfile`).
"""

from __future__ import annotations

import numpy as np

from ..cache import trace as trace_mod
from ..io import csrfile
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError, assert_close)

#: Table 3 density parameter (0.5% dense).
DENSITY_PARAM = 5000


def _spmv_kernel(nd, row_ptr, col_idx, values, x, y):
    """CSR SpMV, vectorised with segment sums."""
    products = values * x[col_idx]
    # segment-sum products into rows via cumulative sums at row bounds
    cumulative = np.concatenate(([0.0], np.cumsum(products, dtype=np.float64)))
    sums = cumulative[row_ptr[1:]] - cumulative[row_ptr[:-1]]
    y[:] = sums.astype(y.dtype)


class CSR(Benchmark):
    """Sparse Linear Algebra dwarf: CSR SpMV."""

    name = "csr"
    dwarf = "Sparse Linear Algebra"
    presets = {"tiny": 736, "small": 2416, "medium": 14336, "large": 16384}
    args_template = "-i createcsr -n {phi} -d 5000"

    def __init__(self, n: int, density_param: int = DENSITY_PARAM, seed: int = 1234):
        super().__init__()
        if n <= 0:
            raise ValueError(f"matrix size must be positive, got {n}")
        self.n = int(n)
        self.density_param = int(density_param)
        self.seed = seed
        self.matrix: csrfile.CSRMatrix | None = None
        self.x: np.ndarray | None = None
        self.y_out: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "CSR":
        return cls(n=int(phi), **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "CSR":
        """Parse ``-n N [-d D]`` (the createcsr parameters; the ``-i``
        file indirection of Table 3 is resolved by generating the same
        matrix the file would contain)."""
        n, d = None, DENSITY_PARAM
        i = 0
        while i < len(argv):
            if argv[i] == "-n":
                n = int(argv[i + 1]); i += 2
            elif argv[i] == "-d":
                d = int(argv[i + 1]); i += 2
            elif argv[i] == "-i":
                i += 1  # next token is the generated file; ignored
            else:
                i += 1
        if n is None:
            raise ValueError("csr: -n <size> is required")
        return cls(n=n, density_param=d, **overrides)

    # ------------------------------------------------------------------
    def _nnz_estimate(self) -> int:
        density = self.density_param / csrfile.DENSITY_DENOMINATOR
        return max(int(round(self.n * self.n * density)), self.n)

    def static_launches(self) -> StaticLaunchModel:
        n = self.n
        nnz = self.matrix.nnz if self.matrix is not None else self._nnz_estimate()
        return StaticLaunchModel(
            source=kernels_cl.CSR_CL,
            buffers={
                "row_ptr": StaticBuffer("row_ptr", (n + 1) * 4),
                "col_idx": StaticBuffer("col_idx", nnz * 4),
                "values": StaticBuffer("values", nnz * 4),
                "x": StaticBuffer("x", n * 4),
                "y": StaticBuffer("y", n * 4),
            },
            launches=(
                StaticLaunch(
                    "csr_spmv", (n,),
                    buffers={"row_ptr": ("row_ptr", 0),
                             "col_idx": ("col_idx", 0),
                             "values": ("values", 0),
                             "x": ("x", 0),
                             "y": ("y", 0)},
                ),
            ),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        self.matrix = csrfile.createcsr(self.n, self.density_param, seed=self.seed)
        rng = np.random.default_rng(self.seed + 1)
        self.x = rng.uniform(-1.0, 1.0, size=self.n).astype(np.float32)

        self.buf_row_ptr = context.buffer_like(self.matrix.row_ptr, MemFlags.READ_ONLY)
        self.buf_col_idx = context.buffer_like(self.matrix.col_idx, MemFlags.READ_ONLY)
        self.buf_values = context.buffer_like(self.matrix.values, MemFlags.READ_ONLY)
        self.buf_x = context.buffer_like(self.x, MemFlags.READ_ONLY)
        self.buf_y = context.buffer_like(np.zeros(self.n, dtype=np.float32))

        program = Program(context, [
            KernelSource("csr_spmv", _spmv_kernel, self._profile_spmv,
                         cl_source=kernels_cl.CSR_CL),
        ]).build()
        self.kernel = program.create_kernel("csr_spmv").set_args(
            self.buf_row_ptr, self.buf_col_idx, self.buf_values,
            self.buf_x, self.buf_y,
        )
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        return [
            queue.enqueue_write_buffer(self.buf_row_ptr, self.matrix.row_ptr),
            queue.enqueue_write_buffer(self.buf_col_idx, self.matrix.col_idx),
            queue.enqueue_write_buffer(self.buf_values, self.matrix.values),
            queue.enqueue_write_buffer(self.buf_x, self.x),
        ]

    def run_iteration(self, queue) -> list[Event]:
        self._require_setup()
        return [queue.enqueue_nd_range_kernel(self.kernel, (self.n,))]

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        self.y_out = np.empty(self.n, dtype=np.float32)
        return [queue.enqueue_read_buffer(self.buf_y, self.y_out)]

    def validate(self) -> None:
        if self.y_out is None:
            raise ValidationError("csr: results were never collected")
        expected = self.matrix.matvec_reference(self.x.astype(np.float64))
        assert_close(self.y_out, expected, 1e-4, "csr: SpMV result")

    # ------------------------------------------------------------------
    def _profile_spmv(self, nd, row_ptr, col_idx, values, x, y) -> KernelProfile:
        nnz = len(values)
        n = len(y)
        return KernelProfile(
            name="csr_spmv",
            flops=2.0 * nnz,
            int_ops=2.0 * nnz + n,          # index arithmetic + row loop
            bytes_read=nnz * 8.0 + (n + 1) * 4.0 + n * 4.0,
            bytes_written=n * 4.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=n,
            seq_fraction=0.55,              # values/cols/rowptr stream
            strided_fraction=0.05,
            random_fraction=0.40,           # the x gather
            branch_fraction=0.1,            # irregular row lengths
        )

    def profiles(self) -> list[KernelProfile]:
        nnz = self.matrix.nnz if self.matrix is not None else self._nnz_estimate()
        values = np.empty(nnz, dtype=np.float32)
        y = np.empty(self.n, dtype=np.float32)
        return [self._profile_spmv(None, None, None, values, None, y)]

    def trace_spec(self) -> trace_mod.TraceSpec:
        """Streaming over matrix arrays interleaved with random x gathers."""
        nnz = self.matrix.nnz if self.matrix is not None else self._nnz_estimate()
        matrix_bytes = nnz * 8 + (self.n + 1) * 4
        x_bytes = self.n * 4
        return trace_mod.TraceSpec.single(
            trace_mod.seq(matrix_bytes, passes=2, budget=("mul", 0.6)),
            trace_mod.random_component(x_bytes, seed_offset=2,
                                       offset=matrix_bytes,
                                       budget=("mul", 0.4)),
        )
