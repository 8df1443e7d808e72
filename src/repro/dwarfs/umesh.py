"""umesh — the Unstructured Grid dwarf (extension).

The last of the Berkeley dwarfs missing from the paper's evaluated set.
The benchmark performs weighted Jacobi relaxation of a scalar field
over an *unstructured* triangular mesh: a Delaunay triangulation of
random points (via scipy.spatial), with vertex adjacency stored in CSR
form.  Unlike ``srad``'s structured 5-point stencil, every vertex has
an irregular neighbour list reached through indirection — the dwarf's
defining access pattern ("updates on an irregular grid where
connectivity is explicit").

Boundary vertices (on the convex hull) hold Dirichlet values; interior
vertices relax toward their neighbour average.  Validation compares
against a float64 reference and checks the discrete maximum principle
(relaxed interior values stay within the field's range).
"""

from __future__ import annotations

import numpy as np

from ..cache import trace as trace_mod
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError, assert_close)

#: Relaxation weight (under-relaxed Jacobi).
OMEGA = 0.8

#: Relaxation sweeps per timed iteration.
SWEEPS = 4


def build_mesh(n_points: int, seed: int):
    """Delaunay-triangulate random points; return CSR vertex adjacency.

    Returns ``(points, row_ptr, columns, boundary_mask)`` where
    ``boundary_mask`` flags convex-hull vertices.
    """
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(n_points, 2))
    tri = Delaunay(points)
    # vertex adjacency from triangle edges (both directions)
    edges = np.concatenate([
        tri.simplices[:, [0, 1]], tri.simplices[:, [1, 2]],
        tri.simplices[:, [2, 0]],
    ])
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    # deduplicate
    keys = src.astype(np.int64) * n_points + dst
    unique = np.unique(keys)
    src = (unique // n_points).astype(np.int64)
    dst = (unique % n_points).astype(np.int32)
    counts = np.bincount(src, minlength=n_points)
    row_ptr = np.zeros(n_points + 1, dtype=np.int32)
    np.cumsum(counts, out=row_ptr[1:])
    boundary = np.zeros(n_points, dtype=bool)
    boundary[np.unique(tri.convex_hull)] = True
    return points.astype(np.float32), row_ptr, dst, boundary


def _relax_kernel(nd, row_ptr, columns, interior, values_in, values_out, omega):
    """One weighted-Jacobi sweep, vectorised via segment means."""
    omega = float(omega)
    neighbour_vals = values_in[columns].astype(np.float64)
    sums = np.add.reduceat(neighbour_vals, row_ptr[:-1].astype(np.int64))
    degrees = np.diff(row_ptr)
    # reduceat yields garbage for empty segments; Delaunay vertices
    # always have neighbours, but guard anyway
    degrees = np.maximum(degrees, 1)
    averages = (sums / degrees).astype(np.float32)
    values_out[...] = values_in
    values_out[interior] = ((1.0 - omega) * values_in[interior]
                            + omega * averages[interior])


class UMesh(Benchmark):
    """Unstructured Grid dwarf: Jacobi relaxation on a Delaunay mesh."""

    name = "umesh"
    dwarf = "Unstructured Grid"
    presets = {"tiny": 512, "small": 4352, "medium": 139264, "large": 557056}
    args_template = "{phi} 4"

    def __init__(self, n_points: int, sweeps: int = SWEEPS, omega: float = OMEGA,
                 seed: int = 61):
        super().__init__()
        if n_points < 8:
            raise ValueError(f"mesh needs at least 8 points, got {n_points}")
        self.n = int(n_points)
        self.sweeps = int(sweeps)
        self.omega = float(omega)
        self.seed = seed
        self.values_out: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "UMesh":
        return cls(n_points=int(phi), **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "UMesh":
        """Parse ``N [sweeps]``."""
        if not 1 <= len(argv) <= 2:
            raise ValueError(f"umesh: expected 'N [sweeps]', got {argv!r}")
        kwargs = dict(n_points=int(argv[0]))
        if len(argv) == 2:
            kwargs["sweeps"] = int(argv[1])
        return cls(**kwargs, **overrides)

    # ------------------------------------------------------------------
    def _edge_estimate(self) -> int:
        # a planar triangulation has < 3n edges; each stored twice
        return 6 * self.n

    def static_launches(self) -> StaticLaunchModel:
        n = self.n
        edges = (len(self.columns) if hasattr(self, "columns")
                 else self._edge_estimate())
        launches: list[StaticLaunch] = []
        src, dst = "values_a", "values_b"
        for _ in range(self.sweeps):
            launches.append(StaticLaunch(
                "umesh_relax", (n,),
                scalars={"omega": self.omega},
                buffers={"row_ptr": ("row_ptr", 0),
                         "columns": ("columns", 0),
                         "interior": ("interior", 0),
                         "values_in": (src, 0),
                         "values_out": (dst, 0)}))
            src, dst = dst, src
        return StaticLaunchModel(
            source=kernels_cl.UMESH_CL,
            buffers={
                "row_ptr": StaticBuffer("row_ptr", (n + 1) * 4),
                "columns": StaticBuffer("columns", edges * 4),
                "interior": StaticBuffer("interior", n),
                "values_a": StaticBuffer("values_a", n * 4),
                "values_b": StaticBuffer("values_b", n * 4),
            },
            launches=tuple(launches),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        points, self.row_ptr, self.columns, boundary = build_mesh(
            self.n, self.seed)
        self.points = points
        self.interior = ~boundary
        rng = np.random.default_rng(self.seed + 1)
        # boundary-driven field: hot left edge, cold right, noisy interior
        values = rng.uniform(0.0, 1.0, self.n).astype(np.float32)
        values[boundary] = (1.0 - points[boundary, 0]).astype(np.float32)
        self.initial_values = values

        self.buf_row_ptr = context.buffer_like(self.row_ptr, MemFlags.READ_ONLY)
        self.buf_columns = context.buffer_like(self.columns, MemFlags.READ_ONLY)
        self.buf_interior = context.buffer_like(
            self.interior.astype(np.uint8), MemFlags.READ_ONLY)
        self.buf_a = context.buffer_like(values)
        self.buf_b = context.buffer_like(np.zeros_like(values))
        program = Program(context, [
            KernelSource("umesh_relax", _relax_kernel, self._profile_relax,
                         cl_source=kernels_cl.UMESH_CL),
        ]).build()
        self.kernel = program.create_kernel("umesh_relax")
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        return [
            queue.enqueue_write_buffer(self.buf_row_ptr, self.row_ptr),
            queue.enqueue_write_buffer(self.buf_columns, self.columns),
            queue.enqueue_write_buffer(
                self.buf_interior, self.interior.astype(np.uint8)),
            queue.enqueue_write_buffer(self.buf_a, self.initial_values),
        ]

    def run_iteration(self, queue) -> list[Event]:
        """``sweeps`` ping-pong relaxation launches."""
        self._require_setup()
        queue.enqueue_write_buffer(self.buf_a, self.initial_values)
        events = []
        src, dst = self.buf_a, self.buf_b
        for _ in range(self.sweeps):
            # the kernel wants the boolean mask; buffer holds uint8
            self.kernel.set_args(self.buf_row_ptr, self.buf_columns,
                                 self.buf_interior.array.view(bool),
                                 src, dst, self.omega)
            events.append(queue.enqueue_nd_range_kernel(self.kernel, (self.n,)))
            src, dst = dst, src
        self._final = src
        return events

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        self.values_out = np.empty(self.n, dtype=np.float32)
        return [queue.enqueue_read_buffer(self._final, self.values_out)]

    # ------------------------------------------------------------------
    def _reference(self) -> np.ndarray:
        """Float64 reference with an explicit per-vertex loop structure."""
        values = self.initial_values.astype(np.float64)
        interior = np.nonzero(self.interior)[0]
        for _ in range(self.sweeps):
            nxt = values.copy()
            for v in interior:
                neigh = self.columns[self.row_ptr[v]:self.row_ptr[v + 1]]
                nxt[v] = ((1 - self.omega) * values[v]
                          + self.omega * values[neigh].mean())
            values = nxt
        return values

    def _reference_vectorised(self) -> np.ndarray:
        """Float64 reference via reduceat (for large meshes)."""
        values = self.initial_values.astype(np.float64)
        degrees = np.maximum(np.diff(self.row_ptr), 1)
        starts = self.row_ptr[:-1].astype(np.int64)
        for _ in range(self.sweeps):
            sums = np.add.reduceat(values[self.columns], starts)
            avg = sums / degrees
            nxt = values.copy()
            nxt[self.interior] = ((1 - self.omega) * values[self.interior]
                                  + self.omega * avg[self.interior])
            values = nxt
        return values

    def validate(self) -> None:
        if self.values_out is None:
            raise ValidationError("umesh: results were never collected")
        reference = (self._reference() if self.n <= 2048
                     else self._reference_vectorised())
        assert_close(self.values_out, reference, 1e-4,
                     "umesh: relaxation vs float64 reference")
        # discrete maximum principle
        lo = float(self.initial_values.min()) - 1e-5
        hi = float(self.initial_values.max()) + 1e-5
        if self.values_out.min() < lo or self.values_out.max() > hi:
            raise ValidationError(
                "umesh: relaxed values escape the initial range "
                f"[{lo:.4f}, {hi:.4f}]")

    def residual(self) -> float:
        """Mean |v - neighbour average| over interior vertices."""
        if self.values_out is None:
            raise ValidationError("umesh: results were never collected")
        values = self.values_out.astype(np.float64)
        degrees = np.maximum(np.diff(self.row_ptr), 1)
        sums = np.add.reduceat(values[self.columns],
                               self.row_ptr[:-1].astype(np.int64))
        avg = sums / degrees
        return float(np.abs(values - avg)[self.interior].mean())

    # ------------------------------------------------------------------
    def _profile_relax(self, nd, *args) -> KernelProfile:
        edges = (len(self.columns) if hasattr(self, "columns")
                 else self._edge_estimate())
        return KernelProfile(
            name="umesh_relax",
            flops=3.0 * self.n + float(edges),
            int_ops=2.0 * float(edges),
            bytes_read=edges * 8.0 + self.n * 9.0,
            bytes_written=self.n * 4.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=self.n,
            seq_fraction=0.35,
            strided_fraction=0.05,
            random_fraction=0.60,          # the neighbour-value gather
            branch_fraction=0.1,
        )

    def profiles(self) -> list[KernelProfile]:
        return [self._profile_relax(None).scaled(self.sweeps)]

    def trace_spec(self) -> trace_mod.TraceSpec:
        adjacency = (self.n + 1) * 4 + self._edge_estimate() * 4
        values = self.n * 4
        return trace_mod.TraceSpec.single(
            trace_mod.seq(adjacency, passes=1, budget=("floordiv", 2)),
            trace_mod.random_component(values, seed_offset=7, offset=adjacency,
                                       budget=("floordiv", 2)),
        )
