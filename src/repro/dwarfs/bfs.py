"""bfs — the Graph Traversal dwarf (extension).

The paper's stated aim is "to achieve a full representation of each
dwarf" (§2); Graph Traversal is absent from its evaluated set (the
OpenDwarfs suite carries a bfs code the paper did not curate).  This
extension supplies it: level-synchronous breadth-first search over a
synthetic sparse graph in CSR adjacency form — one kernel launch per
frontier level, data-dependent gather access, almost no arithmetic:
the dwarf's signature profile ("indirect lookups, little computation").

Validation compares the distance labelling against an independent
deque-based serial BFS, and against ``networkx`` single-source
shortest path lengths.
"""

from __future__ import annotations

import collections

import numpy as np

from ..cache import trace as trace_mod
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError)

#: Average out-degree of the synthetic graphs.
AVG_DEGREE = 8

#: Label for unreached vertices.
UNREACHED = np.int32(-1)


def generate_graph(n: int, avg_degree: int, seed: int):
    """A connected random graph in CSR form (row_ptr, columns).

    A Hamiltonian backbone guarantees connectivity (every vertex links
    to its successor), and random extra edges supply the irregular
    fan-out; edges are undirected (stored both ways).
    """
    rng = np.random.default_rng(seed)
    extra = max((avg_degree - 2) // 2, 1) * n
    src = np.concatenate([np.arange(n, dtype=np.int64),
                          rng.integers(0, n, extra)])
    dst = np.concatenate([(np.arange(n, dtype=np.int64) + 1) % n,
                          rng.integers(0, n, extra)])
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # both directions
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    order = np.lexsort((all_dst, all_src))
    all_src, all_dst = all_src[order], all_dst[order]
    counts = np.bincount(all_src, minlength=n)
    row_ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=row_ptr[1:])
    return row_ptr, all_dst.astype(np.int32)


def _bfs_level_kernel(nd, row_ptr, columns, levels, frontier_flags, depth):
    """Expand one frontier level, vectorised over frontier vertices."""
    depth = np.int32(depth)
    frontier = np.nonzero(frontier_flags)[0]
    frontier_flags[...] = 0
    if len(frontier) == 0:
        return
    starts = row_ptr[frontier].astype(np.int64)
    ends = row_ptr[frontier + 1].astype(np.int64)
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return
    # vectorised ragged gather of all neighbour lists of the frontier
    run_starts = np.cumsum(lengths) - lengths
    positions = np.arange(total)
    idx = np.repeat(starts, lengths) + (positions - np.repeat(run_starts, lengths))
    neighbours = columns[idx]
    fresh = neighbours[levels[neighbours] == UNREACHED]
    if len(fresh):
        levels[fresh] = depth + 1
        frontier_flags[fresh] = 1


class BFS(Benchmark):
    """Graph Traversal dwarf: level-synchronous breadth-first search."""

    name = "bfs"
    dwarf = "Graph Traversal"
    presets = {"tiny": 640, "small": 5248, "medium": 167936, "large": 671744}
    args_template = "{phi} 8"

    def __init__(self, n: int, avg_degree: int = AVG_DEGREE, source: int = 0,
                 seed: int = 31):
        super().__init__()
        if n < 2:
            raise ValueError(f"graph needs at least 2 vertices, got {n}")
        self.n = int(n)
        self.avg_degree = int(avg_degree)
        self.source = int(source) % self.n
        self.seed = seed
        self.levels_out: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "BFS":
        return cls(n=int(phi), **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "BFS":
        """Parse ``N [avg_degree]``."""
        if not 1 <= len(argv) <= 2:
            raise ValueError(f"bfs: expected 'N [degree]', got {argv!r}")
        kwargs = dict(n=int(argv[0]))
        if len(argv) == 2:
            kwargs["avg_degree"] = int(argv[1])
        return cls(**kwargs, **overrides)

    # ------------------------------------------------------------------
    def _edge_estimate(self) -> int:
        # backbone (n) + extras, doubled for both directions
        extra = max((self.avg_degree - 2) // 2, 1) * self.n
        return 2 * (self.n + extra)

    def static_launches(self) -> StaticLaunchModel:
        n = self.n
        edges = (len(self.columns) if hasattr(self, "columns")
                 else self._edge_estimate())
        # one representative frontier launch: the footprint is
        # depth-independent, so a single level stands in for the
        # data-dependent launch count
        return StaticLaunchModel(
            source=kernels_cl.BFS_CL,
            buffers={
                "row_ptr": StaticBuffer("row_ptr", (n + 1) * 4),
                "columns": StaticBuffer("columns", edges * 4),
                "levels": StaticBuffer("levels", n * 4),
                "flags": StaticBuffer("flags", n),
            },
            launches=(
                StaticLaunch(
                    "bfs_level", (n,), scalars={"depth": 0},
                    buffers={"row_ptr": ("row_ptr", 0),
                             "columns": ("columns", 0),
                             "levels": ("levels", 0),
                             "frontier_flags": ("flags", 0)},
                ),
            ),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        self.row_ptr, self.columns = generate_graph(
            self.n, self.avg_degree, self.seed)
        levels = np.full(self.n, UNREACHED, dtype=np.int32)
        levels[self.source] = 0
        flags = np.zeros(self.n, dtype=np.uint8)
        flags[self.source] = 1
        self._initial_levels = levels
        self._initial_flags = flags

        self.buf_row_ptr = context.buffer_like(self.row_ptr, MemFlags.READ_ONLY)
        self.buf_columns = context.buffer_like(self.columns, MemFlags.READ_ONLY)
        self.buf_levels = context.buffer_like(levels)
        self.buf_flags = context.buffer_like(flags)
        program = Program(context, [
            KernelSource("bfs_level", _bfs_level_kernel, self._profile_level,
                         cl_source=kernels_cl.BFS_CL),
        ]).build()
        self.kernel = program.create_kernel("bfs_level")
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        return [
            queue.enqueue_write_buffer(self.buf_row_ptr, self.row_ptr),
            queue.enqueue_write_buffer(self.buf_columns, self.columns),
            queue.enqueue_write_buffer(self.buf_levels, self._initial_levels),
            queue.enqueue_write_buffer(self.buf_flags, self._initial_flags),
        ]

    def run_iteration(self, queue) -> list[Event]:
        """One full traversal: a launch per level until the frontier dies."""
        self._require_setup()
        queue.enqueue_write_buffer(self.buf_levels, self._initial_levels)
        queue.enqueue_write_buffer(self.buf_flags, self._initial_flags)
        events = []
        depth = 0
        while self.buf_flags.array.any():
            self.kernel.set_args(self.buf_row_ptr, self.buf_columns,
                                 self.buf_levels, self.buf_flags, depth)
            events.append(queue.enqueue_nd_range_kernel(self.kernel, (self.n,)))
            depth += 1
            if depth > self.n:  # safety: no graph has deeper BFS
                raise RuntimeError("bfs: frontier failed to terminate")
        self._depth = depth
        return events

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        self.levels_out = np.empty(self.n, dtype=np.int32)
        return [queue.enqueue_read_buffer(self.buf_levels, self.levels_out)]

    # ------------------------------------------------------------------
    def _reference_serial(self) -> np.ndarray:
        """Deque-based serial BFS (independent code path)."""
        levels = np.full(self.n, -1, dtype=np.int64)
        levels[self.source] = 0
        queue = collections.deque([self.source])
        while queue:
            v = queue.popleft()
            for u in self.columns[self.row_ptr[v]:self.row_ptr[v + 1]]:
                if levels[u] == -1:
                    levels[u] = levels[v] + 1
                    queue.append(int(u))
        return levels

    def validate(self) -> None:
        if self.levels_out is None:
            raise ValidationError("bfs: results were never collected")
        expected = self._reference_serial()
        if not np.array_equal(self.levels_out.astype(np.int64), expected):
            bad = int((self.levels_out != expected).sum())
            raise ValidationError(f"bfs: {bad}/{self.n} level labels disagree")
        # the backbone guarantees full reachability
        if (self.levels_out == UNREACHED).any():
            raise ValidationError("bfs: connected graph left vertices unreached")

    def validate_against_networkx(self) -> None:
        """Cross-check with networkx (slower; used in tests)."""
        import networkx as nx
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for v in range(self.n):
            for u in self.columns[self.row_ptr[v]:self.row_ptr[v + 1]]:
                g.add_edge(v, int(u))
        expected = nx.single_source_shortest_path_length(g, self.source)
        for v in range(self.n):
            if self.levels_out[v] != expected[v]:
                raise ValidationError(
                    f"bfs: vertex {v} level {self.levels_out[v]} != "
                    f"networkx {expected[v]}")

    # ------------------------------------------------------------------
    def _profile_level(self, nd, *args) -> KernelProfile:
        edges = self._edge_estimate()
        depth_est = max(self._estimated_depth(), 1)
        edges_per_level = edges / depth_est
        frontier = max(self.n // depth_est, 1)
        return KernelProfile(
            name="bfs_level",
            flops=0.0,
            int_ops=4.0 * edges_per_level,
            bytes_read=edges_per_level * 8.0 + frontier * 8.0,
            bytes_written=frontier * 5.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=frontier,
            seq_fraction=0.2,
            strided_fraction=0.1,
            random_fraction=0.7,          # the neighbour gather
            branch_fraction=0.4,
        )

    def _estimated_depth(self) -> int:
        """Expected BFS depth: ~log(n)/log(avg_degree) for random graphs."""
        import math
        return max(int(math.log(max(self.n, 2))
                       / math.log(max(self.avg_degree, 2))) + 2, 2)

    def profiles(self) -> list[KernelProfile]:
        return [self._profile_level(None).scaled(self._estimated_depth())]

    def trace_spec(self) -> trace_mod.TraceSpec:
        adjacency_bytes = (self.n + 1) * 4 + self._edge_estimate() * 4
        levels_bytes = self.n * 4
        return trace_mod.TraceSpec.single(
            trace_mod.seq(adjacency_bytes, passes=1, budget=("floordiv", 2)),
            trace_mod.random_component(levels_bytes, seed_offset=3,
                                       offset=adjacency_bytes,
                                       budget=("floordiv", 2)),
        )
