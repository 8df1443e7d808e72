"""kmeans — the MapReduce dwarf.

Iterative clustering of ``n_points`` points with ``n_features``
features into 5 clusters (fixed, paper §4.4.1).  The device kernel
assigns each point to its nearest centroid; the host relocates each
centroid to the mean of its members, as in the OpenDwarfs original.

Following the paper's enhancement, input features are *generated* as a
random distribution (the ``-g`` flag) rather than loaded from a file,
"to more fairly evaluate cache performance".

Working-set formula (paper Eq. 1)::

    size(feature) + size(membership) + size(cluster)
      = Pn*Fn*4    + Pn*4             + Cn*Fn*4      bytes

With 30 features, the tiny size of 256 points gives 31.5 KiB — just
inside the Skylake's 32 KiB L1 — exactly the paper's worked example.
"""

from __future__ import annotations

import numpy as np

from ..cache import trace as trace_mod
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError, assert_close)

#: Fixed cluster count for all problem sizes (paper §4.4.1).
N_CLUSTERS = 5

#: Default feature count from the Table 3 arguments (``-f 26``).
N_FEATURES = 26


def footprint_formula(n_points: int, n_features: int, n_clusters: int = N_CLUSTERS) -> int:
    """Equation 1 of the paper, in bytes."""
    feature = n_points * n_features * 4
    membership = n_points * 4
    cluster = n_clusters * n_features * 4
    return feature + membership + cluster


def _assign_kernel(nd, features, clusters, membership):
    """Nearest-centroid assignment, vectorised over points.

    Looping over the (few) clusters keeps the temporary at O(P) rather
    than O(P*C*F).
    """
    n_points = features.shape[0]
    best = np.full(n_points, np.inf, dtype=np.float32)
    for c in range(clusters.shape[0]):
        dist = ((features - clusters[c]) ** 2).sum(axis=1)
        closer = dist < best
        membership[closer] = c
        best[closer] = dist[closer]


class KMeans(Benchmark):
    """MapReduce dwarf: k-means clustering."""

    name = "kmeans"
    dwarf = "MapReduce"
    presets = {"tiny": 256, "small": 2048, "medium": 65600, "large": 131072}
    args_template = "-g -f 26 -p {phi}"

    def __init__(self, n_points: int, n_features: int = N_FEATURES,
                 n_clusters: int = N_CLUSTERS, seed: int = 42):
        super().__init__()
        if n_points < n_clusters:
            raise ValueError(
                f"need at least {n_clusters} points, got {n_points}"
            )
        self.n_points = int(n_points)
        self.n_features = int(n_features)
        self.n_clusters = int(n_clusters)
        self.seed = seed
        self.features: np.ndarray | None = None
        self.initial_clusters: np.ndarray | None = None
        self.membership_out: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "KMeans":
        return cls(n_points=int(phi), **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "KMeans":
        """Parse the Table 3 argument form ``-g -f F -p P``."""
        features, points = N_FEATURES, None
        i = 0
        while i < len(argv):
            a = argv[i]
            if a == "-g":
                i += 1
            elif a == "-f":
                features = int(argv[i + 1]); i += 2
            elif a == "-p":
                points = int(argv[i + 1]); i += 2
            else:
                raise ValueError(f"kmeans: unknown argument {a!r}")
        if points is None:
            raise ValueError("kmeans: -p <points> is required")
        return cls(n_points=points, n_features=features, **overrides)

    # ------------------------------------------------------------------
    def static_launches(self) -> StaticLaunchModel:
        p, f, c = self.n_points, self.n_features, self.n_clusters
        return StaticLaunchModel(
            source=kernels_cl.KMEANS_CL,
            macros={"N_FEATURES": f, "N_CLUSTERS": c},
            buffers={
                "features": StaticBuffer("features", p * f * 4),
                "clusters": StaticBuffer("clusters", c * f * 4),
                "membership": StaticBuffer("membership", p * 4),
            },
            launches=(
                StaticLaunch(
                    "kmeans_assign", (p,),
                    buffers={"features": ("features", 0),
                             "clusters": ("clusters", 0),
                             "membership": ("membership", 0)},
                ),
            ),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        rng = np.random.default_rng(self.seed)
        self.features = rng.uniform(0.0, 1.0,
                                    size=(self.n_points, self.n_features)).astype(np.float32)
        # Starting centroids are distinct randomly-chosen input points
        # ("starting positions for the centroids are determined randomly").
        start = rng.choice(self.n_points, size=self.n_clusters, replace=False)
        self.initial_clusters = self.features[start].copy()

        self.buf_features = context.buffer_like(self.features, MemFlags.READ_ONLY)
        self.buf_clusters = context.buffer_like(self.initial_clusters)
        self.buf_membership = context.buffer_like(
            np.zeros(self.n_points, dtype=np.int32)
        )
        program = Program(context, [
            KernelSource("kmeans_assign", _assign_kernel, self._profile_assign,
                         cl_source=kernels_cl.KMEANS_CL),
        ]).build()
        self.kernel = program.create_kernel("kmeans_assign").set_args(
            self.buf_features, self.buf_clusters, self.buf_membership
        )
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        return [
            queue.enqueue_write_buffer(self.buf_features, self.features),
            queue.enqueue_write_buffer(self.buf_clusters, self.initial_clusters),
        ]

    def run_iteration(self, queue) -> list[Event]:
        """One k-means sweep: device assignment + host centroid update."""
        self._require_setup()
        # remember the centroids the kernel assigned against, so
        # validation can check the assignment even though the host
        # update below moves the centroids afterwards
        self._assignment_clusters = self.buf_clusters.array.copy()
        event = queue.enqueue_nd_range_kernel(self.kernel, (self.n_points,))
        self._update_centroids_host()
        return [event]

    def _update_centroids_host(self) -> None:
        membership = self.buf_membership.array
        features = self.buf_features.array
        clusters = self.buf_clusters.array
        for c in range(self.n_clusters):
            members = features[membership == c]
            if len(members):
                clusters[c] = members.mean(axis=0)

    def run_to_convergence(self, queue, max_sweeps: int = 500) -> int:
        """Sweep until membership stops changing; returns sweep count."""
        self._require_setup()
        previous = None
        for sweep in range(1, max_sweeps + 1):
            self.run_iteration(queue)
            current = self.buf_membership.array.copy()
            if previous is not None and np.array_equal(current, previous):
                return sweep
            previous = current
        return max_sweeps

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        self.membership_out = np.empty(self.n_points, dtype=np.int32)
        self.clusters_out = np.empty_like(self.initial_clusters)
        return [
            queue.enqueue_read_buffer(self.buf_membership, self.membership_out),
            queue.enqueue_read_buffer(self.buf_clusters, self.clusters_out),
        ]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the device assignment against a float64 serial sweep.

        The reference recomputes the *last* assignment from the final
        centroids with an independent full-distance-matrix code path.
        """
        if self.membership_out is None:
            raise ValidationError("kmeans: results were never collected")
        f = self.buf_features.array.astype(np.float64)
        c = getattr(self, "_assignment_clusters", self.clusters_out).astype(np.float64)
        dist = ((f[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        expected = dist.argmin(axis=1).astype(np.int32)
        # Ties can legitimately differ between argmin orders; demand the
        # chosen cluster achieve the minimum distance instead of equality.
        chosen = dist[np.arange(self.n_points), self.membership_out]
        best = dist.min(axis=1)
        if not np.allclose(chosen, best, rtol=1e-5, atol=1e-9):
            bad = int((~np.isclose(chosen, best, rtol=1e-5, atol=1e-9)).sum())
            raise ValidationError(
                f"kmeans: {bad}/{self.n_points} points assigned to a "
                "non-nearest centroid"
            )
        del expected  # the membership array itself may differ only on ties

    def inertia(self) -> float:
        """Sum of squared distances to assigned centroids (fit quality)."""
        self._require_setup()
        f = self.buf_features.array.astype(np.float64)
        c = self.buf_clusters.array.astype(np.float64)
        m = self.buf_membership.array
        return float(((f - c[m]) ** 2).sum())

    # ------------------------------------------------------------------
    def _profile_assign(self, nd, features, clusters, membership) -> KernelProfile:
        p, f = features.shape
        c = clusters.shape[0]
        return KernelProfile(
            name="kmeans_assign",
            flops=3.0 * p * c * f,          # sub, mul, add per feature per cluster
            int_ops=2.0 * p * c,            # compare + select per cluster
            bytes_read=p * f * 4.0 + c * f * 4.0,
            bytes_written=p * 4.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=p,
            seq_fraction=0.5,               # points streamed...
            strided_fraction=0.5,           # ...features strided across work items
            branch_fraction=0.15,           # data-dependent min updates
        )

    def profiles(self) -> list[KernelProfile]:
        features = np.empty((self.n_points, self.n_features), dtype=np.float32)
        clusters = np.empty((self.n_clusters, self.n_features), dtype=np.float32)
        return [self._profile_assign(None, features, clusters, None)]

    def trace_spec(self) -> trace_mod.TraceSpec:
        feature_bytes = self.n_points * self.n_features * 4
        membership_bytes = self.n_points * 4
        cluster_bytes = self.n_clusters * self.n_features * 4
        return trace_mod.TraceSpec.single(
            trace_mod.seq(feature_bytes, passes=2, budget=("mul", 0.8)),
            trace_mod.seq(membership_bytes, passes=2, offset=feature_bytes,
                          budget=("mul", 0.15)),
            trace_mod.seq(cluster_bytes, passes=8,
                          offset=feature_bytes + membership_bytes,
                          budget=("mul", 0.05)),
        )
