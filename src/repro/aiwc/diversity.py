"""Suite diversity analysis over AIWC feature vectors.

The original OpenDwarfs work justified each benchmark "with a thorough
diversity analysis" (paper §2).  We reproduce that: standardise the
AIWC feature vectors, compute the pairwise distance matrix, and report

* the most similar and most distinct benchmark pairs,
* a minimum-spanning-tree view of the suite (which benchmarks bridge
  which regions of workload space), and
* a per-benchmark distinctiveness score (distance to nearest
  neighbour) — a benchmark adds diversity if nothing else is close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import AIWCMetrics


@dataclass(frozen=True)
class DiversityReport:
    """Pairwise structure of the suite in AIWC feature space."""

    names: tuple[str, ...]
    distances: np.ndarray          # (n, n) standardised euclidean
    nearest: dict                  # name -> (other, distance)
    mst_edges: tuple               # ((a, b, distance), ...)

    def distance(self, a: str, b: str) -> float:
        i, j = self.names.index(a), self.names.index(b)
        return float(self.distances[i, j])

    def most_similar_pair(self) -> tuple[str, str, float]:
        d = self.distances.copy()
        np.fill_diagonal(d, np.inf)
        i, j = np.unravel_index(np.argmin(d), d.shape)
        return self.names[i], self.names[j], float(d[i, j])

    def most_distinct(self) -> tuple[str, float]:
        """The benchmark farthest from its nearest neighbour."""
        name, (_, dist) = max(self.nearest.items(), key=lambda kv: kv[1][1])
        return name, dist

    def distinctiveness_rows(self) -> list[dict]:
        return [
            {"benchmark": name, "nearest": other,
             "distance": round(dist, 3)}
            for name, (other, dist) in sorted(
                self.nearest.items(), key=lambda kv: -kv[1][1])
        ]


def standardize(vectors: np.ndarray) -> np.ndarray:
    """Z-score each feature; constant features map to zero.

    Non-finite inputs (an ``inf`` intensity, a NaN from an empty
    trace) are treated as zero so one degenerate benchmark cannot
    poison every pairwise distance.
    """
    vectors = np.nan_to_num(np.asarray(vectors, dtype=float),
                            nan=0.0, posinf=0.0, neginf=0.0)
    mean = vectors.mean(axis=0)
    std = vectors.std(axis=0)
    std[std == 0] = 1.0
    return (vectors - mean) / std


def analyze(metrics: list[AIWCMetrics]) -> DiversityReport:
    """Build the diversity report for a set of characterised benchmarks."""
    if len(metrics) < 2:
        raise ValueError("diversity analysis needs at least two benchmarks")
    names = tuple(m.benchmark for m in metrics)
    z = standardize(np.stack([m.vector() for m in metrics]))
    diff = z[:, None, :] - z[None, :, :]
    distances = np.sqrt((diff**2).sum(axis=2))

    nearest = {}
    for i, name in enumerate(names):
        row = distances[i].copy()
        row[i] = np.inf
        j = int(np.argmin(row))
        nearest[name] = (names[j], float(row[j]))

    import networkx as nx

    graph = nx.Graph()
    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            graph.add_edge(a, names[j], weight=float(distances[i, j]))
    mst = nx.minimum_spanning_tree(graph)
    mst_edges = tuple(sorted(
        (a, b, round(d["weight"], 3)) for a, b, d in mst.edges(data=True)
    ))

    return DiversityReport(names=names, distances=distances,
                           nearest=nearest, mst_edges=mst_edges)
