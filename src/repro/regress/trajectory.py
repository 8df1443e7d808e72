"""Append-only performance trajectory (``BENCH_<n>.json`` points).

A baseline answers "did this run regress against that one?"; the
trajectory answers "when did it change?".  Every recorded point is one
file — ``BENCH_0.json``, ``BENCH_1.json``, ... — holding per-cell
summary statistics (mean/std/n), so the directory is an append-only
log a CI pipeline can accumulate as build artifacts: a new point never
rewrites an old one, and :func:`change_points` replays the history to
locate the step where each cell's mean shifted.

Points store summaries rather than raw samples (a trajectory outlives
any single baseline and grows linearly with history); the change-point
test is therefore Welch's t-test computed from the stored moments, at
the same three-part gate (:class:`~repro.regress.compare.Thresholds`)
the baseline comparison uses.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..harness.runner import RunResult
from ..harness.sweep import MODEL_VERSION
from .compare import Thresholds

#: Version stamp of the trajectory-point JSON schema.
TRAJECTORY_SCHEMA_VERSION = 1

_POINT_RE = re.compile(r"^BENCH_(\d+)\.json$")


class TrajectoryError(Exception):
    """A trajectory point is missing, corrupt or schema-incompatible."""


@dataclass(frozen=True)
class CellPoint:
    """One cell's summary at one trajectory point."""

    benchmark: str
    size: str
    device: str
    mean_s: float
    std_s: float
    n: int

    @property
    def coordinates(self) -> tuple[str, str, str]:
        """The (benchmark, size, device) triple identifying this cell."""
        return (self.benchmark, self.size, self.device)

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark, "size": self.size,
            "device": self.device, "mean_s": self.mean_s,
            "std_s": self.std_s, "n": self.n,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CellPoint":
        return cls(
            benchmark=str(payload["benchmark"]),
            size=str(payload["size"]),
            device=str(payload["device"]),
            mean_s=float(payload["mean_s"]),
            std_s=float(payload["std_s"]),
            n=int(payload["n"]),
        )


@dataclass
class TrajectoryPoint:
    """One recorded point: a label plus every cell's summary."""

    index: int
    label: str
    model_version: str = MODEL_VERSION
    created_unix: float = field(default_factory=time.time)
    cells: list[CellPoint] = field(default_factory=list)
    #: Harness phase-timing summary for the recording sweep itself
    #: (phase -> {"total_s", "self_s", "count"}), produced by
    #: :func:`repro.telemetry.profile.phase_summary`.  Optional and
    #: additive — points recorded before the profiler existed load as
    #: ``None`` — so per-phase gating can join the trajectory without a
    #: schema bump.
    phases: dict | None = None

    def cell(self, benchmark: str, size: str, device: str
             ) -> CellPoint | None:
        """The cell at the given coordinates, or ``None``."""
        for c in self.cells:
            if c.coordinates == (benchmark, size, device):
                return c
        return None

    @classmethod
    def from_results(cls, index: int, results: list[RunResult],
                     label: str = "",
                     phases: dict | None = None) -> "TrajectoryPoint":
        """Summarise a sweep's results into one trajectory point."""
        point = cls(index=index, label=label, phases=phases)
        for r in results:
            s = r.time_summary
            point.cells.append(CellPoint(
                benchmark=r.benchmark, size=r.size, device=r.device,
                mean_s=s.mean, std_s=s.std, n=s.n,
            ))
        return point

    def to_json(self) -> str:
        """The point as schema-versioned JSON text."""
        return json.dumps(
            {
                "schema_version": TRAJECTORY_SCHEMA_VERSION,
                "index": self.index,
                "label": self.label,
                "model_version": self.model_version,
                "created_unix": self.created_unix,
                "cells": [c.to_dict() for c in self.cells],
                "phases": self.phases,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TrajectoryPoint":
        """Parse :meth:`to_json` output; raises TrajectoryError."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise TrajectoryError(f"point is not valid JSON: {exc}") from None
        version = payload.get("schema_version") if isinstance(payload, dict) \
            else None
        if version != TRAJECTORY_SCHEMA_VERSION:
            raise TrajectoryError(
                f"trajectory schema version {version!r} is not supported "
                f"(expected {TRAJECTORY_SCHEMA_VERSION})")
        try:
            return cls(
                index=int(payload["index"]),
                label=str(payload["label"]),
                model_version=str(payload["model_version"]),
                created_unix=float(payload["created_unix"]),
                cells=[CellPoint.from_dict(c) for c in payload["cells"]],
                phases=payload.get("phases"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TrajectoryError(f"malformed point: {exc!r}") from None


def default_trajectory_dir() -> Path:
    """Where the trajectory lives when no ``--trajectory-dir`` is given.

    ``$REPRO_TRAJECTORY_DIR`` wins, else ``.repro/trajectory`` under
    the current directory — like baselines, trajectory points are
    project data meant to be committed or uploaded as CI artifacts.
    """
    env = os.environ.get("REPRO_TRAJECTORY_DIR")
    if env:
        return Path(env).expanduser()
    return Path(".repro/trajectory")


class Trajectory:
    """A directory of append-only ``BENCH_<n>.json`` points."""

    def __init__(self, root: str | Path):
        self.root = Path(root).expanduser()

    def path_for(self, index: int) -> Path:
        """Where point ``index`` lives (whether or not it exists)."""
        return self.root / f"BENCH_{index}.json"

    def indices(self) -> list[int]:
        """Recorded point indices, ascending."""
        out = []
        if self.root.is_dir():
            for entry in self.root.iterdir():
                m = _POINT_RE.match(entry.name)
                if m:
                    out.append(int(m.group(1)))
        return sorted(out)

    def next_index(self) -> int:
        """The index :meth:`append` will assign next."""
        indices = self.indices()
        return (indices[-1] + 1) if indices else 0

    # ------------------------------------------------------------------
    def append(self, point: TrajectoryPoint) -> Path:
        """Persist one point; refuses to overwrite an existing index."""
        path = self.path_for(point.index)
        if path.exists():
            raise TrajectoryError(
                f"trajectory point {path.name} already exists "
                "(the log is append-only; pick a fresh index)")
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(point.to_json(), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def load(self, index: int) -> TrajectoryPoint:
        """Load one point by index."""
        try:
            text = self.path_for(index).read_text(encoding="utf-8")
        except OSError:
            raise TrajectoryError(
                f"no trajectory point BENCH_{index}.json in {self.root}"
            ) from None
        return TrajectoryPoint.from_json(text)

    def points(self) -> list[TrajectoryPoint]:
        """Every recorded point, in index order."""
        return [self.load(i) for i in self.indices()]

    def __len__(self) -> int:
        return len(self.indices())


# ----------------------------------------------------------------------
# Change-point detection over the history
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChangePoint:
    """One cell's mean shifting between two consecutive points."""

    benchmark: str
    size: str
    device: str
    from_index: int
    to_index: int
    from_mean_s: float
    to_mean_s: float
    p_value: float
    effect_size: float

    @property
    def direction(self) -> str:
        """``slower`` or ``faster``."""
        return "slower" if self.to_mean_s > self.from_mean_s else "faster"

    @property
    def ratio(self) -> float:
        """``to_mean / from_mean`` (> 1 means slower)."""
        return (self.to_mean_s / self.from_mean_s
                if self.from_mean_s else math.nan)

    def format(self) -> str:
        where = f"{self.benchmark}/{self.size}/{self.device}"
        return (
            f"{where}: {self.direction} at BENCH_{self.to_index} "
            f"(x{self.ratio:.3f} vs BENCH_{self.from_index}, "
            f"p={self.p_value:.2e}, d={self.effect_size:+.2f})"
        )

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark, "size": self.size,
            "device": self.device, "from_index": self.from_index,
            "to_index": self.to_index, "from_mean_s": self.from_mean_s,
            "to_mean_s": self.to_mean_s, "p_value": self.p_value,
            "effect_size": self.effect_size, "direction": self.direction,
        }


def _welch_from_stats(m1: float, s1: float, n1: int,
                      m2: float, s2: float, n2: int
                      ) -> tuple[float, float, float]:
    """Welch's t, p and Cohen's d from summary moments.

    The trajectory stores (mean, std, n) rather than raw samples, so
    the two-sample test is reconstructed from the moments — identical
    to :func:`repro.scibench.stats.welch_t_test` on the raw data up to
    floating-point rounding.
    """
    if n1 < 2 or n2 < 2:
        return math.nan, math.nan, math.nan
    v1, v2 = s1 * s1 / n1, s2 * s2 / n2
    se2 = v1 + v2
    pooled = math.sqrt(((n1 - 1) * s1 * s1 + (n2 - 1) * s2 * s2)
                       / (n1 + n2 - 2))
    shift = m2 - m1
    if pooled == 0.0:
        d = 0.0 if shift == 0.0 else math.copysign(math.inf, shift)
    else:
        d = shift / pooled
    if se2 == 0.0:
        return math.nan, math.nan, d
    t = shift / math.sqrt(se2)
    df = se2 * se2 / (v1 * v1 / (n1 - 1) + v2 * v2 / (n2 - 1))
    from scipy import stats as sps

    p = 2.0 * float(sps.t.sf(abs(t), df))
    return t, p, d


def change_points(points: list[TrajectoryPoint],
                  thresholds: Thresholds | None = None
                  ) -> list[ChangePoint]:
    """Locate mean shifts between consecutive trajectory points.

    Each cell's history is scanned pairwise; a step passes the same
    three-part gate as the baseline comparison (``p < alpha``,
    ``|d| >= min_effect_size``, relative shift ``>= min_rel_shift``).
    Cells absent from either side of a pair are skipped — coverage
    drift is the baseline comparison's job.
    """
    th = thresholds or Thresholds()
    out: list[ChangePoint] = []
    for prev, curr in zip(points, points[1:]):
        for cell in curr.cells:
            before = prev.cell(*cell.coordinates)
            if before is None:
                continue
            t, p, d = _welch_from_stats(
                before.mean_s, before.std_s, before.n,
                cell.mean_s, cell.std_s, cell.n)
            if math.isnan(p) or before.mean_s == 0.0:
                continue
            rel = abs(cell.mean_s - before.mean_s) / before.mean_s
            if (p < th.alpha and abs(d) >= th.min_effect_size
                    and rel >= th.min_rel_shift):
                out.append(ChangePoint(
                    benchmark=cell.benchmark, size=cell.size,
                    device=cell.device,
                    from_index=prev.index, to_index=curr.index,
                    from_mean_s=before.mean_s, to_mean_s=cell.mean_s,
                    p_value=p, effect_size=d,
                ))
    return out
