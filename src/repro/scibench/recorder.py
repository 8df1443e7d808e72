"""Measurement recorder (the LibSciBench ``LSB_Rec`` role).

The paper instruments each benchmark's "three main components of
application time: kernel execution, host setup and memory transfer
operations" (§2).  A :class:`Recorder` accumulates samples per named
region, optionally tagged with energy and counter values, and produces
:class:`~repro.scibench.stats.SampleSummary` tables plus a simple CSV
dump (LibSciBench writes ``.r`` trace files for R; CSV is our
equivalent).
"""

from __future__ import annotations

import io
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .stats import SampleSummary, summarize

#: Canonical region names used across the suite.
REGION_KERNEL = "kernel"
REGION_SETUP = "host_setup"
REGION_TRANSFER = "transfer"


@dataclass
class Measurement:
    """One recorded sample of one region."""

    region: str
    time_s: float
    energy_j: float | None = None
    tags: dict = field(default_factory=dict)


class Recorder:
    """Accumulates per-region timing (and energy) samples."""

    def __init__(self, name: str = ""):
        self.name = name
        self._measurements: list[Measurement] = []

    # ------------------------------------------------------------------
    def record(self, region: str, time_s: float, energy_j: float | None = None,
               **tags) -> None:
        """Record one sample."""
        if time_s < 0:
            raise ValueError(f"negative time {time_s} for region {region!r}")
        self._measurements.append(
            Measurement(region=region, time_s=time_s, energy_j=energy_j, tags=dict(tags))
        )

    def record_samples(self, region: str, times_s: np.ndarray,
                       energies_j: np.ndarray, **tags) -> None:
        """Record one sample per (time, energy) pair, all with ``tags``.

        Appends the same measurements as a loop of :meth:`record`
        calls, each with its own copy of ``tags``, after one check that
        no time is negative.
        """
        times = np.asarray(times_s, dtype=float)
        if np.any(times < 0):
            raise ValueError(f"negative time {times.min()} for region {region!r}")
        energies = np.asarray(energies_j, dtype=float)
        self._measurements.extend(
            Measurement(region=region, time_s=t, energy_j=e, tags=dict(tags))
            for t, e in zip(times.tolist(), energies.tolist())
        )

    def record_event(self, region: str, event) -> None:
        """Record an OpenCL event's device time (and energy if present).

        Besides the command type, the kernel name and bytes moved are
        propagated from ``event.info`` into the measurement tags so
        per-kernel/per-transfer breakdowns survive into the CSV and
        LSB outputs instead of collapsing into one anonymous region.
        """
        tags = {"command": event.command_type.value}
        if "kernel" in event.info:
            tags["kernel"] = event.info["kernel"]
        if "bytes" in event.info:
            tags["bytes"] = event.info["bytes"]
        self.record(
            region,
            event.duration_s,
            energy_j=event.info.get("energy_j"),
            **tags,
        )

    # ------------------------------------------------------------------
    @property
    def regions(self) -> tuple[str, ...]:
        """Region names in first-recorded order."""
        seen: dict[str, None] = {}
        for m in self._measurements:
            seen.setdefault(m.region, None)
        return tuple(seen)

    def times_s(self, region: str) -> list[float]:
        """All timing samples of one region, in recording order."""
        return [m.time_s for m in self._measurements if m.region == region]

    def energies_j(self, region: str) -> list[float]:
        """All energy samples of one region (records without energy skipped)."""
        return [
            m.energy_j
            for m in self._measurements
            if m.region == region and m.energy_j is not None
        ]

    def count(self, region: str | None = None) -> int:
        """Number of samples in one region (or in total, with ``None``)."""
        if region is None:
            return len(self._measurements)
        return sum(1 for m in self._measurements if m.region == region)

    # ------------------------------------------------------------------
    def summary(self, region: str) -> SampleSummary:
        """Summary statistics of a region's timing samples."""
        samples = self.times_s(region)
        if not samples:
            raise KeyError(f"no samples recorded for region {region!r}")
        return summarize(samples)

    def summaries(self) -> dict[str, SampleSummary]:
        """Per-region timing summaries, keyed by region name."""
        return {r: self.summary(r) for r in self.regions}

    def energy_summary(self, region: str) -> SampleSummary:
        """Summary statistics of a region's energy samples."""
        samples = self.energies_j(region)
        if not samples:
            raise KeyError(f"no energy samples recorded for region {region!r}")
        return summarize(samples)

    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """All samples as CSV text (region, time_s, energy_j, tags).

        Tags are rendered ``key=value`` joined with ``;`` so the column
        stays a single CSV field without quoting.
        """
        out = io.StringIO()
        out.write("region,time_s,energy_j,tags\n")
        for m in self._measurements:
            energy = "" if m.energy_j is None else f"{m.energy_j:.9g}"
            tags = ";".join(f"{k}={v}" for k, v in sorted(m.tags.items()))
            out.write(f"{m.region},{m.time_s:.9g},{energy},{tags}\n")
        return out.getvalue()

    def clear(self) -> None:
        """Drop every recorded sample."""
        self._measurements.clear()

    def __len__(self) -> int:
        return len(self._measurements)

    def __repr__(self) -> str:
        per = defaultdict(int)
        for m in self._measurements:
            per[m.region] += 1
        parts = ", ".join(f"{r}: {n}" for r, n in per.items()) or "empty"
        return f"<Recorder {self.name!r} {parts}>"
