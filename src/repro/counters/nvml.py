"""NVML power sensor facade.

Models the PAPI NVML module used on the GTX 1080: instantaneous board
power readings (``nvml:::<device>:power``) in milliwatts with a ±5 W
accuracy band, integrated over the measured region to joules — total
draw for the entire card, memory and chip (paper §5.2).
"""

from __future__ import annotations

import numpy as np

from ..devices.specs import DeviceSpec, Vendor
from ..perfmodel.energy import mean_power_w

#: NVML documents ±5 W accuracy on these boards.
POWER_ACCURACY_W = 5.0

#: NVML reports milliwatts.
RESOLUTION_W = 1e-3


class NvmlSensor:
    """Board power sampler for NVIDIA devices."""

    def __init__(self, spec: DeviceSpec, rng: np.random.Generator | None = None):
        if spec.vendor != Vendor.NVIDIA:
            raise ValueError(
                f"NVML is only available on NVIDIA devices, not {spec.vendor.value}"
            )
        self.spec = spec
        self.rng = rng

    def power_w(self, utilization: float) -> float:
        """One instantaneous power reading at the given utilisation."""
        p = mean_power_w(self.spec, utilization)
        if self.rng is not None:
            p += float(self.rng.uniform(-POWER_ACCURACY_W, POWER_ACCURACY_W))
        p = max(p, 0.0)
        return round(p / RESOLUTION_W) * RESOLUTION_W

    def measure(self, duration_s: float | np.ndarray, utilization: float,
                samples: int = 10) -> float | np.ndarray:
        """Integrate sampled power over one region per duration; joules.

        NVML is polled; we take ``samples`` readings across each region
        and integrate with the trapezoid rule, as LibSciBench does.

        ``duration_s`` is a scalar or a 1-D array of region durations.
        An array draws every reading in one call, row by row in the
        order a loop over the durations would, so the result and the
        rng stream position match a loop of :meth:`power_w` readings
        bit for bit.  A scalar returns a ``float``, an array an array
        of the same length.
        """
        times = np.asarray(duration_s, dtype=float)
        if times.ndim > 1:
            raise ValueError("durations must be a scalar or a 1-D array")
        if np.any(times < 0):
            raise ValueError("duration must be non-negative")
        rows = times.reshape(-1)
        per_region = samples if samples >= 2 else 1
        readings = np.full((rows.size, per_region),
                           mean_power_w(self.spec, utilization))
        if self.rng is not None:
            readings += self.rng.uniform(-POWER_ACCURACY_W, POWER_ACCURACY_W,
                                         size=readings.shape)
        readings = np.rint(np.maximum(readings, 0.0) / RESOLUTION_W) * RESOLUTION_W
        if samples < 2:
            energies = readings[:, 0] * rows
        else:
            energies = np.trapezoid(readings, dx=(rows / (samples - 1))[:, None],
                                    axis=1)
        return float(energies[0]) if times.ndim == 0 else energies
