"""RAPL energy sensor facade.

Models the PAPI RAPL module the paper uses on Intel platforms:
``rapl:::PP0_ENERGY:PACKAGE0`` — cumulative core-domain energy with
nanojoule resolution, sampled before/after the measured region.
"""

from __future__ import annotations

import numpy as np

from ..devices.specs import DeviceSpec, Vendor
from ..perfmodel.energy import mean_power_w


class RaplSensor:
    """Cumulative package-energy counter for Intel devices.

    RAPL's PP0 domain covers all cores of the package, so repeated
    measurements of an identical region scatter by a few percent with
    DVFS state and whatever else shares the package — the reason the
    paper observes larger energy variance on the CPU than on the GPU
    (§5.2).  Pass ``rng`` to model that scatter.
    """

    #: RAPL reports in nanojoules.
    RESOLUTION_J = 1e-9

    #: Relative sigma of package-activity scatter between measurements.
    PACKAGE_NOISE = 0.035

    def __init__(self, spec: DeviceSpec, rng: np.random.Generator | None = None):
        if spec.vendor != Vendor.INTEL:
            raise ValueError(
                f"RAPL is only available on Intel platforms, not {spec.vendor.value}"
            )
        self.spec = spec
        self.rng = rng
        self._cumulative_j = 0.0

    def accumulate(self, duration_s: float, utilization: float) -> None:
        """Advance the counter across an execution interval."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        energy = mean_power_w(self.spec, utilization) * duration_s
        if self.rng is not None:
            energy *= float(self.rng.lognormal(0.0, self.PACKAGE_NOISE))
        self._cumulative_j += energy

    def read_j(self) -> float:
        """Read the cumulative counter, quantised to nJ."""
        return round(self._cumulative_j / self.RESOLUTION_J) * self.RESOLUTION_J

    def measure(self, duration_s: float | np.ndarray,
                utilization: float) -> float | np.ndarray:
        """Before/after sampling of one region per duration; joules.

        ``duration_s`` is a scalar or a 1-D array of back-to-back region
        durations.  An array draws every region's scatter in one call
        and accumulates the counter with a sequential cumulative sum,
        quantising each before/after read to nJ, so the result, the
        counter and the rng stream position match a loop of
        :meth:`read_j` / :meth:`accumulate` / :meth:`read_j` bit for
        bit.  A scalar returns a ``float``, an array an array of the
        same length.
        """
        times = np.asarray(duration_s, dtype=float)
        if times.ndim > 1:
            raise ValueError("durations must be a scalar or a 1-D array")
        if np.any(times < 0):
            raise ValueError("duration must be non-negative")
        energies = mean_power_w(self.spec, utilization) * times.reshape(-1)
        if self.rng is not None:
            energies *= self.rng.lognormal(0.0, self.PACKAGE_NOISE,
                                           size=energies.size)
        cumulative = np.cumsum(np.concatenate(([self._cumulative_j], energies)))
        self._cumulative_j = float(cumulative[-1])
        reads = np.rint(cumulative / self.RESOLUTION_J) * self.RESOLUTION_J
        deltas = np.diff(reads)
        return float(deltas[0]) if times.ndim == 0 else deltas


def requires_superuser() -> bool:
    """RAPL MSR access needs root (the paper could only measure energy
    on the two machines where it had superuser access, §5.2)."""
    return True
