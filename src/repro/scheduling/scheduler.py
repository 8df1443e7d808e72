"""Multi-task scheduling over heterogeneous devices (paper §7).

Given a batch of benchmark tasks and a pool of devices, assign tasks to
devices.  Two classic policies are provided for the paper's promised
'evaluation of scheduling approaches':

* :func:`schedule_lpt` — heterogeneous longest-processing-time-first:
  tasks sorted by their best-case modeled time, each placed on the
  device whose *completion time* (current load + that device's modeled
  task time) is smallest.  A strong makespan heuristic.
* :func:`schedule_round_robin` — the baseline: tasks dealt to devices
  cyclically, ignoring affinity.

Comparing the two shows why device-aware scheduling matters on
heterogeneous pools: round-robin happily puts crc on a KNL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..devices.catalog import get_device
from ..dwarfs.base import Benchmark
from ..perfmodel.roofline import iteration_time
from ..telemetry.metrics import default_registry
from ..telemetry.tracer import get_tracer


@dataclass(frozen=True)
class Task:
    """One schedulable unit: a benchmark instance plus a label."""

    label: str
    bench: Benchmark

    def time_on(self, device: str) -> float:
        """Modeled iteration time of this task on one device.

        Parameters
        ----------
        device : str
            Catalog device name (Table 1).

        Returns
        -------
        float
            Modeled seconds per iteration (the scheduler's cost unit).
        """
        return iteration_time(get_device(device), self.bench.profiles()).total_s


@dataclass
class Assignment:
    """A complete schedule: device -> ordered task list with times."""

    placements: dict = field(default_factory=dict)  # device -> [(label, s)]

    def add(self, device: str, label: str, time_s: float) -> None:
        """Append one task to a device's queue.

        Parameters
        ----------
        device : str
            Target device name.
        label : str
            The task's label.
        time_s : float
            The task's modeled time on ``device``.
        """
        self.placements.setdefault(device, []).append((label, time_s))

    def load(self, device: str) -> float:
        """Total modeled busy time queued on ``device``, in seconds."""
        return sum(t for _, t in self.placements.get(device, []))

    @property
    def makespan(self) -> float:
        """The schedule's finish time: the maximum per-device load."""
        if not self.placements:
            return 0.0
        return max(self.load(d) for d in self.placements)

    @property
    def total_device_seconds(self) -> float:
        """Sum of all device loads (the schedule's total work)."""
        return sum(self.load(d) for d in self.placements)

    def rows(self) -> list[dict]:
        """The schedule as printable table rows, one per device."""
        return [
            {"device": device,
             "tasks": ", ".join(label for label, _ in tasks),
             "busy (ms)": round(self.load(device) * 1e3, 3)}
            for device, tasks in self.placements.items()
        ]


def _record_schedule(policy: str, assignment: Assignment,
                     n_tasks: int) -> None:
    registry = default_registry()
    registry.counter("scheduler_tasks_assigned_total",
                     "Tasks placed onto devices").inc(n_tasks, policy=policy)
    registry.gauge("scheduler_makespan_seconds",
                   "Makespan of the most recent schedule").set(
        assignment.makespan, policy=policy)


def schedule_lpt(tasks: list[Task], devices: list[str]) -> Assignment:
    """Heterogeneous LPT: biggest tasks first, earliest-finish device.

    Tasks are sorted by their best-case modeled time (descending);
    each is then placed on the device minimising completion time —
    current load plus that device's modeled time for the task, so
    affinity (a serial-chain kernel preferring a high-clocked CPU)
    falls out of the cost matrix.

    Parameters
    ----------
    tasks : list of Task
        The batch to place.
    devices : list of str
        Candidate catalog device names; must be non-empty.

    Returns
    -------
    Assignment
        Per-device ordered task lists with modeled times; compare its
        ``makespan`` against :func:`schedule_round_robin` to see the
        value of device-aware placement.

    Raises
    ------
    ValueError
        If ``devices`` is empty.
    """
    if not devices:
        raise ValueError("no devices to schedule onto")
    with get_tracer().span("schedule_lpt", tasks=len(tasks),
                           devices=len(devices)):
        # Precompute the per-device time matrix once.
        matrix = {t.label: {d: t.time_on(d) for d in devices} for t in tasks}
        order = sorted(tasks, key=lambda t: min(matrix[t.label].values()),
                       reverse=True)
        assignment = Assignment()
        for task in order:
            best = min(
                devices,
                key=lambda d: assignment.load(d) + matrix[task.label][d],
            )
            assignment.add(best, task.label, matrix[task.label][best])
    _record_schedule("lpt", assignment, len(tasks))
    return assignment


def schedule_round_robin(tasks: list[Task], devices: list[str]) -> Assignment:
    """Affinity-blind baseline: deal tasks to devices cyclically.

    Parameters
    ----------
    tasks : list of Task
        The batch to place, in input order.
    devices : list of str
        Candidate catalog device names; must be non-empty.

    Returns
    -------
    Assignment
        Task ``i`` lands on ``devices[i % len(devices)]`` regardless
        of modeled cost — the strawman that happily puts crc on a KNL.

    Raises
    ------
    ValueError
        If ``devices`` is empty.
    """
    if not devices:
        raise ValueError("no devices to schedule onto")
    with get_tracer().span("schedule_round_robin", tasks=len(tasks),
                           devices=len(devices)):
        assignment = Assignment()
        for i, task in enumerate(tasks):
            device = devices[i % len(devices)]
            assignment.add(device, task.label, task.time_on(device))
    _record_schedule("round_robin", assignment, len(tasks))
    return assignment
