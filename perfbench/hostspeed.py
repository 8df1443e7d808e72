"""Host speed, measured in the same thread as the work it scales.

The host drifts: on a shared 2-vCPU VM the same code takes up to 40%
more or less CPU time from one second to the next, as the CPU's clock
and the neighbours' load change.  ``cpu_ref_s`` divides that drift
out.  While a timed phase runs, a ``SIGPROF`` interval timer
interrupts the measuring process every ``PERIOD_S`` of its CPU time,
and the handler runs one fixed calibration ``unit()``.  The phase's
own CPU time (calibration excluded) is then scaled by
``REFERENCE_UNIT_S / mean unit time``::

    cpu_ref_s = work_cpu_s x REFERENCE_UNIT_S x samples / calib_cpu_s

The units are spread evenly over the phase's CPU time, in the same
thread as the work, so they see the slowdowns the work sees.  The
unit is a little of many kinds of work (JSON, regex, the parser,
string formatting, sorting, sets, method calls): when a neighbour
shares the core, code with a large instruction footprint slows more
than a tight loop does, and the program's own code has a large one.

On the host the bounds were set on, in long runs of back-to-back passes
(5-12 s each) of ``sweep_exec``, ``sweep_model`` and ``lint_ir``, this
unit cut the passes' CPU-time spread (standard deviation over mean)
from 0.12-0.24 to 0.03-0.07.  Tight loops tracked the work worse: a
dict-counting loop, a pointer chase through 16 MiB and scalar numpy
calls, alone or together, left 0.05-0.13.  The unit's work never
changes, so only the program moves ``cpu_ref_s``.
"""

from __future__ import annotations

import ast
import json
import re
import signal
import time

#: CPU seconds of the measured process between two calibration units.
PERIOD_S = 0.1
#: The same for set-up, which is shorter (about 2 s of CPU time).
SETUP_PERIOD_S = 0.05
#: ``unit()`` on the host the bounds were set on (a 2-vCPU Intel Xeon
#: VM); only the scale of ``cpu_ref_s`` depends on it.
REFERENCE_UNIT_S = 0.001

_RECORD = {"cells": [{"name": f"c{i}", "values": [i * 0.5, i, str(i)],
                      "ok": i % 2 == 0} for i in range(60)]}
_TEXT = " ".join(f"kernel_{i}(a{i}, b[{i}]) + {i}.5f;" for i in range(60))
_CALL = re.compile(r"(\w+)\((\w+), (\w+)\[(\d+)\]\)")
_SOURCE = """
def cell_id(benchmark: str, size: str, device: str) -> str:
    return f"{benchmark}/{size}/{device}"


def payload_digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
"""
_WORDS = [f"W{(i * 7919) % 1000}x" for i in range(400)]


class _Point:
    __slots__ = ("a",)

    def __init__(self, a: int) -> None:
        self.a = a

    def shifted(self, b: int) -> int:
        return self.a + b


def unit() -> None:
    """The fixed calibration work: about 0.5 ms back to back, 1 ms
    between slices of the program's work, which evicts it from the
    caches."""
    json.loads(json.dumps(_RECORD))
    _CALL.findall(_TEXT)
    ast.parse(_SOURCE)
    "".join(f"{i}:{i * i:x}" for i in range(200))
    sorted(_WORDS, key=str.lower)
    {word[:3] for word in _WORDS}
    sum(_Point(i).shifted(i) for i in range(300))


class Interleaver:
    """Runs ``unit()`` every ``period_s`` of process CPU time.

    ``start`` arms the timer; ``stop`` disarms it and returns the
    process's CPU and wall time since ``start`` with the calibration
    taken out, and the calibration's own totals.  Only the main thread
    runs the handler, so the process must be idle or busy in Python in
    its main thread, as every measured process is.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.active = False
        self._reset()

    def _reset(self) -> None:
        self.samples = 0
        self.calib_cpu_s = 0.0
        self.calib_wall_s = 0.0
        self.start_cpu = time.process_time()
        self.start_wall = time.perf_counter()

    def start(self) -> None:
        self._reset()
        self.active = True
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.period_s, self.period_s)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.active = False
        if not self.samples:
            self._tick()  # a phase too short for the timer
        return {
            "cpu_s": time.process_time() - self.start_cpu - self.calib_cpu_s,
            "wall_s": time.perf_counter() - self.start_wall
            - self.calib_wall_s,
            "calib_cpu_s": self.calib_cpu_s,
            "calib_wall_s": self.calib_wall_s,
            "samples": self.samples,
        }

    def _tick(self, *_signal) -> None:
        # thread time: other threads' work during the unit is work
        wall, cpu = time.perf_counter(), time.thread_time()
        unit()
        self.calib_cpu_s += time.thread_time() - cpu
        self.calib_wall_s += time.perf_counter() - wall
        self.samples += 1


def speed_scale(parts: list[dict]) -> float:
    """``REFERENCE_UNIT_S`` over the mean unit time of ``parts``.

    Multiplying a time taken alongside the units by this gives it at
    the reference host speed.  Several processes (``serve_hub``) pool
    their units: each stands for ``period_s`` of some process's CPU
    time, so the pooled mean weighs each process by the CPU time it
    used.
    """
    samples = sum(p["samples"] for p in parts)
    calib = sum(p["calib_cpu_s"] for p in parts)
    return REFERENCE_UNIT_S * samples / calib


def cpu_ref_s(parts: list[dict]) -> float:
    """Reference-speed CPU seconds of the ``stop()`` results ``parts``."""
    return sum(p["cpu_s"] for p in parts) * speed_scale(parts)


def setup_ref_s(wall_s: float, parts: list[dict]) -> float:
    """A set-up's wall time ``wall_s`` at the reference host speed.

    ``parts`` are the ``stop()`` results of the processes that set up,
    each timed from its start; their calibration time is taken out
    (the longest one's, since the processes set up side by side).
    """
    return ((wall_s - max(p["calib_wall_s"] for p in parts))
            * speed_scale(parts))
