"""Benchmark runner: the paper's measurement protocol.

For each (benchmark, size, device) group the runner applies §4.3:

* the benchmark executes in a loop for **at least 2 seconds** per
  sample so OS noise does not dominate short kernels;
* **50 samples** are collected (``repro.scibench.required_sample_size``
  reproduces that number from the power calculation);
* the mean kernel time per iteration is recorded per sample, along
  with kernel energy via the RAPL (Intel) or NVML (NVIDIA) sensor
  models.

Functional execution (running the kernels' numpy bodies and validating
against the serial references) is decoupled from timing sampling: one
functional pass establishes correctness, then timing samples are drawn
from the analytic model + noise model — re-running a numpy kernel 10^5
times would only measure the simulator, not the modeled device.
"""

from __future__ import annotations

import hashlib
import math
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from ..counters.nvml import NvmlSensor
from ..counters.rapl import RaplSensor
from ..devices.catalog import device_names, get_device
from ..devices.specs import DeviceSpec, Vendor
from ..dwarfs.base import SIZES, Benchmark
from ..dwarfs.registry import BENCHMARKS, get_benchmark
from ..ocl import CommandQueue, Context, Device, find_device
from ..perfmodel import iteration_time, noisy_samples
from ..perfmodel.roofline import TimeBreakdown
from ..perfmodel.energy import mean_power_w
from ..scibench.recorder import REGION_KERNEL, REGION_SETUP, REGION_TRANSFER, Recorder
from ..scibench.stats import SampleSummary, summarize
from ..telemetry.metrics import default_registry
from ..telemetry.runlog import RunLog, get_default_runlog
from ..telemetry.tracer import get_tracer

#: Samples per measurement group (paper §4.3).
DEFAULT_SAMPLES = 50

#: Minimum looped duration per sample, seconds (paper §2).
MIN_LOOP_SECONDS = 2.0

#: Decade bucket ladder (1 us .. 10 s) for ``harness_run_mean_seconds``:
#: modeled kernel times span microseconds (tiny) to seconds (large).
_MEAN_TIME_BUCKETS = tuple(10.0 ** e for e in range(-6, 2))


def cell_seed(seed: int, benchmark: str, size: str, device: str) -> int:
    """Deterministic RNG seed for one (benchmark, size, device) cell.

    Derived with SHA-256 rather than Python's built-in ``hash`` so the
    value is identical in every process regardless of
    ``PYTHONHASHSEED`` — the property that lets
    :func:`repro.harness.sweep.run_sweep` fan cells out over a process
    pool and still produce samples bit-identical to a serial run.

    Parameters
    ----------
    seed : int
        The sweep-level base seed (``RunConfig.seed``).
    benchmark, size, device : str
        The cell coordinates; ``device`` is the canonical catalog name.

    Returns
    -------
    int
        A 64-bit seed for :func:`numpy.random.default_rng`.
    """
    material = f"{seed}|{benchmark}|{size}|{device}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "little")


@dataclass
class RunConfig:
    """One measurement group: benchmark x size x device."""

    benchmark: str
    size: str
    device: str
    samples: int = DEFAULT_SAMPLES
    min_loop_seconds: float = MIN_LOOP_SECONDS
    #: Execute the kernels functionally and validate results.  Model-
    #: only runs skip this (used for full-matrix sweeps after each
    #: benchmark has been validated once).
    execute: bool = True
    validate: bool = True
    seed: int = 12345


@dataclass
class RunResult:
    """Measurements for one group."""

    benchmark: str
    size: str
    device: str
    device_class: str
    nominal_s: float
    times_s: np.ndarray
    energies_j: np.ndarray
    loop_iterations: int
    breakdown: TimeBreakdown
    footprint_bytes: int
    validated: bool
    #: Simulated PAPI counters for this cell (paper §4.3), from
    #: :func:`repro.harness.artifacts.simulate_cell_counters`; ``None``
    #: for results built outside :func:`run_benchmark` or loaded from
    #: pre-counter payloads.  Always plain Python ints.
    counters: dict[str, int] | None = None
    #: Per-region measurement log; absent for results built outside
    #: :func:`run_benchmark` (e.g. the CLI's custom-argument path).
    recorder: Recorder | None = field(repr=False, default=None)

    @property
    def time_summary(self) -> SampleSummary:
        """Summary statistics of the timing samples."""
        return summarize(self.times_s)

    @property
    def energy_summary(self) -> SampleSummary:
        """Summary statistics of the energy samples."""
        return summarize(self.energies_j)

    @property
    def mean_ms(self) -> float:
        """Mean kernel time per iteration, milliseconds."""
        return float(self.times_s.mean() * 1e3)

    @property
    def mean_energy_j(self) -> float:
        """Mean kernel energy per iteration, joules."""
        return float(self.energies_j.mean())


def energy_samples(
    spec: DeviceSpec,
    times_s: np.ndarray,
    utilization: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-sample kernel energy through the appropriate sensor model.

    One sensor reads every sample of the cell in a single
    :meth:`~repro.counters.nvml.NvmlSensor.measure` (NVIDIA) or
    :meth:`~repro.counters.rapl.RaplSensor.measure` (Intel) call.
    """
    if spec.vendor == Vendor.NVIDIA:
        return NvmlSensor(spec, rng=rng).measure(times_s, utilization)
    if spec.vendor == Vendor.INTEL:
        return RaplSensor(spec, rng=rng).measure(times_s, utilization)
    # AMD boards had no supported PAPI energy module in the paper;
    # model the same power law directly.
    return mean_power_w(spec, utilization) * times_s


def run_benchmark(config: RunConfig, runlog: RunLog | None = None,
                  artifact_cache=None) -> RunResult:
    """Measure one (benchmark, size, device) group.

    Parameters
    ----------
    config : RunConfig
        The cell to measure.
    runlog : RunLog, optional
        Explicit JSONL run log (default: the process-global one).
    artifact_cache : optional
        Persistent store for the per-(benchmark, size) analysis
        artifacts (a :class:`~repro.harness.sweep.SweepCache`); the
        in-process memo is always consulted first.
    """
    from .artifacts import get_cell_artifacts, simulate_cell_counters

    tracer = get_tracer()
    registry = default_registry()
    runlog = runlog if runlog is not None else get_default_runlog()
    spec = get_device(config.device)
    cls = get_benchmark(config.benchmark)
    bench = cls.from_size(config.size)
    rng = np.random.default_rng(
        cell_seed(config.seed, config.benchmark, config.size, spec.name)
    )
    recorder = Recorder(f"{config.benchmark}/{config.size}/{spec.name}")
    if runlog is not None:
        runlog.write("run_start", benchmark=config.benchmark, size=config.size,
                     device=spec.name, samples=config.samples,
                     execute=config.execute)

    wall_start = time.perf_counter()
    with tracer.span("run_benchmark", benchmark=config.benchmark,
                     size=config.size, device=spec.name,
                     phase="measure") as cell_span:
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        validated = False
        if config.execute:
            device = find_device(spec.name)
            context = Context(device)
            queue = CommandQueue(context, rng=rng)
            try:
                with tracer.span("host_setup"):
                    bench.host_setup(context)
                with tracer.span("transfer_inputs"):
                    for event in bench.transfer_inputs(queue):
                        recorder.record_event(REGION_TRANSFER, event)
                with tracer.span("run_iteration"):
                    for event in bench.run_iteration(queue):
                        recorder.record_event(REGION_KERNEL, event)
                with tracer.span("collect_results"):
                    for event in bench.collect_results(queue):
                        recorder.record_event(REGION_TRANSFER, event)
                if config.validate:
                    with tracer.span("validate"):
                        try:
                            bench.validate()
                        except Exception:
                            registry.counter(
                                "harness_validation_failures_total",
                                "Benchmark validations that raised",
                            ).inc(benchmark=config.benchmark)
                            raise
                        validated = True
            finally:
                bench.teardown()
        else:
            # profiles() needs per-instance parameters only; host data
            # is not generated
            pass

        with tracer.span("sample_timings", samples=config.samples):
            breakdown = iteration_time(spec, bench.profiles())
            nominal = breakdown.total_s
            loop_iterations = max(
                1, math.ceil(config.min_loop_seconds / max(nominal, 1e-9)))
            times = noisy_samples(spec, nominal, config.samples, rng,
                                  loop_iterations=loop_iterations)
            energies = energy_samples(spec, times, breakdown.utilization, rng)
            recorder.record_samples(REGION_KERNEL, times, energies, sampled=True)

        # Simulated PAPI counters (paper §4.3), replayed from the
        # memoized per-(benchmark, size) artifacts.  Deterministic and
        # RNG-free, so adding this step cannot shift the timing samples.
        with tracer.span("counter_sim", benchmark=config.benchmark,
                         size=config.size):
            artifacts = get_cell_artifacts(config.benchmark, config.size,
                                           cache=artifact_cache)
            counters = simulate_cell_counters(spec, artifacts)

        if tracemalloc.is_tracing():
            # per-cell peak allocation attribution (repro profile --memory)
            cell_span.set_attribute(
                "peak_alloc_bytes", tracemalloc.get_traced_memory()[1])

    registry.bucket_histogram(
        "harness_cell_duration_seconds",
        "Wall time spent measuring one (benchmark, size, device) cell",
    ).observe(time.perf_counter() - wall_start,
              benchmark=config.benchmark, size=config.size)
    registry.counter("harness_runs_total",
                     "Measurement groups executed").inc(
        benchmark=config.benchmark, device_class=spec.device_class.value)
    registry.counter("harness_samples_total",
                     "Timing samples collected").inc(config.samples)
    registry.counter("harness_loop_iterations_total",
                     "Benchmark loop iterations implied by the 2 s rule").inc(
        loop_iterations * config.samples)
    registry.bucket_histogram(
        "harness_run_mean_seconds", "Mean modeled kernel time per group",
        buckets=_MEAN_TIME_BUCKETS,
    ).observe(float(times.mean()), benchmark=config.benchmark)

    result = RunResult(
        benchmark=config.benchmark,
        size=config.size,
        device=spec.name,
        device_class=spec.device_class.value,
        nominal_s=nominal,
        times_s=times,
        energies_j=energies,
        loop_iterations=loop_iterations,
        breakdown=breakdown,
        footprint_bytes=bench.footprint_bytes(),
        validated=validated,
        counters=counters,
        recorder=recorder,
    )
    if runlog is not None:
        runlog.write(
            "run_complete", benchmark=result.benchmark, size=result.size,
            device=result.device, device_class=result.device_class,
            validated=result.validated, loop_iterations=result.loop_iterations,
            mean_ms=result.mean_ms, mean_energy_j=result.mean_energy_j,
            nominal_s=result.nominal_s, footprint_bytes=result.footprint_bytes,
        )
    return result


def run_matrix(
    benchmark: str,
    sizes: list[str] | None = None,
    devices: list[str] | None = None,
    execute: bool = False,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 12345,
    runlog: RunLog | None = None,
    jobs: int | None = 1,
    cache=None,
    refresh: bool = False,
) -> list[RunResult]:
    """Measure a benchmark across sizes x devices (model-only default).

    Parameters
    ----------
    benchmark : str
        Registered benchmark name.
    sizes, devices : list of str, optional
        Cells to cover; default every preset size and the full Table 1
        catalog.
    execute : bool
        Run the kernels functionally and validate (default: model-only).
    samples, seed : int
        Measurement protocol knobs, forwarded to each cell's
        :class:`RunConfig`.
    runlog : RunLog, optional
        Explicit JSONL run log (default: the process-global one).
    jobs : int or None
        Worker processes for the sweep engine; ``1`` (the default) runs
        every cell in this process, exactly as before the engine
        existed, and ``None`` asks for ``os.cpu_count()`` workers.
        Per-cell seeding is process-stable, so any ``jobs`` value
        yields bit-identical samples.
    cache : repro.harness.sweep.SweepCache, optional
        Content-addressed result cache; hits skip computation entirely.
    refresh : bool
        Recompute every cell and overwrite existing cache entries.

    Returns
    -------
    list of RunResult
        One result per (size, device) cell, in row-major input order.
    """
    from .sweep import run_sweep  # deferred: sweep imports this module

    cls = get_benchmark(benchmark)
    sizes = list(sizes) if sizes else list(cls.available_sizes())
    if devices is None:
        devices = list(device_names())
    runlog = runlog if runlog is not None else get_default_runlog()
    if runlog is not None:
        runlog.write("matrix_start", benchmark=benchmark, sizes=sizes,
                     devices=devices, execute=execute, jobs=jobs)
    configs = [
        RunConfig(benchmark=benchmark, size=size, device=device,
                  samples=samples, execute=execute, validate=execute,
                  seed=seed)
        for size in sizes for device in devices
    ]
    with get_tracer().span("run_matrix", benchmark=benchmark,
                           groups=len(configs), phase="sweep"):
        outcome = run_sweep(configs, jobs=jobs, cache=cache,
                            refresh=refresh, runlog=runlog)
    if runlog is not None:
        runlog.write("matrix_complete", benchmark=benchmark,
                     groups=len(outcome.results),
                     computed=outcome.computed, cached=outcome.cached)
    return outcome.results


def expand_matrix(benchmarks=None, sizes=None, devices=None,
                  ) -> list[tuple[str, str, str]]:
    """The (benchmark, size, device) cells of a matrix (``None`` = every one).

    Shared by ``run all``, ``profile``, ``regress record`` and
    ``submit_matrix``: a benchmark is crossed only with the sizes it has
    a preset for.  Unknown names pass through for the caller to reject.
    """
    benchmarks = list(benchmarks) if benchmarks else sorted(BENCHMARKS)
    sizes = list(sizes) if sizes else list(SIZES)
    devices = list(devices) if devices else list(device_names())
    return [(b, s, d) for b in benchmarks for s in sizes
            if b not in BENCHMARKS or s not in SIZES
            or s in BENCHMARKS[b].available_sizes()
            for d in devices]
