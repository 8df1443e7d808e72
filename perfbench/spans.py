"""Span recorder for the traced run, and the wrappers it installs.

The traced run times the calls into each layer's public functions by
replacing them, from the benchmark's own files, with wrappers that
record a span (name, start, end, parent) per call.  Nothing under
``src/`` is edited.  Spans stay in memory and are reduced to per-layer
metrics when the run ends.

A function imported by name into other modules (``from .x import f``)
is replaced in every loaded ``repro`` module that binds it, so callers
that bound it at import time are traced too.  Methods are replaced on
the class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

#: Self time of these spans is the ``<layer>_s`` metric named here.
#: Spans listed under the same metric add up.
SELF_TIME_METRICS = {
    "harness.run_benchmark": "harness.self_s",
    "artifacts.get_cell_artifacts": "artifacts.s",
    "artifacts.resolve_access_trace": "artifacts.s",
    "counters.simulate_cell_counters": "counters.sim_s",
    "cache.hierarchy": "cache.hierarchy_s",
    "cache.tlb": "cache.tlb_s",
    "cache.branch": "cache.branch_s",
    "perfmodel.iteration_time": "perfmodel.iteration_time_s",
    "perfmodel.noisy_samples": "perfmodel.samples_s",
    "counters.energy": "counters.energy_s",
    "dwarfs.from_size": "dwarfs.from_size_s",
    "dwarfs.host_setup": "dwarfs.host_setup_s",
    "dwarfs.transfer_inputs": "dwarfs.transfer_s",
    "dwarfs.run_iteration": "dwarfs.run_iteration_s",
    "dwarfs.collect_results": "dwarfs.collect_s",
    "dwarfs.validate": "dwarfs.validate_s",
    "ocl.create_buffer": "ocl.buffer_s",
    "ocl.kernel": "ocl.kernel_s",
    "ocl.write": "ocl.transfer_s",
    "ocl.read": "ocl.transfer_s",
    "analysis.parse_source": "analysis.parse_s",
    "analysis.interpret_kernel": "analysis.interpret_s",
    "analysis.static_footprint": "analysis.footprint_s",
    "analysis.classify_launch_sites": "analysis.classify_s",
    "analysis.synthesize_trace": "analysis.synth_trace_s",
    "analysis.compare_benchmark_traces": "analysis.trace_gate_s",
    "analysis.characterize_model": "analysis.staticaiwc_s",
    "analysis.compare_benchmark_aiwc": "analysis.aiwc_gate_s",
    "analysis.deep_analyze_benchmark": "analysis.deep_s",
    "analysis.run_suite": "analysis.dynamic_suite_s",
    "aiwc.characterize": "aiwc.dynamic_s",
    "store.get": "store.get_s",
    "store.remote_read": "store.get_s",
    "store.put": "store.put_s",
    "store.remote_write": "store.put_s",
}

#: ``<metric>: span`` pairs whose call count is the metric.
CALL_COUNT_METRICS = {
    "harness.cells": "harness.run_benchmark",
    "artifacts.calls": "artifacts.get_cell_artifacts",
    "artifacts.computed": "artifacts.resolve_access_trace",
    "counters.energy_calls": "counters.energy",
    "ocl.buffers": "ocl.create_buffer",
    "ocl.kernel_enqueues": "ocl.kernel",
    "analysis.parse_calls": "analysis.parse_source",
    "analysis.interpret_calls": "analysis.interpret_kernel",
    "aiwc.dynamic_calls": "aiwc.characterize",
    "store.gets": "store.get",
    "store.puts": "store.put",
}

#: The benchmarks that get a ``dwarfs.run_iteration_s.<name>`` metric.
PAPER_BENCHMARKS = ("kmeans", "lud", "csr", "fft", "dwt", "srad", "crc",
                    "nw", "gem", "nqueens", "hmm")


class SpanRecorder:
    """Spans and counts kept in memory for the duration of one run."""

    def __init__(self):
        #: ``[name, start, end, parent_index, tag]`` per call.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Distinct source texts handed to the IR frontend.
        self.sources: set[int] = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, fn, name: str, tag=None, observe=None):
        """``fn`` recording one span per call.

        ``tag(args)`` labels the span; ``observe(recorder, args, result)``
        adds counts once the call has returned.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    tag(args) if tag else None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                with self._lock:
                    observe(self, args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def self_times(self) -> tuple[dict, dict, dict]:
        """Per-name self time, inclusive time and per-(name, tag) inclusive time."""
        with self._lock:
            spans = list(self.spans)
        child = [0.0] * len(spans)
        for name, start, end, parent, _tag in spans:
            if parent is not None:
                child[parent] += end - start
        own: dict = defaultdict(float)
        inclusive: dict = defaultdict(float)
        tagged: dict = defaultdict(float)
        for i, (name, start, end, _parent, tag) in enumerate(spans):
            own[name] += (end - start) - child[i]
            inclusive[name] += end - start
            if tag is not None:
                tagged[(name, tag)] += end - start
        return own, inclusive, tagged

    def calls(self, name: str) -> int:
        with self._lock:
            return sum(1 for span in self.spans if span[0] == name)


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
def _count(key: str, measure):
    def observe(recorder, args, result):
        recorder.counts[key] += measure(args, result)
    return observe


def _note_source(recorder, args, _result):
    recorder.sources.add(hash(args[0]))


def _bench_name(args):
    return getattr(args[0], "name", None)


#: ``(module, attribute, span name, tag, observe)`` per traced entry
#: point; ``attribute`` is ``Class.method`` for methods.  The dwarfs'
#: life-cycle methods are added per benchmark class by
#: :func:`_dwarf_targets`.
LAYER_TARGETS = [
    ("repro.harness.runner", "run_benchmark", "harness.run_benchmark",
     None, None),
    ("repro.harness.artifacts", "get_cell_artifacts",
     "artifacts.get_cell_artifacts", None, None),
    ("repro.analysis.accessmodel", "resolve_access_trace",
     "artifacts.resolve_access_trace", None, None),
    ("repro.harness.artifacts", "simulate_cell_counters",
     "counters.simulate_cell_counters", None, None),
    ("repro.cache.hierarchy", "CacheHierarchy.access_many", "cache.hierarchy",
     None, _count("cache.accesses", lambda args, _r: int(np.size(args[1])))),
    ("repro.cache.tlb", "TLB.access_many", "cache.tlb", None, None),
    ("repro.cache.branch", "BranchPredictor.run_trace", "cache.branch",
     None, None),
    ("repro.harness.runner", "iteration_time", "perfmodel.iteration_time",
     None, None),
    ("repro.harness.runner", "noisy_samples", "perfmodel.noisy_samples",
     None, None),
    ("repro.counters.nvml", "NvmlSensor.measure", "counters.energy",
     None, None),
    ("repro.counters.rapl", "RaplSensor.measure", "counters.energy",
     None, None),
    ("repro.dwarfs.base", "Benchmark.from_size", "dwarfs.from_size",
     None, None),
    # Benchmarks allocate through ``Buffer(...)`` and
    # ``Context.buffer_like`` as well as ``Context.create_buffer``; all
    # three end in ``Buffer.__init__``.
    ("repro.ocl.memory", "Buffer.__init__", "ocl.create_buffer", None,
     _count("ocl.buffer_bytes", lambda args, _r: int(args[0].size))),
    ("repro.ocl.queue", "CommandQueue.enqueue_nd_range_kernel", "ocl.kernel",
     None, None),
    ("repro.ocl.queue", "CommandQueue.enqueue_write_buffer", "ocl.write",
     None, _count("ocl.transfer_bytes", lambda args, _r: int(args[1].size))),
    ("repro.ocl.queue", "CommandQueue.enqueue_read_buffer", "ocl.read",
     None, _count("ocl.transfer_bytes", lambda args, _r: int(args[1].size))),
    ("repro.analysis.frontend", "parse_source", "analysis.parse_source",
     None, _note_source),
    ("repro.analysis.absint", "interpret_kernel", "analysis.interpret_kernel",
     None, None),
    ("repro.analysis.absint", "static_footprint", "analysis.static_footprint",
     None, None),
    ("repro.analysis.accessmodel", "classify_launch_sites",
     "analysis.classify_launch_sites", None, None),
    ("repro.analysis.accessmodel", "synthesize_trace",
     "analysis.synthesize_trace", None, None),
    ("repro.analysis.accessmodel", "compare_benchmark_traces",
     "analysis.compare_benchmark_traces", None, None),
    ("repro.analysis.staticaiwc", "characterize_model",
     "analysis.characterize_model", None, None),
    ("repro.analysis.staticaiwc", "compare_benchmark_aiwc",
     "analysis.compare_benchmark_aiwc", None, None),
    ("repro.analysis.deep", "deep_analyze_benchmark",
     "analysis.deep_analyze_benchmark", None, None),
    ("repro.analysis.suite", "run_suite", "analysis.run_suite", None, None),
    ("repro.aiwc.metrics", "characterize", "aiwc.characterize", None, None),
]

#: The result store, as the ``serve`` process calls it.
STORE_TARGETS = [
    ("repro.harness.sweep", "SweepCache.get", "store.get", None, None),
    ("repro.harness.sweep", "SweepCache.put", "store.put", None, None),
    ("repro.service.store", "RemoteCacheBackend.read", "store.remote_read",
     None, _count("store.bytes",
                  lambda _a, blob: len(blob) if blob else 0)),
    ("repro.service.store", "RemoteCacheBackend.write", "store.remote_write",
     None, _count("store.bytes", lambda args, _r: len(args[3]))),
]

_DWARF_METHODS = {
    "host_setup": "dwarfs.host_setup",
    "transfer_inputs": "dwarfs.transfer_inputs",
    "run_iteration": "dwarfs.run_iteration",
    "collect_results": "dwarfs.collect_results",
    "validate": "dwarfs.validate",
}


def _dwarf_targets() -> list:
    from repro.dwarfs.registry import BENCHMARKS, EXTENSIONS

    targets = []
    for cls in [*BENCHMARKS.values(), *EXTENSIONS.values()]:
        for method, span in _DWARF_METHODS.items():
            if method in vars(cls):
                targets.append((cls, method, span, _bench_name, None))
    return targets


def _replace_function(original, wrapper) -> None:
    """Rebind ``original`` to ``wrapper`` in every loaded repro module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or
                                  name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper


def _install_one(recorder, owner, attr, span, tag, observe) -> None:
    if isinstance(owner, str):
        owner = importlib.import_module(owner)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    if inspect.isclass(owner):
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(
                recorder.wrap(raw.__func__, span, tag, observe)))
        else:
            setattr(owner, attr, recorder.wrap(raw, span, tag, observe))
        return
    original = getattr(owner, attr)
    _replace_function(original, recorder.wrap(original, span, tag, observe))


def install(recorder: SpanRecorder, targets) -> None:
    """Install wrappers for ``targets`` (``"layers"`` or ``"store"``)."""
    if targets == "layers":
        chosen = LAYER_TARGETS + _dwarf_targets()
    else:
        chosen = STORE_TARGETS
    for target in chosen:
        _install_one(recorder, *target)


# ----------------------------------------------------------------------
# Reducing spans to per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of the spans recorded so far.

    ``bench.self_s`` is the self time of every span: the numerator of
    ``bench.layer_coverage``, whose denominator (``wall_s``) only the
    caller knows.
    """
    own, inclusive, tagged = recorder.self_times()
    metrics: dict[str, float] = defaultdict(float)
    for span, metric in SELF_TIME_METRICS.items():
        metrics[metric] += own.get(span, 0.0)
    for metric, span in CALL_COUNT_METRICS.items():
        metrics[metric] = float(recorder.calls(span))
    for key in ("cache.accesses", "ocl.buffer_bytes", "ocl.transfer_bytes",
                "store.bytes"):
        metrics[key] = float(recorder.counts[key])
    metrics["harness.cell_s"] = inclusive.get("harness.run_benchmark", 0.0)
    metrics["store.remote_ops"] = float(
        recorder.calls("store.remote_read")
        + recorder.calls("store.remote_write"))
    calls = metrics["artifacts.calls"]
    metrics["artifacts.memo_hit_ratio"] = (
        1.0 - metrics["artifacts.computed"] / calls if calls else 0.0)
    accesses = metrics["cache.accesses"]
    metrics["cache.ns_per_access"] = (
        metrics["cache.hierarchy_s"] / accesses * 1e9 if accesses else 0.0)
    parses = metrics["analysis.parse_calls"]
    metrics["analysis.parse_distinct"] = float(len(recorder.sources))
    metrics["analysis.parse_reuse_ratio"] = (
        len(recorder.sources) / parses if parses else 0.0)
    for bench in PAPER_BENCHMARKS:
        metrics[f"dwarfs.run_iteration_s.{bench}"] = tagged.get(
            ("dwarfs.run_iteration", bench), 0.0)
    metrics["bench.self_s"] = sum(own.values())
    return dict(metrics)

