"""Observability for the whole harness: tracing, metrics, trace export.

The paper's contribution is measurement infrastructure; this package is
its runtime-observability counterpart, built from four cooperating
pieces (none of which imports the rest of ``repro``, so every layer can
use them):

* :mod:`~repro.telemetry.tracer` — nested spans with attributes and a
  process-global default tracer (disabled ⇒ zero-overhead no-op path);
* :mod:`~repro.telemetry.hooks` — the event-hook bus through which
  every completed :class:`~repro.ocl.event.Event` is published
  (the simulated ``clSetEventCallback``);
* :mod:`~repro.telemetry.chrometrace` — Chrome trace-event / Perfetto
  JSON export of events, queue delays, energy/occupancy counters and
  harness spans;
* :mod:`~repro.telemetry.metrics` — counter/gauge/histogram registry
  with Prometheus text exposition;
* :mod:`~repro.telemetry.runlog` — structured JSONL run log;
* :mod:`~repro.telemetry.profile` — phase-attributed self-profiling
  (hotspot tables, folded stacks, per-cell allocation attribution).
"""

from .chrometrace import ChromeTraceExporter, trace_from_recorder
from .hooks import EventBus, GLOBAL_EVENT_BUS, on_event
from .metrics import (
    BucketHistogram,
    Counter,
    Gauge,
    MetricsRegistry,
    default_registry,
)
from .profile import (
    KNOWN_PHASES,
    PhaseSummary,
    ProfileReport,
    ProfileSession,
    TraceSummary,
    folded_stacks,
    phase_summary,
    summarize_trace_events,
)
from .runlog import (
    RunLog,
    get_default_runlog,
    memory_runlog,
    read_jsonl,
    set_default_runlog,
)
from .tracer import (
    NOOP_SPAN,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "BucketHistogram",
    "ChromeTraceExporter",
    "Counter",
    "EventBus",
    "GLOBAL_EVENT_BUS",
    "Gauge",
    "KNOWN_PHASES",
    "MetricsRegistry",
    "NOOP_SPAN",
    "PhaseSummary",
    "ProfileReport",
    "ProfileSession",
    "RunLog",
    "Span",
    "TraceSummary",
    "Tracer",
    "default_registry",
    "folded_stacks",
    "get_default_runlog",
    "get_tracer",
    "memory_runlog",
    "on_event",
    "phase_summary",
    "read_jsonl",
    "set_default_runlog",
    "set_tracer",
    "summarize_trace_events",
    "trace_from_recorder",
    "tracing",
]
