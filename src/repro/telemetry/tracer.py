"""Span tracing for the harness.

A :class:`Tracer` produces nested :class:`Span` records — named,
attributed, nanosecond-stamped intervals — around harness phases (host
setup, transfers, the kernel loop, validation) the way an OpenTelemetry
SDK would around service handlers.  Spans nest via a per-tracer,
per-thread stack, so ``with tracer.span("run"): with
tracer.span("transfer"): ...`` yields a parent/child tree that the
Chrome-trace exporter renders as stacked slices, and a span opened on
one thread never becomes the child of a span open on another (the
service engine runs cache I/O on executor threads while its loop
thread opens job spans).  Span ids come from one counter per tracer,
so they stay unique across threads.

The process-global default tracer starts *disabled*: ``span()`` then
returns a shared no-op context manager without allocating or recording
anything, so instrumented code pays only an attribute load and a truth
test when nobody is listening (the zero-overhead guarantee the
acceptance tests pin down).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id (random, collision-improbable)."""
    return os.urandom(8).hex()


@dataclass
class Span:
    """One finished (or in-flight) traced interval."""

    name: str
    span_id: int
    parent_id: int | None = None
    depth: int = 0
    start_ns: int = 0
    end_ns: int | None = None
    attributes: dict = field(default_factory=dict)
    #: Trace the span belongs to.  Every span of one :class:`Tracer`
    #: shares the tracer's id; spans shipped back from sweep workers
    #: carry the parent's id, which is how N processes produce one
    #: coherent trace instead of N disconnected logs.
    trace_id: str | None = None

    def set_attribute(self, key: str, value) -> None:
        """Attach (or overwrite) one attribute on this span."""
        self.attributes[key] = value

    @property
    def ended(self) -> bool:
        """Whether the span has been closed."""
        return self.end_ns is not None

    @property
    def duration_ns(self) -> int:
        """Span duration in nanoseconds; raises if still open."""
        if self.end_ns is None:
            raise RuntimeError(f"span {self.name!r} has not ended")
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        """Span duration in seconds; raises if still open."""
        return self.duration_ns * 1e-9

    def to_dict(self) -> dict:
        """The span as a JSON-ready dict."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attributes": dict(self.attributes),
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Rebuild a span from :meth:`to_dict` output (worker IPC)."""
        return cls(
            name=payload["name"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            depth=payload.get("depth", 0),
            start_ns=payload.get("start_ns", 0),
            end_ns=payload.get("end_ns"),
            attributes=dict(payload.get("attributes", {})),
            trace_id=payload.get("trace_id"),
        )


class _NoopSpan:
    """Shared do-nothing span: the disabled-tracer fast path."""

    __slots__ = ()

    def set_attribute(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The single no-op span/context-manager instance.  ``tracer.span(...)``
#: returns exactly this object whenever the tracer is disabled, so the
#: identity check ``tracer.span("a") is NOOP_SPAN`` proves the fast path.
NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager that opens a real span on a tracer's stack."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._start(self._name, self._attributes)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.set_attribute("error", exc_type.__name__)
        self._tracer._finish(self._span)
        return False


class _SpanStack(threading.local):
    """The open spans of one thread, innermost last."""

    def __init__(self):
        self.spans: list[Span] = []


class Tracer:
    """Collects nested spans; disabled by default construction choice.

    Parameters
    ----------
    enabled:
        When False, :meth:`span` returns :data:`NOOP_SPAN` and nothing
        is recorded.
    clock:
        Nanosecond clock; injectable for deterministic tests.  Defaults
        to ``time.perf_counter_ns`` (wall time — spans time the *host*
        harness, while :class:`~repro.ocl.event.Event` timestamps live
        on the simulated device clock).  On Linux ``perf_counter_ns``
        reads ``CLOCK_MONOTONIC``, which is machine-wide, so spans
        recorded by sweep workers on the same host share the parent's
        time base and merge onto one timeline.
    trace_id:
        Identity of the trace every span of this tracer belongs to.
        Workers adopt the parent sweep's id via
        :meth:`propagation_context`; ``None`` generates a fresh one.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter_ns,
                 trace_id: str | None = None):
        self.enabled = enabled
        self._clock = clock
        self._open = _SpanStack()
        self._ids = itertools.count(1)
        self.finished: list[Span] = []
        self.trace_id = trace_id if trace_id is not None else new_trace_id()

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes):
        """Open a span: ``with tracer.span("phase", benchmark="fft"):``."""
        if not self.enabled:
            return NOOP_SPAN
        return _ActiveSpan(self, name, attributes)

    def _start(self, name: str, attributes: dict) -> Span:
        stack = self._open.spans
        parent = stack[-1] if stack else None
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            depth=len(stack),
            start_ns=self._clock(),
            attributes=dict(attributes),
            trace_id=self.trace_id,
        )
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end_ns = self._clock()
        stack = self._open.spans
        # tolerate out-of-order exits rather than corrupting the stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        self.finished.append(span)

    # ------------------------------------------------------------------
    # Cross-process propagation
    # ------------------------------------------------------------------
    def propagation_context(self) -> dict | None:
        """The context to ship to a worker process, or ``None`` when off.

        The worker builds its tracer with
        ``Tracer.from_context(ctx)``, records spans locally, and ships
        ``to_dicts()`` back; the parent then :meth:`graft`\\ s them under
        the span that represents the worker's unit of work.
        """
        if not self.enabled:
            return None
        return {"trace_id": self.trace_id}

    @classmethod
    def from_context(cls, context: dict | None) -> "Tracer":
        """A worker-side tracer adopting a shipped propagation context.

        ``None`` (tracing disabled in the parent) yields a disabled
        tracer, preserving the no-op fast path end to end.
        """
        if context is None:
            return cls(enabled=False)
        return cls(enabled=True, trace_id=context.get("trace_id"))

    def graft(self, span_dicts: list[dict],
              parent: Span | None = None) -> list[Span]:
        """Adopt finished spans from another process into this tracer.

        Span ids are remapped into this tracer's id space (worker ids
        restart at 1 in every process, so shipping them verbatim would
        collide); the *relative* parent/child links inside the shipped
        set are preserved, and its root spans are re-parented under
        ``parent`` (default: the innermost open span).  Depths shift by
        the graft point's depth so the tree stays consistent.  Returns
        the adopted spans, already appended to :attr:`finished`.
        """
        if not self.enabled:
            return []
        parent = parent if parent is not None else self.current_span
        idmap: dict[int, int] = {}
        for payload in span_dicts:
            idmap[payload["span_id"]] = next(self._ids)
        base_depth = (parent.depth + 1) if parent is not None else 0
        grafted: list[Span] = []
        for payload in span_dicts:
            span = Span.from_dict(payload)
            span.span_id = idmap[span.span_id]
            if span.parent_id in idmap:
                span.parent_id = idmap[span.parent_id]
            else:
                span.parent_id = parent.span_id if parent is not None else None
            span.depth = base_depth + payload.get("depth", 0)
            if span.trace_id is None:
                span.trace_id = self.trace_id
            self.finished.append(span)
            grafted.append(span)
        return grafted

    # ------------------------------------------------------------------
    @property
    def current_span(self) -> Span | None:
        """This thread's innermost open span, or ``None`` outside any."""
        stack = self._open.spans
        return stack[-1] if stack else None

    def enable(self) -> None:
        """Start recording spans."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; :meth:`span` returns :data:`NOOP_SPAN`."""
        self.enabled = False

    def clear(self) -> None:
        """Drop all finished spans and every thread's open stack."""
        self.finished.clear()
        self._open = _SpanStack()

    def to_dicts(self) -> list[dict]:
        """All finished spans as JSON-ready dicts, in completion order."""
        return [s.to_dict() for s in self.finished]

    def __len__(self) -> int:
        return len(self.finished)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<Tracer {state}: {len(self.finished)} finished spans>"


#: Process-global default tracer, disabled until someone opts in.
_default_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer instrumented code should use."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the global default; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Temporarily install (and enable) a tracer as the global default.

    Yields the installed tracer; the previous default is restored on
    exit.  ``with tracing() as t: run_benchmark(...)`` is the one-liner
    for capturing harness spans.
    """
    tracer = tracer if tracer is not None else Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
