"""Telemetry core: tracer spans, event-hook bus, metrics, run log."""

import io
import json
import math

import numpy as np
import pytest

from repro import ocl
from repro.telemetry import (
    EventBus,
    GLOBAL_EVENT_BUS,
    MetricsRegistry,
    RunLog,
    Tracer,
    default_registry,
    get_tracer,
    memory_runlog,
    read_jsonl,
    set_default_runlog,
    set_tracer,
    tracing,
)
from repro.telemetry.tracer import NOOP_SPAN


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_records_name_attributes_and_times(self):
        ticks = iter(range(100, 200))
        t = Tracer(enabled=True, clock=lambda: next(ticks))
        with t.span("work", benchmark="fft") as span:
            span.set_attribute("extra", 1)
        assert len(t.finished) == 1
        done = t.finished[0]
        assert done.name == "work"
        assert done.attributes == {"benchmark": "fft", "extra": 1}
        assert done.end_ns > done.start_ns
        assert done.duration_ns == done.end_ns - done.start_ns

    def test_nesting_builds_parent_child_links(self):
        t = Tracer(enabled=True)
        with t.span("outer") as outer:
            assert t.current_span is outer
            with t.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.depth == 1
        assert t.current_span is None
        # inner finishes first (completion order)
        assert [s.name for s in t.finished] == ["inner", "outer"]
        assert t.finished[1].parent_id is None

    def test_exception_marks_span_and_propagates(self):
        t = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with t.span("bad"):
                raise ValueError("boom")
        assert t.finished[0].attributes["error"] == "ValueError"
        assert t.finished[0].ended

    def test_disabled_tracer_is_noop_fast_path(self):
        """Acceptance: zero overhead when nobody is listening."""
        t = Tracer(enabled=False)
        cm_a = t.span("a", big_attr=list(range(100)))
        cm_b = t.span("b")
        # the identical shared object both times: no allocation per call
        assert cm_a is NOOP_SPAN
        assert cm_b is NOOP_SPAN
        with cm_a as span:
            span.set_attribute("ignored", 1)  # must not raise
        assert len(t.finished) == 0
        assert t.current_span is None

    def test_global_default_tracer_disabled_and_swappable(self):
        assert get_tracer().enabled is False
        assert get_tracer().span("x") is NOOP_SPAN
        mine = Tracer(enabled=True)
        prev = set_tracer(mine)
        try:
            assert get_tracer() is mine
        finally:
            set_tracer(prev)
        assert get_tracer() is prev

    def test_tracing_context_manager_restores_previous(self):
        before = get_tracer()
        with tracing() as t:
            assert get_tracer() is t
            with t.span("inside"):
                pass
        assert get_tracer() is before
        assert [s.name for s in t.finished] == ["inside"]

    def test_to_dicts_is_json_ready(self):
        with tracing() as t:
            with t.span("a", k="v"):
                pass
        payload = json.dumps(t.to_dicts())
        assert json.loads(payload)[0]["name"] == "a"

    def test_span_stacks_are_per_thread(self):
        """A span opened on one thread never nests under a span another
        thread holds open — the service engine runs cache I/O on
        executor threads while its loop thread opens job spans — and
        span ids (grafted ones included) stay unique across threads."""
        import threading

        tracer = Tracer(enabled=True)
        opened, release = threading.Event(), threading.Event()

        def cache_io():
            with tracer.span("sweep_cache_get"):
                opened.set()
                assert release.wait(timeout=10)

        thread = threading.Thread(target=cache_io)
        thread.start()
        try:
            assert opened.wait(timeout=10)
            with tracer.span("service_job"):
                with tracer.span("child"):
                    pass
                tracer.graft([{"name": "worker", "span_id": 1}])
        finally:
            release.set()
            thread.join(timeout=10)

        spans = {s.name: s for s in tracer.finished}
        job = spans["service_job"]
        assert (job.parent_id, job.depth) == (None, 0)
        assert spans["sweep_cache_get"].parent_id is None
        assert spans["child"].parent_id == job.span_id
        assert spans["worker"].parent_id == job.span_id
        assert len({s.span_id for s in tracer.finished}) == 4

    def test_span_tree_survives_thread_stress(self):
        """More threads than cores, switching often: no span is lost,
        ids stay unique and every child's parent is on its own thread."""
        import sys
        import threading

        tracer = Tracer(enabled=True)
        n_threads, rounds = 8, 200

        def work(tag):
            for _ in range(rounds):
                with tracer.span("outer", thread=tag):
                    with tracer.span("inner", thread=tag):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)

        spans = tracer.finished
        assert len(spans) == 2 * n_threads * rounds
        by_id = {s.span_id: s for s in spans}
        assert len(by_id) == len(spans)
        for span in spans:
            if span.name == "outer":
                assert span.parent_id is None
            else:
                parent = by_id[span.parent_id]
                assert parent.name == "outer"
                assert parent.attributes["thread"] == span.attributes["thread"]


# ----------------------------------------------------------------------
# Event-hook bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_publish_reaches_subscribers_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda q, e: seen.append(("first", e)))
        bus.subscribe(lambda q, e: seen.append(("second", e)))
        bus.publish("queue", "event")
        assert [tag for tag, _ in seen] == ["first", "second"]

    def test_unsubscribe_and_scoped_subscription(self):
        bus = EventBus()
        seen = []
        with bus.subscribed(lambda q, e: seen.append(e)):
            bus.publish(None, 1)
        bus.publish(None, 2)
        assert seen == [1]
        assert not bus.has_subscribers

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            EventBus().subscribe("not callable")

    def test_queue_publishes_to_queue_context_and_global(self, cpu_context):
        queue = ocl.CommandQueue(cpu_context)
        buf = cpu_context.create_buffer(size=256)
        hits = {"queue": 0, "context": 0, "global": 0}
        queue.event_bus.subscribe(
            lambda q, e: hits.__setitem__("queue", hits["queue"] + 1))
        cpu_context.event_bus.subscribe(
            lambda q, e: hits.__setitem__("context", hits["context"] + 1))
        cb = lambda q, e: hits.__setitem__("global", hits["global"] + 1)
        with GLOBAL_EVENT_BUS.subscribed(cb):
            queue.enqueue_fill_buffer(buf, 0)
            queue.enqueue_read_buffer(buf, np.zeros(256, np.uint8))
        queue.enqueue_fill_buffer(buf, 1)  # global unsubscribed by now
        assert hits == {"queue": 3, "context": 3, "global": 2}

    def test_callback_receives_completed_event(self, cpu_queue, cpu_context):
        captured = []
        cpu_queue.event_bus.subscribe(lambda q, e: captured.append((q, e)))
        buf = cpu_context.create_buffer(size=64)
        event = cpu_queue.enqueue_fill_buffer(buf, 7)
        (q, e), = captured
        assert q is cpu_queue
        assert e is event
        assert e.status == ocl.CommandExecutionStatus.COMPLETE

    def test_subscriber_exception_propagates(self, cpu_queue, cpu_context):
        def bad(q, e):
            raise RuntimeError("subscriber broke")
        cpu_queue.event_bus.subscribe(bad)
        buf = cpu_context.create_buffer(size=64)
        with pytest.raises(RuntimeError, match="subscriber broke"):
            cpu_queue.enqueue_fill_buffer(buf, 0)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def parse_prometheus(text: str) -> dict:
    """Tiny validating parser for the Prometheus text format.

    Returns {family: {"type": str, "samples": {sample_line_name: value}}}
    and raises AssertionError on malformed lines.
    """
    import re
    families: dict = {}
    current = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name = line.split()[2]
            families.setdefault(name, {"type": None, "samples": {}})
            current = name
        elif line.startswith("# TYPE "):
            _, _, name, type_name = line.split(None, 3)
            assert name == current, f"TYPE for {name} outside its HELP block"
            assert type_name in ("counter", "gauge", "summary", "histogram",
                                 "untyped")
            families[name]["type"] = type_name
        else:
            m = re.match(
                r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$', line)
            assert m, f"malformed sample line: {line!r}"
            sample_name = m.group(1) + (m.group(2) or "")
            family = m.group(1)
            for suffix in ("_sum", "_count", "_bucket"):
                family = family.removesuffix(suffix)
            families[family]["samples"][sample_name] = float(m.group(3))
    return families


class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "Requests")
        c.inc()
        c.inc(2, route="/run")
        assert c.value() == 1
        assert c.value(route="/run") == 2
        assert c.total == 3
        c.inc(4, route="/run", code="500")
        assert c.totals_by("route") == {"/run": 6}
        assert c.totals_by("code") == {"500": 4}
        with pytest.raises(ValueError):
            c.inc(-1)

        g = reg.gauge("depth")
        g.set(5)
        g.dec(2)
        assert g.value() == 3

        h = reg.bucket_histogram("latency_seconds", buckets=(1.5, 3.5))
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == 10.0
        assert h.bucket_counts() == {1.5: 1, 3.5: 3, math.inf: 4}

    def test_get_or_create_is_idempotent_and_type_checked(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad-name")
        with pytest.raises(ValueError):
            reg.counter("ok_total").inc(**{"0bad": "v"})

    def test_exposition_parses_and_escapes(self):
        reg = MetricsRegistry()
        reg.counter("runs_total", "Runs").inc(device='GTX "1080"')
        reg.bucket_histogram("t_seconds", "Times").observe(0.5, bench="fft")
        families = parse_prometheus(reg.expose())
        assert families["runs_total"]["type"] == "counter"
        assert families["t_seconds"]["type"] == "histogram"
        assert 't_seconds_bucket{bench="fft",le="+Inf"}' in (
            families["t_seconds"]["samples"])
        assert 't_seconds_count{bench="fft"}' in families["t_seconds"]["samples"]

    def test_reset_keeps_family_references_valid(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total")
        c.inc(5)
        reg.reset()
        assert c.value() == 0
        c.inc()  # cached reference still wired to the registry
        assert "n_total 1.0" in reg.expose()

    def test_queue_increments_default_registry(self, cpu_context):
        reg = default_registry()
        queue = ocl.CommandQueue(cpu_context)
        buf = cpu_context.create_buffer(size=2048)
        before_cmds = reg.counter("ocl_commands_enqueued_total").total
        before_bytes = reg.counter("ocl_bytes_moved_total").total
        queue.enqueue_fill_buffer(buf, 0)
        queue.enqueue_read_buffer(buf, np.empty(2048, np.uint8))
        assert reg.counter("ocl_commands_enqueued_total").total == before_cmds + 2
        assert reg.counter("ocl_bytes_moved_total").total == before_bytes + 4096


# ----------------------------------------------------------------------
# Run log
# ----------------------------------------------------------------------
class TestRunLog:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLog(path, clock=lambda: 42.0) as log:
            log.write("run_start", benchmark="fft")
            log.write("run_complete", mean_ms=np.float64(1.5))
        records = read_jsonl(path)
        assert [r["event"] for r in records] == ["run_start", "run_complete"]
        assert records[0]["ts"] == 42.0
        assert records[1]["mean_ms"] == 1.5  # numpy scalar coerced

    def test_stream_target_not_closed(self):
        log, buffer = memory_runlog(clock=lambda: 0.0)
        log.write("x")
        log.close()
        assert not buffer.closed
        assert json.loads(buffer.getvalue())["event"] == "x"

    def test_default_runlog_used_by_runner(self):
        from repro.harness import RunConfig, run_benchmark
        log, buffer = memory_runlog(clock=lambda: 0.0)
        prev = set_default_runlog(log)
        try:
            run_benchmark(RunConfig("fft", "tiny", "i7-6700K", samples=3))
        finally:
            set_default_runlog(prev)
        events = [json.loads(l)["event"] for l in
                  buffer.getvalue().splitlines()]
        assert events == ["run_start", "run_complete"]
        done = json.loads(buffer.getvalue().splitlines()[-1])
        assert done["benchmark"] == "fft"
        assert done["validated"] is True
        assert done["mean_ms"] > 0
