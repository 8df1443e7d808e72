"""Metrics registry with Prometheus text-format exposition.

Counters, gauges and bucketed histograms, registered by name in a
:class:`MetricsRegistry` and incremented from the simulated runtime
(commands enqueued, bytes moved), the harness runner (runs, samples,
loop iterations, validation failures) and the scheduler.  ``expose()``
renders the whole registry in the Prometheus text exposition format
(``# HELP`` / ``# TYPE`` comments followed by sample lines), so the
output drops straight into ``promtool`` or a scrape endpoint.

Instruments support optional labels supplied at observation time::

    reg = default_registry()
    reg.counter("ocl_commands_enqueued_total").inc(command="ndrange_kernel")
    reg.bucket_histogram("harness_cell_duration_seconds").observe(
        0.004, benchmark="fft", size="tiny")

Histograms are true Prometheus *histograms* (cumulative
``_bucket{le=...}`` series plus ``_sum``/``_count``): constant memory
per series, and mergeable across the sweep's worker processes.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from contextlib import contextmanager

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default bucket boundaries (seconds) for :class:`BucketHistogram` —
#: the Prometheus client default ladder, which spans the sub-ms model
#: evaluations through the multi-second functional cells the sweep sees.
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: dict) -> tuple:
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _format_labels(key: tuple, extra: tuple = ()) -> str:
    pairs = [f'{k}="{_escape_label_value(v)}"' for k, v in (*key, *extra)]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


class MetricFamily:
    """Base: a named instrument holding one series per label set."""

    type_name = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help

    def _series(self):
        """Yield ``(label_key, rendered sample lines)`` pairs."""
        raise NotImplementedError

    def expose(self) -> str:
        """This family in Prometheus text exposition format."""
        lines = [
            f"# HELP {self.name} {self.help or self.name}",
            f"# TYPE {self.name} {self.type_name}",
        ]
        for _, sample_lines in sorted(self._series()):
            lines.extend(sample_lines)
        return "\n".join(lines)


class Counter(MetricFamily):
    """Monotonically increasing count."""

    type_name = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Increase one label set's count by ``amount`` (>= 0)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """One label set's current count (0.0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())

    def totals_by(self, label: str) -> dict[str, float]:
        """Counts summed per value of ``label``, over every other label."""
        totals: dict[str, float] = {}
        for key, value in self._values.items():
            name = dict(key).get(label)
            if name is not None:
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def _series(self):
        for key, value in self._values.items():
            yield key, [f"{self.name}{_format_labels(key)} {_format_value(value)}"]


class Gauge(MetricFamily):
    """A value that can go up and down."""

    type_name = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        """Set one label set's value."""
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (possibly negative) to one label set."""
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        """Subtract ``amount`` from one label set."""
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        """One label set's current value (0.0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    @contextmanager
    def track_inprogress(self, **labels):
        """Hold the gauge one higher while the ``with`` body runs.

        The decrement is unconditional (``finally``), so an exception
        inside the body cannot leak a phantom in-flight entry — which
        is exactly the failure mode an in-progress gauge exists to
        rule out.
        """
        self.inc(**labels)
        try:
            yield self
        finally:
            self.dec(**labels)

    def _series(self):
        for key, value in self._values.items():
            yield key, [f"{self.name}{_format_labels(key)} {_format_value(value)}"]


class BucketHistogram(MetricFamily):
    """A true Prometheus *histogram*: bucketed counts, not quantiles.

    Each observation is folded into a fixed bucket ladder in
    O(log buckets) and exposed as the cumulative ``_bucket{le="..."}``
    series the Prometheus histogram type requires — constant memory,
    mergeable across processes, and aggregable across scrape targets.
    The sweep records every cell's wall-clock measurement duration here
    (``harness_cell_duration_seconds``).
    """

    type_name = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple = DEFAULT_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name} buckets must be strictly increasing, "
                f"got {bounds}")
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError(f"histogram {name} buckets must be finite "
                             "(+Inf is implicit)")
        self.buckets = bounds
        # per label set: one count per bucket plus the +Inf overflow slot
        self._counts: dict[tuple, list[int]] = {}
        self._sums: dict[tuple, float] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one observation into a label set's bucket ladder."""
        key = _label_key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * (len(self.buckets) + 1)
        counts[bisect_left(self.buckets, float(value))] += 1
        self._sums[key] = self._sums.get(key, 0.0) + float(value)

    def count(self, **labels) -> int:
        """Total observations in one label set's series."""
        return sum(self._counts.get(_label_key(labels), ()))

    def sum(self, **labels) -> float:
        """Sum of observations in one label set's series."""
        return self._sums.get(_label_key(labels), 0.0)

    @property
    def total_count(self) -> int:
        """Observations across every label set."""
        return sum(sum(counts) for counts in self._counts.values())

    def bucket_counts(self, **labels) -> dict[float, int]:
        """Cumulative count per upper bound (``math.inf`` last)."""
        counts = self._counts.get(_label_key(labels),
                                  [0] * (len(self.buckets) + 1))
        out: dict[float, int] = {}
        running = 0
        for bound, n in zip((*self.buckets, math.inf), counts):
            running += n
            out[bound] = running
        return out

    def _series(self):
        for key, counts in self._counts.items():
            lines = []
            running = 0
            for bound, n in zip(self.buckets, counts):
                running += n
                le = _format_labels(key, (("le", _format_value(bound)),))
                lines.append(f"{self.name}_bucket{le} {running}")
            inf = _format_labels(key, (("le", "+Inf"),))
            total = running + counts[-1]
            lines.append(f"{self.name}_bucket{inf} {total}")
            lines.append(
                f"{self.name}_sum{_format_labels(key)} "
                f"{_format_value(self._sums.get(key, 0.0))}"
            )
            lines.append(f"{self.name}_count{_format_labels(key)} {total}")
            yield key, lines


class MetricsRegistry:
    """Name -> instrument map with get-or-create accessors."""

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        family = self._families.get(name)
        if family is None:
            family = cls(name, help, **kwargs)
            self._families[name] = family
        elif not isinstance(family, cls):
            raise ValueError(
                f"metric {name!r} already registered as {family.type_name}, "
                f"not {cls.type_name}"
            )
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the :class:`Counter` named ``name``."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the :class:`Gauge` named ``name``."""
        return self._get_or_create(Gauge, name, help)

    def bucket_histogram(self, name: str, help: str = "",
                         buckets: tuple = DEFAULT_BUCKETS) -> BucketHistogram:
        """Get or create the :class:`BucketHistogram` named ``name``."""
        return self._get_or_create(BucketHistogram, name, help,
                                   buckets=buckets)

    # ------------------------------------------------------------------
    @property
    def families(self) -> dict[str, MetricFamily]:
        """A copy of the name -> instrument map."""
        return dict(self._families)

    def expose(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        blocks = [f.expose() for _, f in sorted(self._families.items())]
        return "\n".join(blocks) + ("\n" if blocks else "")

    def reset(self) -> None:
        """Zero every series but keep the registered families.

        Cached references handed out by the accessors stay valid, which
        matters because instrumented modules hold on to their counters.
        """
        for family in self._families.values():
            for attr in ("_values", "_sums", "_counts"):
                store = getattr(family, attr, None)
                if store is not None:
                    store.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every series as a JSON-safe dict (for cross-process merging).

        The parallel sweep engine resets the registry in each worker,
        runs the cell, snapshots, and ships the snapshot back so the
        parent can :meth:`merge_snapshot` it — without this, counters
        incremented in child processes would silently vanish.
        """
        families = {}
        for name, family in self._families.items():
            entry = {"type": family.type_name, "help": family.help}
            if isinstance(family, BucketHistogram):
                entry["buckets"] = list(family.buckets)
                entry["series"] = [
                    [list(key), list(counts), family._sums.get(key, 0.0)]
                    for key, counts in family._counts.items()
                ]
            else:
                entry["series"] = [
                    [list(key), value]
                    for key, value in family._values.items()
                ]
            families[name] = entry
        return families

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters add, histograms add bucket counts, gauges take
        the snapshot's value (last-writer-wins, matching Prometheus
        gauge semantics).
        """
        for name, entry in snapshot.items():
            if entry["type"] == "counter":
                family = self.counter(name, entry.get("help", ""))
                for key, value in entry["series"]:
                    family.inc(value, **{k: v for k, v in key})
            elif entry["type"] == "gauge":
                family = self.gauge(name, entry.get("help", ""))
                for key, value in entry["series"]:
                    family.set(value, **{k: v for k, v in key})
            elif entry["type"] == "histogram":
                family = self.bucket_histogram(
                    name, entry.get("help", ""),
                    buckets=tuple(entry.get("buckets", DEFAULT_BUCKETS)))
                if list(family.buckets) != [
                        float(b) for b in entry.get("buckets", family.buckets)]:
                    raise ValueError(
                        f"histogram {name!r} bucket ladders differ; "
                        "cannot merge counts")
                for key, counts, total in entry["series"]:
                    labels = tuple((k, v) for k, v in key)
                    store = family._counts.setdefault(
                        labels, [0] * (len(family.buckets) + 1))
                    for i, n in enumerate(counts):
                        store[i] += int(n)
                    family._sums[labels] = (
                        family._sums.get(labels, 0.0) + float(total))

    def __len__(self) -> int:
        return len(self._families)

    def __repr__(self) -> str:
        return f"<MetricsRegistry: {len(self._families)} families>"


#: Process-global registry all built-in instrumentation reports to.
_default_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry built-in instrumentation reports to."""
    return _default_registry
