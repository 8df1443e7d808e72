"""IR-derived access model: trace synthesis, race/coalescing/bank
lints, reuse distances and the differential trace gate."""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis import run_deep_suite
from repro.analysis.accessmodel import (
    GATE_TRACE_LEN,
    LINE_BYTES,
    REUSE_TRACE_LEN,
    access_model_findings,
    buffer_layout,
    compare_benchmark_traces,
    ir_stride_classes,
    resolve_access_trace,
    reuse_distance_summary,
    stack_distances,
    synthesize_trace,
)
from repro.analysis.deep import deep_lint_model
from repro.cache.trace import DEFAULT_MAX_LEN, TraceSpec
from repro.devices import get_device
from repro.dwarfs import registry
from repro.dwarfs.base import StaticBuffer, StaticLaunch, StaticLaunchModel
from repro.harness.artifacts import _compute, simulate_cell_counters
from repro.harness.cli import main as cli_main
from repro.ocl.clsource import kernel_suppressions

ALL_BENCHMARKS = sorted([*registry.BENCHMARKS, *registry.EXTENSIONS])


def _model(source: str, n_items: int = 256,
           local_size=None) -> StaticLaunchModel:
    """A two-buffer fixture model launching kernel ``k`` once."""
    return StaticLaunchModel(
        source=source,
        buffers={"a": StaticBuffer("a", 64 * 1024),
                 "out": StaticBuffer("out", 64 * 1024)},
        launches=(StaticLaunch("k", (n_items,), scalars={},
                               buffers={"a": ("a", 0), "out": ("out", 0)},
                               local_size=local_size),),
    )


RACY_CL = """
__kernel void k(__global float *a, __global float *out) {
    int gid = get_global_id(0);
    a[gid] = out[gid];
    out[gid] = a[gid + 1];
}
"""

BARRIERED_CL = """
__kernel void k(__global float *a, __global float *out) {
    int gid = get_global_id(0);
    a[gid] = out[gid];
    barrier(CLK_GLOBAL_MEM_FENCE);
    out[gid] = a[gid + 1];
}
"""

UNIFORM_WRITE_CL = """
__kernel void k(__global float *a, __global float *out) {
    int gid = get_global_id(0);
    out[0] = a[gid];
}
"""

PINNED_WRITE_CL = """
__kernel void k(__global float *a, __global float *out) {
    int gid = get_global_id(0);
    if (gid == 0) {
        out[0] = a[gid];
    }
}
"""

INDIRECT_WRITE_CL = """
__kernel void k(__global int *a, __global float *out) {
    int gid = get_global_id(0);
    out[a[gid]] = 1.0f;
}
"""

UNCOALESCED_CL = """
__kernel void k(__global float *a, __global float *out) {
    int gid = get_global_id(0);
    out[gid] = a[gid * 32];
}
"""

BANK_CONFLICT_CL = """
__kernel void k(__global float *a, __global float *out) {
    int lid = get_local_id(0);
    __local float tile[512];
    tile[lid * 2] = a[lid];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[lid] = tile[lid * 2];
}
"""

SUPPRESSED_RACY_CL = """
__kernel void k(__global float *a, __global float *out) {
    int gid = get_global_id(0);
    // repro-lint: allow(data-race: a)
    a[gid] = out[gid];
    out[gid] = a[gid + 1];
}
"""


def _checks(findings):
    return [(f.check, f.argument) for f in findings]


# ---------------------------------------------------------------------------
class TestRaceDetection:
    """Inter-work-item race checks over fixture launch models."""

    def test_shifted_affine_overlap_is_a_race(self):
        findings = access_model_findings(_model(RACY_CL), benchmark="fx")
        assert ("data-race", "a") in _checks(findings)
        race = next(f for f in findings if f.check == "data-race")
        assert race.severity == "error"
        assert race.kernel == "k"

    def test_barrier_epoch_separates_the_accesses(self):
        assert access_model_findings(_model(BARRIERED_CL)) == []

    def test_uniform_index_write_races(self):
        findings = access_model_findings(_model(UNIFORM_WRITE_CL))
        assert _checks(findings) == [("data-race", "out")]

    def test_single_work_item_launch_is_clean(self):
        assert access_model_findings(_model(UNIFORM_WRITE_CL,
                                            n_items=1)) == []

    def test_equality_guard_pins_the_store(self):
        assert access_model_findings(_model(PINNED_WRITE_CL)) == []

    def test_indirect_write_is_a_potential_race(self):
        findings = access_model_findings(_model(INDIRECT_WRITE_CL))
        assert _checks(findings) == [("data-race", "out")]
        assert findings[0].severity == "warning"


# ---------------------------------------------------------------------------
class TestCoalescingAndBankChecks:
    def test_line_sized_stride_is_uncoalesced(self):
        findings = access_model_findings(_model(UNCOALESCED_CL))
        assert _checks(findings) == [("uncoalesced-access", "a")]
        assert "128 bytes apart" in findings[0].message

    def test_unit_stride_is_clean(self):
        clean = RACY_CL.replace("a[gid + 1]", "a[gid]")
        assert access_model_findings(_model(clean)) == []

    def test_two_way_bank_conflict_on_local_tile(self):
        findings = access_model_findings(
            _model(BANK_CONFLICT_CL, local_size=(64,)))
        assert _checks(findings) == [("bank-conflict", "tile")]
        assert "2-way bank conflict" in findings[0].message


# ---------------------------------------------------------------------------
class TestSuppressions:
    """``// repro-lint: allow(...)`` silences access-model findings."""

    def test_allow_directive_suppresses_the_race(self):
        model = _model(SUPPRESSED_RACY_CL)
        allows = kernel_suppressions(model.source)
        assert ("data-race", "a") in allows["k"]
        findings = access_model_findings(model, suppressions=allows)
        assert findings == []
        # without the parsed directives the defect is still found
        assert access_model_findings(model) != []

    def test_deep_lint_model_applies_source_suppressions(self):
        assert deep_lint_model(_model(SUPPRESSED_RACY_CL)) == []
        checks = [f.check for f in deep_lint_model(_model(RACY_CL))]
        assert "data-race" in checks

    def test_shipped_kmeans_layout_is_suppressed_in_source(self):
        """The in-tree suppression of an IR-exact finding works."""
        bench = registry.get_benchmark("kmeans").from_size("tiny")
        model = bench.static_launches()
        allows = kernel_suppressions(model.source)
        assert ("uncoalesced-access", "features") in allows["kmeans_assign"]
        # stripping the suppressions resurfaces the finding
        raw = access_model_findings(model, benchmark="kmeans")
        assert ("uncoalesced-access", "features") in _checks(raw)
        assert access_model_findings(model, benchmark="kmeans",
                                     suppressions=allows) == []


# ---------------------------------------------------------------------------
class TestTraceSynthesis:
    def test_layout_is_back_to_back_declaration_order(self):
        model = _model(RACY_CL)
        layout = buffer_layout(model)
        assert layout == {"a": (0, 64 * 1024), "out": (64 * 1024, 64 * 1024)}

    def test_synthesized_trace_shape_and_determinism(self):
        model = registry.get_benchmark("csr").from_size(
            "tiny").static_launches()
        trace, layout = synthesize_trace(model, max_len=4096)
        again, _ = synthesize_trace(model, max_len=4096)
        assert trace.dtype == np.int64
        assert 0 < trace.size <= 4096
        total = sum(nbytes for _base, nbytes in layout.values())
        assert trace.min() >= 0 and trace.max() < total
        assert np.array_equal(trace, again)

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_every_benchmark_synthesizes(self, name):
        bench = registry.get_benchmark(name).from_size("tiny")
        trace, _layout = synthesize_trace(bench.static_launches(),
                                          max_len=2048)
        assert trace.size > 0
        assert ir_stride_classes(bench.static_launches())

    def test_resolve_returns_the_hand_authored_trace(self):
        """The production trace is the hand-authored one; the IR trace
        only feeds the differential gate."""
        bench = registry.get_benchmark("kmeans").from_size("tiny")
        resolved = resolve_access_trace(bench, max_len=2048)
        assert np.array_equal(resolved, bench.access_trace(max_len=2048))
        ir, _layout = synthesize_trace(bench.static_launches(), max_len=2048)
        assert not np.array_equal(resolved, ir)


# ---------------------------------------------------------------------------
class TestDeclarativeTraceSpecs:
    """Satellite of the access model: every dwarf declares its trace."""

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_spec_builds_the_access_trace(self, name):
        bench = registry.get_benchmark(name).from_size("tiny")
        spec = bench.trace_spec()
        assert isinstance(spec, TraceSpec)
        assert spec.components()
        built = spec.build(max_len=DEFAULT_MAX_LEN,
                           seed=getattr(bench, "seed", 0))
        assert np.array_equal(built, bench.access_trace())

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_spec_metadata_is_consistent(self, name):
        bench = registry.get_benchmark(name).from_size("tiny")
        spec = bench.trace_spec()
        classes = spec.stride_classes()
        assert classes <= {"unit", "strided", "indirect"}
        assert spec.span_bytes() > 0


# ---------------------------------------------------------------------------
class TestDifferentialGate:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_ir_and_hand_traces_agree_at_every_size(self, name):
        findings, table = compare_benchmark_traces(name)
        assert findings == [], [f.format() for f in findings]
        sizes = registry.get_benchmark(name).available_sizes()
        assert set(table) == set(sizes)
        for size, row in table.items():
            assert row["ok"], f"{name}/{size}: {row}"
            assert row["footprint_bytes"] > 0
            assert row["span_ir"] > 0 and row["span_hand"] > 0

    def test_corrupted_oracle_trips_the_gate(self, monkeypatch):
        """A hand trace that ignores the footprint must diverge."""
        import repro.cache.trace as trace_mod

        cls = registry.get_benchmark("kmeans")

        class BrokenKMeans(cls):
            def trace_spec(self):
                # spans 64 bytes where the footprint is tens of KiB
                return trace_mod.TraceSpec.single(
                    trace_mod.seq(64, passes=2))

        monkeypatch.setitem(registry.BENCHMARKS, "kmeans", BrokenKMeans)
        findings, table = compare_benchmark_traces("kmeans",
                                                   sizes=("tiny",))
        assert [f.check for f in findings] == ["trace-divergence"]
        assert findings[0].severity == "error"
        assert not table["tiny"]["ok"]

    def test_gate_trace_len_is_bounded(self):
        # the gate must stay cheap enough to run 15 benchmarks x sizes
        assert GATE_TRACE_LEN <= DEFAULT_MAX_LEN


# ---------------------------------------------------------------------------
class TestStackDistances:
    def test_textbook_example(self):
        lines = np.array([0, 1, 0, 1, 2, 0])
        assert stack_distances(lines).tolist() == [-1, -1, 1, 1, -1, 2]

    def test_cyclic_sweep_distance_is_set_size(self):
        n = 37
        lines = np.tile(np.arange(n), 3)
        dist = stack_distances(lines)
        assert (dist[:n] == -1).all()
        assert (dist[n:] == n - 1).all()

    def test_repeated_line_has_distance_zero(self):
        assert stack_distances(np.array([5, 5, 5])).tolist() == [-1, 0, 0]

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_synthesized_reuse_traces_match_the_fenwick_walk(self, name):
        cls = registry.get_benchmark(name)
        model = cls.from_size(cls.available_sizes()[0]).static_launches()
        trace, _layout = synthesize_trace(model, max_len=REUSE_TRACE_LEN)
        lines = trace // LINE_BYTES
        assert stack_distances(lines).tolist() == _fenwick_distances(lines)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 9, 15, 17, 31, 33, 63,
                                   65, 255, 257, 1023, 1025, 4095, 4097])
    @pytest.mark.parametrize("distinct", ["few", "many"])
    def test_random_traces_match_the_fenwick_walk(self, n, distinct):
        rng = np.random.default_rng(n)
        high = 3 if distinct == "few" else 4 * n + 1
        lines = rng.integers(0, high, size=n, dtype=np.int64)
        assert stack_distances(lines).tolist() == _fenwick_distances(lines)


def _fenwick_distances(lines):
    """The per-access Fenwick-tree walk ``stack_distances`` replaced:
    a last-occurrence marker per line, and the distance of a reuse is
    the count of markers strictly between the two uses."""
    n = len(lines)
    out = []
    tree = [0] * (n + 1)

    def update(pos, delta):
        i = pos + 1
        while i <= n:
            tree[i] += delta
            i += i & -i

    def prefix(pos):
        i = pos + 1
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total

    last = {}
    for i, line in enumerate(lines.tolist()):
        prev = last.get(line)
        if prev is None:
            out.append(-1)
        else:
            out.append(prefix(i - 1) - prefix(prev))
            update(prev, -1)
        update(i, 1)
        last[line] = i
    return out


# ---------------------------------------------------------------------------
class TestReuseDistanceSummary:
    def test_kmeans_buffers_are_summarised(self):
        model = registry.get_benchmark("kmeans").from_size(
            "tiny").static_launches()
        summary = reuse_distance_summary(model)
        assert set(summary) == {"features", "clusters", "membership"}
        for stats in summary.values():
            assert stats["accesses"] > 0
            assert stats["lines"] > 0
            assert 0.0 <= stats["cold_fraction"] <= 1.0
            if stats["mean"] is not None:
                assert stats["mean"] >= 0

    def test_clusters_are_hotter_than_features(self):
        """The small cluster table is re-swept; the point matrix streams."""
        model = registry.get_benchmark("kmeans").from_size(
            "tiny").static_launches()
        summary = reuse_distance_summary(model)
        assert summary["clusters"]["lines"] < summary["features"]["lines"]


# ---------------------------------------------------------------------------
class TestCounterEquivalence:
    """IR traces drive the counter simulation to comparable results."""

    #: Miss counts from the two provenances must agree within this
    #: factor (+1-smoothed); empirically the worst tiny-shape ratio is
    #: ~3x (kmeans L1), so 8x catches real divergence without flaking.
    TOLERANCE = 8.0

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_tiny_counters_within_tolerance(self, name):
        spec = get_device("i7-6700K")
        hand = _compute(name, "tiny", 20_000)
        model = registry.get_benchmark(name).from_size(
            "tiny").static_launches()
        ir = dataclasses.replace(
            hand, trace=synthesize_trace(model, max_len=20_000)[0])
        counters_hand = simulate_cell_counters(spec, hand)
        counters_ir = simulate_cell_counters(spec, ir)
        for event in ("PAPI_L1_DCM", "PAPI_L2_DCM", "PAPI_L3_TCM",
                      "PAPI_TLB_DM"):
            a = counters_hand[event] + 1
            b = counters_ir[event] + 1
            ratio = max(a / b, b / a)
            assert ratio <= self.TOLERANCE, (
                f"{name}: {event} diverges {ratio:.1f}x "
                f"(hand {a - 1}, ir {b - 1})")


# ---------------------------------------------------------------------------
class TestDeepSuiteAndCli:
    def test_shipped_suite_is_clean_with_traces(self):
        report = run_deep_suite(benchmarks=["kmeans", "bfs"], size="tiny",
                                traces=True, emit_metrics=False)
        assert len(report) == 0, report.render_text()
        assert set(report.extras["trace_differential"]) == {"kmeans", "bfs"}
        assert set(report.extras["reuse_distance"]) == {"kmeans", "bfs"}

    def test_trace_findings_honour_ignore(self, monkeypatch):
        import repro.cache.trace as trace_mod

        cls = registry.get_benchmark("kmeans")

        class BrokenKMeans(cls):
            def trace_spec(self):
                return trace_mod.TraceSpec.single(
                    trace_mod.seq(64, passes=2))

        monkeypatch.setitem(registry.BENCHMARKS, "kmeans", BrokenKMeans)
        report = run_deep_suite(benchmarks=["kmeans"], size="tiny",
                                traces=True, emit_metrics=False)
        assert "trace-divergence" in [f.check for f in report.findings]
        ignored = run_deep_suite(benchmarks=["kmeans"], size="tiny",
                                 traces=True, emit_metrics=False,
                                 ignore=("trace-divergence",))
        assert "trace-divergence" not in [f.check for f in ignored.findings]

    def test_cli_traces_flag(self, capsys):
        exit_code = cli_main(["lint", "--benchmark", "csr", "--size", "tiny",
                              "--json", "--fail-on", "any"])
        assert exit_code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["error"] == 0
        table = document["extras"]["trace_differential"]["csr"]["tiny"]
        assert table["ok"] is True
        assert table["indirect_hand"] and table["indirect_ir"]

    def test_line_bytes_constant(self):
        assert LINE_BYTES == 64
