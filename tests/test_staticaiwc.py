"""Static AIWC stage: characterization, gate, and scheduler path."""

import json
import math

import pytest

from repro.analysis.absint import Const, Guard, Interval, point, top
from repro.analysis.findings import Finding, Report
from repro.analysis.staticaiwc import (
    characterize_model,
    characterize_static,
    characterize_suite_static,
    compare_bench_aiwc,
    compare_benchmark_aiwc,
    guard_fraction,
    metric_scores,
    model_from_source,
    profiles_from_model,
)
from repro.dwarfs import registry
from repro.ocl.clsource import CLSourceError
from repro.perfmodel.characterization import KernelProfile, static_profiles
from repro.scheduling.selector import predict_all

ALL_BENCHMARKS = [*registry.BENCHMARKS, *registry.EXTENSIONS]

FIXTURE_SRC = """
__kernel void fix(__global float* out, __global const float* in, int n) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int j = 0; j < 4; j++) {
        acc += in[i] * 2.0f;
    }
    out[i] = acc;
}
"""


class _FakeBench:
    """Minimal Benchmark stand-in for gate fixtures."""

    name = "fixture"
    dwarf = "test"

    def __init__(self, model, profiles, footprint=2048):
        self._model = model
        self._profiles = profiles
        self._footprint = footprint

    def static_launches(self):
        return self._model

    def profiles(self):
        return self._profiles

    def footprint_bytes(self):
        return self._footprint


def _fixture_profile(**overrides):
    """The dynamic profile exactly matching FIXTURE_SRC's semantics."""
    base = dict(
        name="fix", flops=2048.0, int_ops=0.0,
        bytes_read=1024.0, bytes_written=1024.0,
        working_set_bytes=2048.0, work_items=256,
        seq_fraction=1.0, launches=1,
    )
    base.update(overrides)
    return KernelProfile(**base)


# ----------------------------------------------------------------------
# guard_fraction
# ----------------------------------------------------------------------
def _iv(lo, hi):
    return Interval(Const(lo), Const(hi))


def test_guard_fraction_infeasible_is_zero():
    g = Guard(lhs=_iv(5, 9), op="<", rhs=point(Const(0)))
    assert guard_fraction(g, {}) == 0.0


def test_guard_fraction_equality_is_one_over_span():
    g = Guard(lhs=_iv(0, 9), op="==", rhs=point(Const(3)))
    assert guard_fraction(g, {}) == pytest.approx(0.1)


def test_guard_fraction_inequality_complements_equality():
    eq = Guard(lhs=_iv(0, 9), op="==", rhs=point(Const(3)))
    ne = Guard(lhs=_iv(0, 9), op="!=", rhs=point(Const(3)))
    assert guard_fraction(eq, {}) + guard_fraction(ne, {}) == pytest.approx(1.0)


def test_guard_fraction_less_than_midpoint():
    g = Guard(lhs=_iv(0, 9), op="<", rhs=point(Const(5)))
    assert guard_fraction(g, {}) == pytest.approx(0.5)


def test_guard_fraction_point_operand_is_one():
    g = Guard(lhs=point(Const(2)), op="<", rhs=point(Const(5)))
    assert guard_fraction(g, {}) == 1.0


def test_guard_fraction_unbounded_operand_is_one():
    g = Guard(lhs=top(), op="<", rhs=point(Const(5)))
    assert guard_fraction(g, {}) == 1.0


def test_guard_fraction_clamped_to_unit_interval():
    g = Guard(lhs=_iv(0, 9), op="<", rhs=point(Const(100)))
    assert guard_fraction(g, {}) == 1.0


# ----------------------------------------------------------------------
# Exact-count fixture: static == dynamic
# ----------------------------------------------------------------------
def test_fixture_static_counts_are_exact():
    model = model_from_source(FIXTURE_SRC, global_size=256, buffer_elems=256)
    result = characterize_model(model, name="fixture", dwarf="test")
    diag = result.per_kernel["fix"]
    # 4 loop iterations x (mul + accumulate-add) x 256 work items
    assert diag["flops"] == 2048.0
    assert diag["int_ops"] == 0.0
    # unique traffic: one 256-element float buffer each way, the
    # repeated in[i] reads collapse to the extent
    assert diag["bytes_read"] == 1024.0
    assert diag["bytes_written"] == 1024.0
    assert diag["work_items"] == 256.0
    assert result.footprint_bytes == 2048.0


def test_fixture_static_matches_exact_dynamic_profile():
    model = model_from_source(FIXTURE_SRC, global_size=256, buffer_elems=256)
    bench = _FakeBench(model, [_fixture_profile()])
    findings, row = compare_bench_aiwc(bench)
    assert findings == []
    assert max(row["scores"].values()) == pytest.approx(0.0, abs=1e-9)


def test_fixture_wrong_dynamic_profile_is_flagged():
    """A deliberately wrong dynamic profile must trip the gate."""
    model = model_from_source(FIXTURE_SRC, global_size=256, buffer_elems=256)
    wrong = _fixture_profile(
        flops=0.0, int_ops=1e9, bytes_read=1e9,
        seq_fraction=0.0, random_fraction=1.0,
        branch_fraction=0.9, launches=500,
    )
    bench = _FakeBench(model, [wrong])
    findings, row = compare_bench_aiwc(bench)
    assert findings, "gate must flag a wrong dynamic profile"
    checks = {f.check for f in findings}
    assert checks == {"aiwc-divergence"}
    assert all(f.severity == "error" for f in findings)
    flagged = {f.argument for f in findings}
    assert "fp_fraction" in flagged
    assert "branch_fraction" in flagged


def test_fixture_group_suppression_drops_findings():
    src = FIXTURE_SRC.replace(
        "int i = get_global_id(0);",
        "// repro-lint: allow(aiwc-divergence: compute)\n"
        "    int i = get_global_id(0);")
    model = model_from_source(src, global_size=256, buffer_elems=256)
    wrong = _fixture_profile(flops=0.0, int_ops=1e9)
    bench = _FakeBench(model, [wrong])
    findings, row = compare_bench_aiwc(bench)
    assert row["suppressed_groups"] == ["compute"]
    assert all(f.argument not in
               ("opcode_total", "fp_fraction", "arithmetic_intensity")
               for f in findings)


# ----------------------------------------------------------------------
# The gate over the shipped suite
# ----------------------------------------------------------------------
def test_gate_clean_across_suite():
    """Zero aiwc-divergence findings for all benchmarks x all presets."""
    for name in ALL_BENCHMARKS:
        findings, table = compare_benchmark_aiwc(name)
        assert findings == [], (
            f"{name}: {[f'{f.argument}: {f.message}' for f in findings]}")
        assert table, f"{name}: no comparison rows produced"
        for row in table.values():
            for metric, score in row["scores"].items():
                assert math.isfinite(score)


def test_characterize_suite_static_covers_extensions():
    metrics = characterize_suite_static("large")
    names = {m.benchmark for m in metrics}
    assert names == set(ALL_BENCHMARKS)
    for m in metrics:
        assert all(math.isfinite(v) for v in m.vector())


# ----------------------------------------------------------------------
# model_from_source (user-supplied .cl kernels)
# ----------------------------------------------------------------------
def test_model_from_source_characterizes_bare_kernel():
    src = """
    __kernel void saxpy(__global float* y, __global const float* x,
                        float a, int n) {
        int i = get_global_id(0);
        if (i < n) y[i] = a * x[i] + y[i];
    }
    """
    result = characterize_model(model_from_source(src), name="saxpy")
    m = result.metrics
    assert m.fp_fraction == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert m.arithmetic_intensity == pytest.approx(2.0 / 12.0, abs=1e-6)


def test_model_from_source_rejects_bodyless_source():
    with pytest.raises(CLSourceError):
        model_from_source("__kernel void decl(__global float* x);")


# ----------------------------------------------------------------------
# Static profiles and the scheduler path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_static_profiles_are_valid(name):
    """profiles_from_model output passes KernelProfile validation."""
    cls = registry.get_benchmark(name)
    bench = cls.from_size(cls.available_sizes()[0])
    profiles = static_profiles(bench)
    assert profiles
    for p in profiles:
        assert p.work_items >= 1
        assert p.launches >= 1
        total = p.seq_fraction + p.strided_fraction + p.random_fraction
        assert total == pytest.approx(1.0)


def test_selector_static_source_regret_bounded():
    """The static top pick costs at most 25% more than the dynamic one.

    Full-order ranking identity is not attainable (near-tied devices
    swap), so the acceptance criterion is scheduling regret: the
    dynamic-model time of the statically chosen device over the
    dynamic optimum.  Benchmarks carrying an aiwc-divergence group
    suppression declare a known modeling difference and are excluded.
    """
    from repro.analysis.staticaiwc import _model_allows

    for name in ALL_BENCHMARKS:
        cls = registry.get_benchmark(name)
        bench = cls.from_size(cls.available_sizes()[-1])
        model = bench.static_launches()
        if model is None:
            continue
        if any(check == "aiwc-divergence" for check, _ in _model_allows(model)):
            continue
        dyn = predict_all(bench, profile_source="dynamic")
        sta = predict_all(bench, profile_source="static")
        dyn_time = {p.device: p.time_s for p in dyn}
        best = min(dyn, key=lambda p: p.time_s)
        pick = min(sta, key=lambda p: p.time_s)
        regret = dyn_time[pick.device] / best.time_s
        assert regret <= 1.25, f"{name}: static pick regret {regret:.2f}"


def test_selector_rejects_unknown_profile_source():
    cls = registry.get_benchmark("kmeans")
    bench = cls.from_size(cls.available_sizes()[0])
    with pytest.raises(ValueError):
        predict_all(bench, profile_source="oracle")


# ----------------------------------------------------------------------
# Deterministic JSON reports
# ----------------------------------------------------------------------
def _finding(i):
    return Finding(check="aiwc-divergence", severity="error",
                   message=f"m{i}", benchmark=f"b{i % 3}",
                   argument=f"metric{i % 4}")


def test_report_json_is_order_independent():
    findings = [_finding(i) for i in range(8)]
    a, b = Report(), Report()
    for f in findings:
        a.add(f)
    for f in reversed(findings):
        b.add(f)
    assert a.to_json() == b.to_json()


def test_report_json_extras_keys_sorted():
    r = Report()
    r.extras["zeta"] = {"b": 1, "a": 2}
    r.extras["alpha"] = [3]
    payload = r.to_json()
    assert payload == json.dumps(json.loads(payload), indent=2,
                                 sort_keys=True)
