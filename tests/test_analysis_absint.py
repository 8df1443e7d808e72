"""Symbolic working-set verification (§4.4) and the deep lint suite."""

import dataclasses
import json

import pytest

from repro.analysis import (
    FAIL_ON_CHOICES,
    SLACK_PER_BUFFER,
    benchmark_strides,
    default_severity,
    run_deep_suite,
    static_footprint,
    verify_benchmark_footprint,
)
from repro.analysis.deep import deep_lint_model
from repro.dwarfs import registry
from repro.dwarfs.base import StaticBuffer, StaticLaunch, StaticLaunchModel
from repro.harness.cli import main as cli_main

ALL_BENCHMARKS = sorted([*registry.BENCHMARKS, *registry.EXTENSIONS])


def _all_cases():
    cases = []
    for name in ALL_BENCHMARKS:
        for size in registry.get_benchmark(name).available_sizes():
            cases.append((name, size))
    return cases


# ---------------------------------------------------------------------------
class TestFootprintCrossCheck:
    """Static working set vs ``footprint_bytes()`` at every preset."""

    @pytest.mark.parametrize("name,size", _all_cases())
    def test_static_matches_runtime_within_slack(self, name, size):
        comparison = verify_benchmark_footprint(name, size)
        assert comparison is not None, f"{name} declares no launch model"
        assert comparison.ok, (
            f"{name}/{size}: static {comparison.static_bytes} vs runtime "
            f"{comparison.runtime_bytes} (delta {comparison.delta:+d}, "
            f"slack {comparison.slack_bytes})"
        )

    def test_every_benchmark_declares_a_model(self):
        for name in ALL_BENCHMARKS:
            cls = registry.get_benchmark(name)
            bench = cls.from_size(cls.available_sizes()[0])
            assert bench.static_launches() is not None, name

    def test_slack_scales_with_buffer_count(self):
        comparison = verify_benchmark_footprint("kmeans", "tiny")
        assert comparison.slack_bytes == SLACK_PER_BUFFER * 3

    def test_unknown_size_returns_none(self):
        assert verify_benchmark_footprint("kmeans", "enormous") is None


# ---------------------------------------------------------------------------
class TestCorruptedModelIsCaught:
    """A wrongly declared buffer must trip the cross-check."""

    def _broken_kmeans(self):
        cls = registry.get_benchmark("kmeans")

        class BrokenKMeans(cls):
            def static_launches(self):
                # deliberately corrupted model: the kernel still sweeps
                # the whole feature matrix, but only half is declared
                model = super().static_launches()
                features = model.buffers["features"]
                buffers = {**model.buffers, "features": dataclasses.replace(
                    features, nbytes=features.nbytes // 2)}
                return dataclasses.replace(model, buffers=buffers)

        return BrokenKMeans

    def test_comparison_fails(self, monkeypatch):
        monkeypatch.setitem(registry.BENCHMARKS, "kmeans",
                            self._broken_kmeans())
        comparison = verify_benchmark_footprint("kmeans", "tiny")
        assert not comparison.ok
        assert comparison.delta > comparison.slack_bytes
        # the undeclared half of the feature matrix is the whole delta
        assert comparison.delta == comparison.per_buffer["features"] // 2

    def test_deep_suite_reports_footprint_mismatch(self, monkeypatch):
        monkeypatch.setitem(registry.BENCHMARKS, "kmeans",
                            self._broken_kmeans())
        report = run_deep_suite(benchmarks=["kmeans"], emit_metrics=False)
        mismatches = [f for f in report if f.check == "footprint-mismatch"]
        # one per size preset
        assert len(mismatches) == 4, report.render_text()
        assert all(f.severity == "error" for f in mismatches)
        assert all("declared buffers vs addressed extents" in f.message
                   for f in mismatches)
        assert report.fails("error")

    def test_oversized_buffer_in_model_fails(self):
        cls = registry.get_benchmark("kmeans")
        bench = cls.from_size("tiny")
        model = bench.static_launches()
        buffers = dict(model.buffers)
        key = next(iter(buffers))
        # a host-side buffer the kernels never bind is priced at its
        # declared size
        buffers["stray"] = StaticBuffer("stray", 10 * 1024 * 1024,
                                        kernel_bound=False)
        corrupted = StaticLaunchModel(
            source=model.source, buffers=buffers,
            launches=model.launches, macros=model.macros)
        static = static_footprint(corrupted)
        delta = static.total_bytes - bench.footprint_bytes()
        assert delta > SLACK_PER_BUFFER * len(buffers), key


# ---------------------------------------------------------------------------
class TestStrideClasses:
    def test_kmeans(self):
        strides = benchmark_strides("kmeans")["kmeans_assign"]
        assert strides["membership"] == "unit"
        assert strides["features"] == "strided"
        assert strides["clusters"] == "uniform"

    def test_csr_indirection(self):
        strides = benchmark_strides("csr")["csr_spmv"]
        assert strides["row_ptr"] == "unit"
        assert strides["x"] == "indirect"
        assert strides["values"] == "indirect"


# ---------------------------------------------------------------------------
class TestReqdWorkGroupSize:
    SRC = ("__kernel __attribute__((reqd_work_group_size(64, 1, 1))) "
           "void f(__global float *x) { x[get_global_id(0)] = 1.0f; }")

    def _model(self, local_size):
        return StaticLaunchModel(
            source=self.SRC,
            buffers={"x": StaticBuffer("x", 512 * 4)},
            launches=(StaticLaunch("f", (512,), buffers={"x": ("x", 0)},
                                   local_size=local_size),),
        )

    def test_matching_local_size_clean(self):
        findings = deep_lint_model(self._model((64,)))
        assert not [f for f in findings if f.check == "reqd-work-group-size"]

    def test_mismatched_local_size_flagged(self):
        findings = deep_lint_model(self._model((32,)))
        hits = [f for f in findings if f.check == "reqd-work-group-size"]
        assert len(hits) == 1
        assert hits[0].severity == "error"

    def test_missing_local_size_flagged(self):
        findings = deep_lint_model(self._model(None))
        assert [f for f in findings if f.check == "reqd-work-group-size"]


# ---------------------------------------------------------------------------
class TestDeepSuite:
    def test_full_deep_suite_is_clean(self):
        report = run_deep_suite(emit_metrics=False)
        assert not report.fails("any"), report.render_text()
        assert len(report.extras["access_strides"]) == len(ALL_BENCHMARKS)
        assert len(report.extras["footprint_verification"]) == len(ALL_BENCHMARKS)

    def test_extras_survive_json(self):
        report = run_deep_suite(benchmarks=["fft"], emit_metrics=False)
        doc = json.loads(report.to_json())
        assert doc["schema_version"] == 2
        fft = doc["extras"]["footprint_verification"]["fft"]
        assert all(entry["ok"] for entry in fft.values())

    def test_size_restriction(self):
        report = run_deep_suite(benchmarks=["lud"], size="small",
                                emit_metrics=False)
        verified = report.extras["footprint_verification"]["lud"]
        assert set(verified) == {"small"}

    def test_cli_deep_fail_on_any(self, capsys):
        assert cli_main(["lint", "--benchmark", "kmeans",
                         "--json", "--fail-on", "any"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 2
        assert "extras" in doc

    def test_fail_on_choices_include_any(self):
        assert FAIL_ON_CHOICES[0] == "any"
        assert "info" in FAIL_ON_CHOICES

    def test_default_severities(self):
        assert default_severity("footprint-mismatch") == "error"
        assert default_severity("unreachable-code") == "warning"
        assert default_severity("access-stride") == "info"
        assert default_severity("never-heard-of-it") == "warning"


# ---------------------------------------------------------------------------
class TestSizingBridge:
    def test_verify_static_footprints(self):
        from repro.sizing import verify_static_footprints

        results = verify_static_footprints("srad")
        assert set(results) == set(
            registry.get_benchmark("srad").available_sizes())
        assert all(c.ok for c in results.values())
