"""Static lint pass: finding model, each check, suppression, CLI gate."""

import json

import numpy as np
import pytest

from repro.analysis import (
    Finding,
    Report,
    lint_cl_source,
    lint_program,
    run_deep_suite,
    run_suite,
    severity_rank,
)
from repro.harness.cli import EXIT_USAGE
from repro.harness.cli import main as cli_main
from repro.ocl import KernelSource, Program


def checks(findings):
    return {f.check for f in findings}


def by_check(findings, check):
    return [f for f in findings if f.check == check]


def _noop(nd, *args):
    pass


# ---------------------------------------------------------------------------
class TestFindingModel:
    def test_severity_validated(self):
        with pytest.raises(ValueError):
            Finding(check="x", severity="fatal", message="m")

    def test_where_and_format(self):
        f = Finding(check="oob-access", severity="error", message="boom",
                    benchmark="lud", kernel="lud_diagonal",
                    argument="matrix", location="element 3", hint="fix it")
        assert f.where == "lud/lud_diagonal/matrix/element 3"
        line = f.format()
        assert line.startswith("error: [oob-access]")
        assert "(hint: fix it)" in line

    def test_to_dict_omits_unset(self):
        f = Finding(check="x", severity="note", message="m")
        assert set(f.to_dict()) == {"check", "severity", "message"}

    def test_severity_rank_ordering(self):
        assert severity_rank("note") < severity_rank("warning") < severity_rank("error")
        with pytest.raises(ValueError):
            severity_rank("bogus")

    def test_report_gating_and_counts(self):
        report = Report(emit_metrics=False)
        report.add(Finding(check="a", severity="note", message="m"))
        report.add(Finding(check="b", severity="warning", message="m"))
        assert report.worst() == "warning"
        assert not report.fails("error")
        assert report.fails("warning")
        assert report.count("note") == 1
        assert len(report) == 2

    def test_report_json_schema(self):
        report = Report(emit_metrics=False)
        report.add(Finding(check="a", severity="error", message="m",
                           benchmark="fft"))
        doc = json.loads(report.to_json())
        assert doc["schema_version"] == 2
        assert doc["summary"]["error"] == 1
        assert doc["findings"][0]["benchmark"] == "fft"

    def test_v2_schema_is_additive(self):
        """Every v1 key survives; v2 additions are optional."""
        report = Report(emit_metrics=False)
        report.add(Finding(check="a", severity="warning", message="m"))
        doc = json.loads(report.to_json())
        # the complete v1 surface, as a v1 consumer reads it
        assert {"schema_version", "summary", "findings"} <= set(doc)
        assert {"note", "warning", "error"} <= set(doc["summary"])
        assert {"check", "severity", "message"} <= set(doc["findings"][0])
        # extras is absent until populated, so v1 parsers never see it
        assert "extras" not in doc
        report.extras["probe"] = {"k": 1}
        assert json.loads(report.to_json())["extras"] == {"probe": {"k": 1}}

    def test_info_severity_and_fail_on_any(self):
        report = Report(emit_metrics=False)
        report.add(Finding(check="access-stride", severity="info", message="m"))
        assert report.count("info") == 1
        assert not report.fails("note")   # info ranks below note
        assert report.fails("any")        # but 'any' trips on everything
        assert severity_rank("any") <= severity_rank("info")

    def test_report_metric_emission(self):
        from repro.telemetry.metrics import default_registry

        report = Report()  # metrics on: lands in the global registry
        report.add(Finding(check="metric-probe", severity="note", message="m",
                           benchmark="fft"))
        exposed = default_registry().expose()
        assert "analysis_findings_total" in exposed
        assert "metric-probe" in exposed


# ---------------------------------------------------------------------------
class TestStaticChecks:
    def test_unused_param(self):
        findings = lint_cl_source(
            "__kernel void f(__global float *x, int n) { x[0] = 1.0f; }")
        hits = by_check(findings, "unused-param")
        assert len(hits) == 1
        assert hits[0].kernel == "f"
        assert hits[0].argument == "n"
        assert hits[0].location == "argument 1"
        assert hits[0].severity == "warning"

    def test_unused_param_suppressed_by_name(self):
        findings = lint_cl_source(
            "__kernel void f(__global float *x, int n) {\n"
            "  // repro-lint: allow(unused-param: n)\n"
            "  x[0] = 1.0f;\n"
            "}")
        assert "unused-param" not in checks(findings)

    def test_unused_param_suppressed_kernel_wide(self):
        findings = lint_cl_source(
            "__kernel void f(int a, int b) {\n"
            "  // repro-lint: allow(unused-param)\n"
            "}")
        assert "unused-param" not in checks(findings)

    def test_constant_write(self):
        findings = lint_cl_source(
            "__kernel void f(__constant float *lut, __global float *y) {\n"
            "  lut[get_global_id(0)] = 0.0f;\n"
            "  y[0] = lut[0];\n"
            "}")
        hits = by_check(findings, "constant-write")
        assert len(hits) == 1
        assert hits[0].severity == "error"
        assert hits[0].argument == "lut"

    def test_constant_read_is_clean(self):
        findings = lint_cl_source(
            "__kernel void f(__constant float *lut, __global float *y) {\n"
            "  y[0] = lut[0] + lut[1];\n"
            "}")
        assert "constant-write" not in checks(findings)

    def test_constant_compound_assign_detected(self):
        findings = lint_cl_source(
            "__kernel void f(__constant int *t) { t[0] += 1; }")
        assert "constant-write" in checks(findings)

    def test_barrier_in_divergent_if(self):
        findings = lint_cl_source(
            "__kernel void f(__global float *x) {\n"
            "  int gid = get_global_id(0);\n"
            "  if (gid < 16) {\n"
            "    x[gid] *= 2.0f;\n"
            "    barrier(CLK_GLOBAL_MEM_FENCE);\n"
            "  }\n"
            "}")
        hits = by_check(findings, "barrier-divergence")
        assert len(hits) == 1
        assert hits[0].kernel == "f"

    def test_barrier_after_early_exit_is_divergent(self):
        """Work items past ``n`` return before the barrier, so not every
        work item of a group reaches it: undefined in OpenCL 1.2."""
        findings = lint_cl_source(
            "__kernel void f(__global float *x, int n) {\n"
            "  int gid = get_global_id(0);\n"
            "  if (gid >= n) return;\n"
            "  x[gid] = 1.0f;\n"
            "  barrier(CLK_GLOBAL_MEM_FENCE);\n"
            "}")
        hits = by_check(findings, "barrier-divergence")
        assert len(hits) == 1
        assert hits[0].kernel == "f"
        assert hits[0].location == "line 5"

    def test_barrier_in_uniform_if_is_clean(self):
        findings = lint_cl_source(
            "__kernel void f(__global float *x, int n) {\n"
            "  int gid = get_global_id(0);\n"
            "  if (n > 4) {\n"
            "    barrier(CLK_GLOBAL_MEM_FENCE);\n"
            "  }\n"
            "  x[gid] = 1.0f;\n"
            "}")
        assert "barrier-divergence" not in checks(findings)

    def test_param_named_only_in_comment_is_unused(self):
        """PR 3 false positive: a comment mention is not a use."""
        findings = lint_cl_source(
            "__kernel void f(__global float *x, int n) {\n"
            "  // the caller derives n from the buffer size\n"
            "  x[0] = 1.0f;\n"
            "}")
        hits = by_check(findings, "unused-param")
        assert [h.argument for h in hits] == ["n"]

    def test_param_named_only_in_string_is_unused(self):
        findings = lint_cl_source(
            '__kernel void f(__global float *x, int n) {\n'
            '  printf("n goes here");\n'
            '  x[0] = 1.0f;\n'
            '}')
        assert [h.argument for h in by_check(findings, "unused-param")] == ["n"]

    def test_param_used_in_code_not_flagged_despite_comment(self):
        findings = lint_cl_source(
            "__kernel void f(__global float *x, int n) {\n"
            "  /* n bounds the write */\n"
            "  if (get_global_id(0) < n) x[get_global_id(0)] = 1.0f;\n"
            "}")
        assert "unused-param" not in checks(findings)

    def test_constant_write_in_comment_is_clean(self):
        findings = lint_cl_source(
            "__kernel void f(__constant float *lut, __global float *y) {\n"
            "  // never do lut[0] = 1.0f here\n"
            "  y[0] = lut[0];\n"
            "}")
        assert "constant-write" not in checks(findings)

    def test_barrier_in_comment_is_clean(self):
        findings = lint_cl_source(
            "__kernel void f(__global float *x) {\n"
            "  int gid = get_global_id(0);\n"
            "  if (gid < 16) {\n"
            "    // a barrier(CLK_LOCAL_MEM_FENCE) here would deadlock\n"
            "    x[gid] = 1.0f;\n"
            "  }\n"
            "}")
        assert "barrier-divergence" not in checks(findings)


# ---------------------------------------------------------------------------
class TestProgramLint:
    def test_missing_kernel_body(self, cpu_context):
        src = ("__kernel void used(__global float *x) { x[0] = 1.0f; }\n"
               "__kernel void orphan(__global float *x) { x[0] = 2.0f; }\n")
        program = Program(cpu_context, [
            KernelSource("used", _noop, cl_source=src)
        ]).build()
        hits = by_check(lint_program(program), "missing-kernel-body")
        assert len(hits) == 1
        assert hits[0].kernel == "orphan"

    def test_missing_cl_source(self, cpu_context):
        program = Program(cpu_context, [KernelSource("bare", _noop)]).build()
        hits = by_check(lint_program(program), "missing-cl-source")
        assert len(hits) == 1
        assert hits[0].severity == "note"
        assert hits[0].kernel == "bare"

    def test_local_from_global_buffer(self, cpu_context):
        src = ("__kernel void f(__global float *x, __local float *scratch) "
               "{ x[0] = scratch[0]; }")
        program = Program(cpu_context, [
            KernelSource("f", _noop, cl_source=src)
        ]).build()
        kernel = program.create_kernel("f")
        buf = cpu_context.buffer_like(np.zeros(4, np.float32))
        scratch = cpu_context.buffer_like(np.zeros(4, np.float32))
        kernel.set_args(buf, scratch)
        hits = by_check(lint_program(program), "local-from-global")
        assert len(hits) == 1
        assert hits[0].kernel == "f"
        assert hits[0].argument == "scratch"
        assert hits[0].severity == "error"

    def test_shared_source_linted_once(self, cpu_context):
        src = ("__kernel void a(int n) {}\n"
               "__kernel void b(int n) {}\n"
               "__kernel void orphan(int n) {}\n")
        program = Program(cpu_context, [
            KernelSource("a", _noop, cl_source=src),
            KernelSource("b", _noop, cl_source=src),
        ]).build()
        hits = by_check(lint_program(program), "missing-kernel-body")
        assert [h.kernel for h in hits] == ["orphan"]  # not doubled


# ---------------------------------------------------------------------------
class TestSuiteAndCLI:
    def test_full_suite_is_clean(self):
        report = run_suite(emit_metrics=False)
        assert not report.fails("note"), report.render_text()

    def test_single_benchmark(self):
        report = run_suite(benchmarks=["lud"], emit_metrics=False)
        assert not report.fails("note")

    def test_ignore_drops_check(self):
        report = run_suite(benchmarks=["lud"], emit_metrics=False,
                           ignore=("missing-cl-source",))
        assert "missing-cl-source" not in {f.check for f in report}

    def test_cli_lint_exit_zero(self, capsys):
        assert cli_main(["lint", "--benchmark", "fft"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_cli_lint_json(self, capsys):
        assert cli_main(["lint", "--benchmark", "fft", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 2

    def test_cli_lint_sanitize(self, capsys):
        assert cli_main(["lint", "--benchmark", "nw", "--sanitize"]) == 0

    def test_cli_lint_is_the_full_gate(self, capsys):
        """One gate: the CLI prints the deep suite with both
        differential gates, byte for byte."""
        assert cli_main(["lint", "--benchmark", "csr", "--json"]) == 0
        out = capsys.readouterr().out
        report = run_deep_suite(benchmarks=["csr"], traces=True, aiwc=True,
                                emit_metrics=False)
        assert out == report.to_json() + "\n"
        extras = json.loads(out)["extras"]
        assert "csr" in extras["trace_differential"]
        assert "csr" in extras["aiwc_differential"]

    def test_cli_lint_size_missing_preset(self, capsys):
        """nqueens has no small preset: its per-size gates skip it."""
        assert cli_main(["lint", "--size", "small", "--json"]) == 0
        extras = json.loads(capsys.readouterr().out)["extras"]
        assert "nqueens" not in extras["footprint_verification"]
        assert "nqueens" not in extras["trace_differential"]
        assert set(extras["trace_differential"]["lud"]) == {"small"}

    def test_cli_lint_rejects_unknown_ignore(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["lint", "--ignore", "unused-parm"])
        assert info.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unused-parm" in err
        assert "unused-param" in err  # the known checks are listed
