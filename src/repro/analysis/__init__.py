"""Kernel sanitizer and lint suite for the simulated OpenCL runtime.

An Oclgrind-style analysis layer (paper §4.4's verification step,
automated): a **host-side lint** over built programs and their
argument bindings (:mod:`repro.analysis.lint`) and an opt-in **runtime
sanitizer** that executes kernels against shadow-memory guards
(:mod:`repro.analysis.sanitize`), both driven over the benchmark life
cycle by :func:`run_suite`.

Kernel bodies are checked on the **kernel IR**: an OpenCL C frontend
(:mod:`repro.analysis.frontend`), per-kernel control-flow graphs with
dominator analyses (:mod:`repro.analysis.cfg`), and an abstract
interpreter deriving symbolic memory footprints
(:mod:`repro.analysis.absint`).  :func:`run_deep_suite` backs the
``repro lint`` CLI subcommand: it layers the IR checks, the §4.4
addressed-vs-declared working-set verification and the trace and AIWC
differential gates on the lifecycle suite.  Every :class:`Finding`
lands in one :class:`Report`.

See docs/analysis.md for the check catalogue, severity semantics,
suppression directives and the JSON report schema.
"""

from .absint import (
    SLACK_PER_BUFFER,
    benchmark_strides,
    interpret_kernel,
    static_footprint,
    verify_benchmark_footprint,
)
from .accessmodel import (
    access_model_findings,
    classify_launch_sites,
    compare_benchmark_traces,
    resolve_access_trace,
    reuse_distance_summary,
    synthesize_trace,
)
from .deep import deep_analyze_benchmark, lint_cl_source, run_deep_suite
from .findings import (
    FAIL_ON_CHOICES,
    JSON_SCHEMA_VERSION,
    SEVERITIES,
    Finding,
    Report,
    default_severity,
    severity_rank,
)
from .frontend import CLSyntaxError, parse_source, tokenize
from .lint import lint_program
from .sanitize import GuardedNDArray, Sanitizer, sanitized
from .suite import DEFAULT_DEVICE, analyze_benchmark, run_suite

__all__ = [
    "CLSyntaxError",
    "DEFAULT_DEVICE",
    "FAIL_ON_CHOICES",
    "Finding",
    "GuardedNDArray",
    "JSON_SCHEMA_VERSION",
    "Report",
    "SEVERITIES",
    "SLACK_PER_BUFFER",
    "Sanitizer",
    "access_model_findings",
    "analyze_benchmark",
    "benchmark_strides",
    "classify_launch_sites",
    "compare_benchmark_traces",
    "deep_analyze_benchmark",
    "default_severity",
    "interpret_kernel",
    "lint_cl_source",
    "lint_program",
    "parse_source",
    "resolve_access_trace",
    "reuse_distance_summary",
    "run_deep_suite",
    "run_suite",
    "sanitized",
    "severity_rank",
    "static_footprint",
    "synthesize_trace",
    "tokenize",
    "verify_benchmark_footprint",
]
