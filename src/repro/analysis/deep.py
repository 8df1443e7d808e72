"""Deep (IR-exact) analysis: the engine behind ``repro lint --deep``.

The shallow pass in :mod:`repro.analysis.lint` works on the kernel
source *text* — fast, but its ``unused-param`` and
``barrier-divergence`` checks are regex approximations.  This module
re-implements both on the typed IR (:mod:`repro.analysis.frontend` →
:mod:`repro.analysis.cfg`), adds checks only an IR can express
(definite assignment, constant-index bounds, reachability,
``reqd_work_group_size`` vs the host's enqueue), and runs the paper's
§4.4 working-set verification: each benchmark's symbolic global-memory
footprint (:mod:`repro.analysis.absint`) is cross-checked against its
runtime ``footprint_bytes()`` at every size preset.

Deep mode *composes* with the shallow suite: :func:`run_deep_suite`
runs the full lifecycle suite with the superseded regex checks
ignored, then layers the IR findings and the footprint cross-check on
top, so one report gates CI end to end.
"""

from __future__ import annotations

from ..dwarfs import registry
from ..dwarfs.base import StaticLaunchModel
from ..ocl.clsource import CLSourceError, kernel_suppressions
from .absint import model_ir, static_footprint, verify_benchmark_footprint
from .accessmodel import (
    access_model_findings,
    compare_benchmark_traces,
    reuse_distance_summary,
)
from .cfg import (
    constant_index_oob,
    divergent_barriers,
    uninitialized_uses,
    unreachable_statements,
    used_names,
)
from .findings import Finding, Report, default_severity
from .frontend import KernelDef
from .suite import DEFAULT_DEVICE, run_suite

#: Shallow regex checks replaced by their IR-exact versions in deep
#: mode (the regex findings are dropped from the composed report so a
#: defect is never double-counted).
SUPERSEDED_CHECKS = ("unused-param", "barrier-divergence")


def _suppressed(allows: set, check: str, name: str | None = None) -> bool:
    """Whether ``// repro-lint: allow(...)`` covers this finding."""
    return (check, None) in allows or (
        name is not None and (check, name) in allows
    )


def _int_macros(macros: dict[str, float]) -> dict[str, int]:
    """The integer-valued subset of a launch model's build macros."""
    return {
        name: int(value)
        for name, value in macros.items()
        if float(value) == int(value)
    }


def _padded(size: tuple[int, ...]) -> tuple[int, int, int]:
    """A work-group size padded to three dimensions."""
    full = tuple(size) + (1,) * (3 - len(size))
    return (full[0], full[1], full[2])


# ---------------------------------------------------------------------------
# IR checks over one kernel
# ---------------------------------------------------------------------------
def deep_lint_kernel(
    kernel: KernelDef,
    allows: set,
    benchmark: str | None = None,
    macros: dict[str, int] | None = None,
    launch_locals: list[tuple[int, ...] | None] | None = None,
) -> list[Finding]:
    """IR-exact checks for one parsed kernel.

    ``launch_locals`` lists the host's work-group size per enqueue of
    this kernel (``None`` for the runtime default) and feeds the
    ``reqd-work-group-size`` cross-check.  Kernels with an elided body
    (documentation-only sources) skip the body-dependent checks.
    """
    findings: list[Finding] = []
    name = kernel.name
    has_body = bool(kernel.body.stmts)

    if has_body:
        uses = used_names(kernel)
        for index, param in enumerate(kernel.params):
            if param.name in uses:
                continue
            if _suppressed(allows, "unused-param", param.name):
                continue
            findings.append(Finding(
                check="unused-param",
                severity=default_severity("unused-param"),
                benchmark=benchmark, kernel=name, argument=param.name,
                location=f"argument {index}",
                message=f"kernel parameter {param.name!r} is never used "
                        "(IR use-def)",
                hint="remove the parameter (and its host-side set_arg) or "
                     "suppress with // repro-lint: allow(unused-param: "
                     f"{param.name})",
            ))

        if not _suppressed(allows, "barrier-divergence"):
            for line in divergent_barriers(kernel):
                findings.append(Finding(
                    check="barrier-divergence",
                    severity=default_severity("barrier-divergence"),
                    benchmark=benchmark, kernel=name,
                    location=f"line {line}",
                    message="barrier() is control-dependent on a "
                            "work-item-variant branch; not every work item "
                            "of a group reaches it (post-dominator exact)",
                    hint="hoist the barrier out of the divergent branch",
                ))

        if not _suppressed(allows, "unreachable-code"):
            for line in unreachable_statements(kernel):
                findings.append(Finding(
                    check="unreachable-code",
                    severity=default_severity("unreachable-code"),
                    benchmark=benchmark, kernel=name,
                    location=f"line {line}",
                    message="statement is unreachable from kernel entry",
                    hint="delete the dead statement or fix the control flow "
                         "above it",
                ))

        for var, line in uninitialized_uses(kernel):
            if _suppressed(allows, "uninit-local-var", var):
                continue
            findings.append(Finding(
                check="uninit-local-var",
                severity=default_severity("uninit-local-var"),
                benchmark=benchmark, kernel=name, argument=var,
                location=f"line {line}",
                message=f"local variable {var!r} may be read before any "
                        "assignment",
                hint="initialise the variable at its declaration",
            ))

        for array, line, index_val, extent in constant_index_oob(
            kernel, macros or {}
        ):
            if _suppressed(allows, "constant-index-oob", array):
                continue
            findings.append(Finding(
                check="constant-index-oob",
                severity=default_severity("constant-index-oob"),
                benchmark=benchmark, kernel=name, argument=array,
                location=f"line {line}",
                message=f"constant subscript {index_val} is out of bounds "
                        f"for local array {array!r} of extent {extent}",
                hint="fix the index or grow the array",
            ))

    if (
        kernel.reqd_work_group_size is not None
        and launch_locals is not None
        and not _suppressed(allows, "reqd-work-group-size")
    ):
        reqd = kernel.reqd_work_group_size
        for local in launch_locals:
            if local is None:
                findings.append(Finding(
                    check="reqd-work-group-size",
                    severity=default_severity("reqd-work-group-size"),
                    benchmark=benchmark, kernel=name,
                    message="kernel declares "
                            f"reqd_work_group_size{reqd} but the host "
                            "enqueues with no explicit work-group size "
                            "(CL_INVALID_WORK_GROUP_SIZE on a real device)",
                    hint="pass the declared size as local_size at enqueue",
                ))
                break
            if _padded(local) != reqd:
                findings.append(Finding(
                    check="reqd-work-group-size",
                    severity=default_severity("reqd-work-group-size"),
                    benchmark=benchmark, kernel=name,
                    message="host enqueues work-group size "
                            f"{_padded(local)} but the kernel declares "
                            f"reqd_work_group_size{reqd}",
                    hint="make the enqueue local size match the attribute",
                ))
                break
    return findings


# ---------------------------------------------------------------------------
# Launch-model driver: one benchmark
# ---------------------------------------------------------------------------
def deep_lint_model(
    model: StaticLaunchModel, benchmark: str | None = None
) -> list[Finding]:
    """IR checks over every kernel of one static launch model."""
    findings: list[Finding] = []
    try:
        kernels = model_ir(model).kernels
    except CLSourceError as exc:
        findings.append(Finding(
            check="build-failure", severity="error", benchmark=benchmark,
            message=f"OpenCL C source failed to parse: {exc}",
        ))
        return findings
    suppressions = kernel_suppressions(model.source)
    macros = _int_macros(dict(model.macros))

    launch_locals: dict[str, list[tuple[int, ...] | None]] = {}
    for launch in model.launches:
        launch_locals.setdefault(launch.kernel, []).append(launch.local_size)

    for kernel in kernels:
        findings.extend(deep_lint_kernel(
            kernel,
            suppressions.get(kernel.name, set()),
            benchmark=benchmark,
            macros=macros,
            launch_locals=launch_locals.get(kernel.name),
        ))
    findings.extend(access_model_findings(
        model, benchmark=benchmark, suppressions=suppressions))
    return findings


def deep_analyze_benchmark(
    name: str, sizes: tuple[str, ...] | None = None
) -> tuple[list[Finding], dict]:
    """Deep-analyse one registered benchmark.

    Runs the IR checks over the benchmark's static launch model and
    cross-checks the symbolic working set against ``footprint_bytes()``
    at each requested size preset (all available sizes by default).
    Returns ``(findings, extras)`` where ``extras`` holds the JSON
    payload for the report: per-kernel stride classes and the
    per-size footprint comparison.
    """
    cls = registry.get_benchmark(name)
    available = cls.available_sizes()
    if sizes is None:
        sizes = available
    bench = cls.from_size(available[0])
    model = bench.static_launches()
    if model is None:
        return [], {}

    findings = deep_lint_model(model, benchmark=name)
    extras: dict = {
        "strides": static_footprint(model).strides,
        "footprint": {},
        "reuse": reuse_distance_summary(model),
    }

    for size in sizes:
        comparison = verify_benchmark_footprint(name, size)
        if comparison is None:
            continue
        extras["footprint"][size] = {
            "static_bytes": comparison.static_bytes,
            "runtime_bytes": comparison.runtime_bytes,
            "delta": comparison.delta,
            "slack_bytes": comparison.slack_bytes,
            "fallbacks": list(comparison.fallbacks),
            "ok": comparison.ok,
        }
        if not comparison.ok:
            findings.append(Finding(
                check="footprint-mismatch",
                severity=default_severity("footprint-mismatch"),
                benchmark=name, location=f"size {size}",
                message="symbolic working set "
                        f"({comparison.static_bytes} B) disagrees with "
                        f"runtime footprint_bytes() "
                        f"({comparison.runtime_bytes} B) by "
                        f"{comparison.delta:+d} B, beyond the "
                        f"{comparison.slack_bytes} B alignment slack",
                hint="the static launch model or the footprint formula is "
                     "wrong; reconcile them (docs/analysis.md, §4.4)",
            ))
    return findings, extras


# ---------------------------------------------------------------------------
# The composed suite
# ---------------------------------------------------------------------------
def run_deep_suite(
    benchmarks: list[str] | None = None,
    size: str | None = None,
    sanitize: bool = False,
    device_name: str = DEFAULT_DEVICE,
    ignore: tuple[str, ...] = (),
    emit_metrics: bool = True,
    traces: bool = False,
    aiwc: bool = False,
) -> Report:
    """Shallow suite plus IR checks plus the §4.4 footprint gate.

    The shallow pass runs with its regex ``unused-param`` and
    ``barrier-divergence`` ignored (the IR versions subsume them); the
    deep findings honour the caller's ``ignore`` the same way the
    shallow ones do.  Per-benchmark stride classes, footprint
    comparisons and reuse-distance summaries land in ``Report.extras``.

    ``traces`` adds the differential trace gate: for every benchmark
    the IR-synthesised trace is cross-checked against the hand-authored
    one (footprint span, indirect access, touched cache lines) at each
    size preset, emitting ``trace-divergence`` findings on disagreement
    and the comparison table under ``extras["trace_differential"]``.

    ``aiwc`` adds the AIWC differential gate: the static workload
    characterization (:mod:`repro.analysis.staticaiwc`) is compared
    metric-by-metric against the dynamic one at each size preset,
    emitting ``aiwc-divergence`` findings beyond the tolerance bands
    and both vectors under ``extras["aiwc_differential"]``.
    """
    report = run_suite(
        benchmarks=benchmarks,
        size=size,
        sanitize=sanitize,
        device_name=device_name,
        ignore=tuple(set(ignore) | set(SUPERSEDED_CHECKS)),
        emit_metrics=emit_metrics,
    )
    if benchmarks is None:
        benchmarks = [*registry.BENCHMARKS, *registry.EXTENSIONS]
    ignored = set(ignore)
    strides: dict = {}
    footprints: dict = {}
    reuse: dict = {}
    differential: dict = {}
    aiwc_differential: dict = {}
    for name in benchmarks:
        sizes = None if size is None else (size,)
        findings, extras = deep_analyze_benchmark(name, sizes=sizes)
        if traces:
            trace_findings, table = compare_benchmark_traces(
                name, sizes=sizes)
            findings.extend(trace_findings)
            if table:
                differential[name] = table
        if aiwc:
            from .staticaiwc import compare_benchmark_aiwc

            aiwc_findings, aiwc_table = compare_benchmark_aiwc(
                name, sizes=sizes)
            findings.extend(aiwc_findings)
            if aiwc_table:
                aiwc_differential[name] = aiwc_table
        for finding in findings:
            if finding.check not in ignored:
                report.add(finding)
        if extras.get("strides"):
            strides[name] = extras["strides"]
        if extras.get("footprint"):
            footprints[name] = extras["footprint"]
        if extras.get("reuse"):
            reuse[name] = extras["reuse"]
    if strides:
        report.extras["access_strides"] = strides
    if footprints:
        report.extras["footprint_verification"] = footprints
    if reuse:
        report.extras["reuse_distance"] = reuse
    if differential:
        report.extras["trace_differential"] = differential
    if aiwc_differential:
        report.extras["aiwc_differential"] = aiwc_differential
    return report
