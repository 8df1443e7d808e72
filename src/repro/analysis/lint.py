"""Host-side lint over built programs and their argument bindings.

The checks target the host/kernel boundary the paper's curation fought
(§4.4): kernels that carry no OpenCL C source, ``__kernel`` functions
the program registers no Python body for, and ``__local`` parameters
fed from global buffers.  Everything inside a kernel body is checked
on the typed IR instead (:mod:`repro.analysis.deep`), and the runtime
complement lives in :mod:`repro.analysis.sanitize`.
"""

from __future__ import annotations

from ..ocl.clsource import CLSourceError, kernel_suppressions, parse_kernels
from ..ocl.memory import Buffer
from ..ocl.program import Program
from .findings import Finding


def _suppressed(allows: set, check: str, name: str | None = None) -> bool:
    """Whether ``// repro-lint: allow(...)`` covers this finding."""
    return (check, None) in allows or (name is not None and (check, name) in allows)


def build_failure(exc: CLSourceError, benchmark: str | None) -> Finding:
    """The finding for OpenCL C source that does not parse."""
    return Finding(
        check="build-failure", severity="error", benchmark=benchmark,
        message=f"OpenCL C source failed to parse: {exc}",
    )


# ---------------------------------------------------------------------------
def lint_program(program: Program, benchmark: str | None = None) -> list[Finding]:
    """Lint the kernel sources and host bindings of a built program."""
    findings: list[Finding] = []
    python_bodies = set(program.kernel_names)
    seen_sources: set[str] = set()

    for src in program._sources:
        if src.cl_source is None:
            findings.append(Finding(
                check="missing-cl-source", severity="note",
                benchmark=benchmark, kernel=src.name,
                message="kernel has a Python body but carries no OpenCL C "
                        "source; signature checks cannot run",
                hint="attach the .cl text via KernelSource(cl_source=...)",
            ))
            continue
        if src.cl_source in seen_sources:
            continue  # several kernels sharing one .cl file
        seen_sources.add(src.cl_source)
        findings.extend(
            _orphan_kernels(src.cl_source, python_bodies, benchmark)
        )

    findings.extend(_lint_bound_args(program, benchmark))
    return findings


def _orphan_kernels(
    source: str, python_bodies: set[str], benchmark: str | None
) -> list[Finding]:
    """Flag ``__kernel`` functions with no registered Python body.

    A kernel shipped in ``.cl`` that the simulation never executes
    drifts silently from the code that does run.
    """
    try:
        signatures = parse_kernels(source)
    except CLSourceError as exc:
        return [build_failure(exc, benchmark)]
    suppressions = kernel_suppressions(source)
    return [
        Finding(
            check="missing-kernel-body", severity="warning",
            benchmark=benchmark, kernel=name,
            message="__kernel is declared in the OpenCL C source but the "
                    "program registers no Python body for it",
            hint="register a KernelSource of the same name, or drop the "
                 "kernel from the .cl source",
        )
        for name in signatures
        if name not in python_bodies
        and not _suppressed(suppressions.get(name, set()), "missing-kernel-body")
    ]


def _lint_bound_args(program: Program, benchmark: str | None) -> list[Finding]:
    """Cross-check host-side ``set_args`` bindings against signatures.

    Scalar dtype mismatches raise at ``set_arg`` time; what remains to
    lint is address-space misuse the runtime tolerates, i.e. a
    ``__local`` pointer fed from a global :class:`Buffer` (real OpenCL
    passes only a *size* for ``__local`` parameters).
    """
    findings: list[Finding] = []
    for kernel in program._kernels:
        if kernel.signature is None or kernel._args is None:
            continue
        for index, param in enumerate(kernel.signature.params):
            if index >= len(kernel._args):
                break
            value = kernel._args[index]
            if (
                param.is_pointer
                and param.address_space == "local"
                and isinstance(value, Buffer)
            ):
                findings.append(Finding(
                    check="local-from-global", severity="error",
                    benchmark=benchmark, kernel=kernel.name,
                    argument=param.name, location=f"argument {index}",
                    message="a global Buffer is bound to a __local pointer "
                            "parameter; OpenCL passes __local arguments as a "
                            "size, not a buffer",
                    hint="bind the scratch size instead, or change the "
                         "parameter's address space",
                ))
    return findings
