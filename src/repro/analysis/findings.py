"""Finding model and reporting for the analysis suite.

Both passes — the static lint over OpenCL C sources and the runtime
sanitizer — emit :class:`Finding` records.  A :class:`Report` collects
them, renders text or JSON output, and decides the exit status of the
``repro lint`` CLI gate.  Each added finding also increments the
``analysis_findings_total`` telemetry counter so sweeps and CI can
track finding volume over time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

#: Severity levels, least to most severe.  ``info`` is purely
#: informational output (schema v2; e.g. stride-class reports);
#: ``note`` records something worth a look but idiomatic in simulation
#: (e.g. a wrapped negative index, legal numpy but out-of-bounds in
#: OpenCL C); ``warning`` is a likely defect that does not corrupt
#: results by itself; ``error`` is a correctness violation.
SEVERITIES = ("info", "note", "warning", "error")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: Version stamp of the JSON report schema (see docs/analysis.md).
#: v2 adds the ``info`` severity, per-check default severities and the
#: report-level ``extras`` object; every v1 field is unchanged, so v1
#: consumers parse v2 documents.
JSON_SCHEMA_VERSION = 2

#: ``--fail-on`` accepts any severity plus ``any`` (= every finding,
#: whatever its severity, trips the gate).
FAIL_ON_CHOICES = ("any",) + SEVERITIES

#: Default severity per check identifier (schema v2), and the catalogue
#: of check names ``repro lint --ignore`` accepts.  Checks absent from
#: the map default to ``warning``; emitters may still override per
#: finding (e.g. ``build-failure`` escalating a parse error).
DEFAULT_SEVERITIES: dict[str, str] = {
    # host-side lint (repro.analysis.lint)
    "build-failure": "error",
    "local-from-global": "error",
    "missing-kernel-body": "warning",
    "missing-cl-source": "note",
    # IR kernel checks (repro.analysis.deep)
    "constant-write": "error",
    "unused-param": "warning",
    "barrier-divergence": "warning",
    "uninit-local-var": "error",
    "constant-index-oob": "error",
    "unreachable-code": "warning",
    "reqd-work-group-size": "error",
    "footprint-mismatch": "error",
    "access-stride": "info",
    # access-model checks (repro.analysis.accessmodel)
    "data-race": "error",
    "uncoalesced-access": "warning",
    "bank-conflict": "warning",
    "trace-divergence": "error",
    "aiwc-divergence": "error",
    # runtime sanitizer / suite
    "scalar-dtype": "error",
    "validation-failure": "error",
    "run-failure": "error",
    "oob-access": "error",
    "kernel-abort": "error",
    "uninit-read": "warning",
    "use-after-release": "error",
    "buffer-leak": "warning",
    "queue-leak": "note",
}


def default_severity(check: str) -> str:
    """The schema-v2 default severity for a check identifier."""
    return DEFAULT_SEVERITIES.get(check, "warning")


@dataclass(frozen=True)
class Finding:
    """One defect located by a lint check or sanitizer probe.

    Parameters
    ----------
    check:
        Stable check identifier (``oob-access``, ``unused-param``, ...;
        the catalogue lives in docs/analysis.md).
    severity:
        One of :data:`SEVERITIES`.
    message:
        Human-readable description of the defect.
    benchmark, kernel, argument, location:
        Progressively finer location: the registered benchmark, the
        ``__kernel`` name, the parameter name, and a free-form element
        or argument position (``"element 132"``, ``"argument 3"``).
    hint:
        Suggested fix, when one is mechanical.
    """

    check: str
    severity: str
    message: str
    benchmark: str | None = None
    kernel: str | None = None
    argument: str | None = None
    location: str | None = None
    hint: str | None = None

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def rank(self) -> int:
        """Numeric severity (higher is worse)."""
        return _SEVERITY_RANK[self.severity]

    @property
    def where(self) -> str:
        """Joined location path, coarse to fine."""
        parts = [p for p in (self.benchmark, self.kernel, self.argument,
                             self.location) if p]
        return "/".join(parts) if parts else "<suite>"

    def format(self) -> str:
        """One-line text rendering (the ``repro lint`` output format)."""
        line = f"{self.severity}: [{self.check}] {self.where}: {self.message}"
        if self.hint:
            line += f" (hint: {self.hint})"
        return line

    def to_dict(self) -> dict:
        """JSON-ready mapping; unset location fields are omitted."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def severity_rank(severity: str) -> int:
    """Numeric rank of a severity name (for ``--fail-on`` thresholds).

    ``any`` ranks below every severity, so ``fails("any")`` trips on
    the first finding of whatever level.
    """
    if severity == "any":
        return 0
    try:
        return _SEVERITY_RANK[severity]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r}; expected one of {SEVERITIES}"
        ) from None


class Report:
    """An ordered collection of findings with rendering and gating.

    Parameters
    ----------
    emit_metrics:
        When true (the default), every added finding increments the
        ``analysis_findings_total`` counter in the process-global
        telemetry registry, tagged by check, severity and benchmark.
    """

    def __init__(self, emit_metrics: bool = True) -> None:
        self.findings: list[Finding] = []
        #: Structured non-finding payloads (schema v2): a JSON-ready
        #: mapping attached to the report, e.g. the per-benchmark
        #: access-stride classes from the deep pass.
        self.extras: dict = {}
        self._emit_metrics = emit_metrics

    # ------------------------------------------------------------------
    def add(self, finding: Finding) -> None:
        """Record one finding (and bump the telemetry counter)."""
        self.findings.append(finding)
        if self._emit_metrics:
            from ..telemetry.metrics import default_registry

            default_registry().counter(
                "analysis_findings_total",
                "Findings reported by the repro.analysis lint/sanitizer suite",
            ).inc(
                check=finding.check,
                severity=finding.severity,
                benchmark=finding.benchmark or "-",
            )

    def extend(self, findings: Iterable[Finding]) -> None:
        """Record findings in order (each through :meth:`add`)."""
        for finding in findings:
            self.add(finding)

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    # ------------------------------------------------------------------
    def count(self, severity: str | None = None) -> int:
        """Number of findings, optionally restricted to one severity."""
        if severity is None:
            return len(self.findings)
        return sum(1 for f in self.findings if f.severity == severity)

    def worst(self) -> str | None:
        """The most severe level present, or ``None`` when empty."""
        if not self.findings:
            return None
        return max(self.findings, key=lambda f: f.rank).severity

    def fails(self, fail_on: str = "error") -> bool:
        """Whether any finding meets the failure threshold."""
        threshold = severity_rank(fail_on)
        return any(f.rank >= threshold for f in self.findings)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {severity: self.count(severity) for severity in SEVERITIES}

    def render_text(self) -> str:
        """Multi-line report: findings (most severe first) + totals."""
        lines = [
            f.format()
            for f in sorted(self.findings, key=lambda f: -f.rank)
        ]
        counts = self.summary()
        lines.append(
            "analysis: "
            + ", ".join(f"{counts[s]} {s}(s)" for s in reversed(SEVERITIES))
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """JSON rendering (schema documented in docs/analysis.md).

        v2 keeps every v1 key; ``extras`` appears only when populated,
        so v1 consumers keep parsing v2 documents unchanged.

        Findings are emitted in a stable location-then-check order (and
        ``sort_keys`` orders every mapping), so two runs over the same
        inputs produce byte-identical documents that diff cleanly in
        CI, whatever order the passes discovered them in.
        """
        ordered = sorted(
            self.findings,
            key=lambda f: (f.benchmark or "", f.kernel or "",
                           f.argument or "", f.location or "",
                           f.check, f.severity, f.message),
        )
        document: dict = {
            "schema_version": JSON_SCHEMA_VERSION,
            "summary": self.summary(),
            "findings": [f.to_dict() for f in ordered],
        }
        if self.extras:
            document["extras"] = self.extras
        return json.dumps(document, indent=2, sort_keys=True)
