"""Static AIWC: the full workload-characterization vector from the IR.

Sixth stage of the kernel IR pipeline.  The dynamic AIWC stage
(:mod:`repro.aiwc.metrics`) derives its feature vector from
hand-authored :class:`~repro.perfmodel.characterization.KernelProfile`
numbers; this module computes the *same* :class:`AIWCMetrics` vector
purely statically from a :class:`~repro.dwarfs.base.StaticLaunchModel`:

* **compute group** — the abstract interpreter's per-statement
  :class:`~repro.analysis.absint.OpEvent` stream (fp vs int vs chain
  ops classified from the typed AST), weighted by interval-derived
  trip counts and guard-occupancy fractions, then multiplied by each
  launch's NDRange;
* **parallelism group** — NDRange sizes and launch counts straight
  from the model, chain work from loop-carried dependence detection;
* **memory group** — :func:`repro.analysis.accessmodel.classify_launch_sites`
  site extents and stride classes replace the synthetic traces, and
  the unique footprint comes from
  :func:`repro.analysis.absint.static_footprint`;
* **control group** — guard dependence ranks bound the divergent-op
  share, capped by the CFG-level
  :func:`repro.analysis.cfg.branch_entropy_bound`.

The **differential gate** (part of ``repro lint``) compares the static
vector against the dynamic one per metric with per-group tolerance
bands and emits ``aiwc-divergence`` findings — the static analogue of
the trace gate, keeping the two characterization sources honest
against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..ocl.clsource import CLSourceError, kernel_suppressions
from .absint import (
    Guard,
    KernelSummary,
    OpEvent,
    _launch_env,
    model_ir,
    static_footprint,
    sym_eval,
)
from .accessmodel import AccessSite, classify_launch_sites
from .cfg import branch_entropy_bound, sync_phases
from .findings import Finding, default_severity

#: Per-metric divergence scale: a static-vs-dynamic difference equal to
#: the scale scores 1.0 (the finding threshold).  Log-domain metrics
#: (``*_log``, ``opcode_total``, ``granularity``) tolerate about an
#: order of magnitude; fractions roughly half their range; arithmetic
#: intensity is compared in log10(1 + x) space.
METRIC_SCALES: dict[str, float] = {
    "opcode_total": 1.25,
    "fp_fraction": 0.55,
    "arithmetic_intensity": 0.8,
    "work_items_log": 0.75,
    "granularity": 1.25,
    "serial_fraction": 0.55,
    "launch_intensity": 0.5,
    "memory_entropy": 1.1,
    "unique_footprint_log": 1.0,
    "branch_fraction": 0.45,
}

#: AIWC metric groups (mirrors the AIWCMetrics docstring grouping).
METRIC_GROUPS: dict[str, tuple[str, ...]] = {
    "compute": ("opcode_total", "fp_fraction", "arithmetic_intensity"),
    "parallelism": ("work_items_log", "granularity", "serial_fraction",
                    "launch_intensity"),
    "memory": ("memory_entropy", "unique_footprint_log"),
    "control": ("branch_fraction",),
}

#: metric -> group reverse map.
GROUP_OF: dict[str, str] = {
    metric: group
    for group, metrics in METRIC_GROUPS.items()
    for metric in metrics
}

#: Per-group band multiplier applied on top of the metric scales; all
#: 1.0 today, kept explicit so a group can be loosened without touching
#: every metric in it.
GROUP_BANDS: dict[str, float] = {
    "compute": 1.0, "parallelism": 1.0, "memory": 1.0, "control": 1.0,
}

#: Metrics compared in ``log10(1 + x)`` space because their raw range
#: spans orders of magnitude (everything else is already a log or a
#: bounded fraction).
_LOG_COMPARED = frozenset({"arithmetic_intensity"})

#: Arithmetic intensity saturates here before comparison: every device
#: in the catalog has its roofline ridge far below 256 FLOPs/byte, so
#: past this point any value means "compute bound" and differences
#: carry no architectural information (gem's pairwise kernel reaches
#: tens of thousands).
AI_SATURATION = 256.0


# ---------------------------------------------------------------------------
# Guard occupancy
# ---------------------------------------------------------------------------


def guard_fraction(guard: Guard, env: dict[str, float]) -> float:
    """Fraction of the guarded interval that satisfies the comparison.

    An op behind ``if (gid % w == 0)`` executes on ``1/w`` of the
    lanes; the static op count scales accordingly.  The fraction is
    estimated from the interval endpoints under the launch env: an
    infeasible guard contributes 0, an unbounded or indirect operand
    contributes 1 (no information), otherwise the satisfied share of
    the left operand's integer span against the right operand's
    midpoint.
    """
    if not guard.feasible(env):
        return 0.0
    a1 = sym_eval(guard.lhs.lo, env)
    a2 = sym_eval(guard.lhs.hi, env)
    b1 = sym_eval(guard.rhs.lo, env)
    b2 = sym_eval(guard.rhs.hi, env)
    if not (math.isfinite(a1) and math.isfinite(a2)):
        return 1.0
    span = a2 - a1 + 1.0
    if span <= 1.0:
        return 1.0  # point operand and feasible: always satisfied
    if not (math.isfinite(b1) and math.isfinite(b2)):
        return 1.0
    b = (b1 + b2) / 2.0
    op = guard.op
    if op == "==":
        frac = 1.0 / span
    elif op == "!=":
        frac = 1.0 - 1.0 / span
    elif op == "<":
        frac = (b - a1) / span
    elif op == "<=":
        frac = (b - a1 + 1.0) / span
    elif op == ">":
        frac = (a2 - b) / span
    elif op == ">=":
        frac = (a2 - b + 1.0) / span
    else:
        return 1.0
    return min(1.0, max(0.0, frac))


# ---------------------------------------------------------------------------
# Trip-count resolution
# ---------------------------------------------------------------------------


def _param_elem_sizes(summary: KernelSummary) -> dict[str, int]:
    """Element size per accessed buffer parameter (from the accesses)."""
    sizes: dict[str, int] = {}
    for access in summary.accesses:
        sizes[access.param] = max(sizes.get(access.param, 0),
                                  access.elem_size)
    return sizes


def resolve_trips(summary: KernelSummary, launch: object, model: object,
                  env: dict[str, float]) -> dict[str, float]:
    """Bind each ``__trip<n>`` symbol for one launch.

    A data-dependent loop (``for (i = row_ptr[gid]; i < row_ptr[gid+1];
    ...)``) walks a segment of some buffer; the partition heuristic
    prices its trip count as the largest candidate buffer's element
    count divided by the launch's total work items (CSR rows split the
    nnz array, CRC pages split the page matrix, BFS vertices split the
    edge list), never less than one iteration.
    """
    if not summary.trip_buffers:
        return {}
    work_items = 1.0
    for extent in launch.global_size:  # type: ignore[attr-defined]
        work_items *= max(float(extent), 1.0)
    elem_sizes = _param_elem_sizes(summary)
    bindings = launch.buffers  # type: ignore[attr-defined]
    buffers = model.buffers  # type: ignore[attr-defined]
    out: dict[str, float] = {}
    for sym, candidates in summary.trip_buffers.items():
        elems = 0.0
        for param in candidates:
            bound = bindings.get(param)
            if bound is None:
                continue
            key, offset = bound
            nbytes = max(float(buffers[key].nbytes) - float(offset), 0.0)
            elems = max(elems, nbytes / max(elem_sizes.get(param, 4), 1))
        out[sym] = max(1.0, elems / work_items) if elems else 1.0
    return out


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass
class _KernelAgg:
    """Per-kernel accumulator across the launches that enqueue it."""

    fp: float = 0.0
    int_ops: float = 0.0
    chain: float = 0.0
    divergent: float = 0.0
    launches: int = 0
    max_items: float = 1.0
    total_items: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    working_set: float = 0.0
    class_bytes: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])

    @property
    def total_ops(self) -> float:
        """All statically counted operations (fp + int + chain)."""
        return self.fp + self.int_ops + self.chain


def _op_total(op: OpEvent, env: dict[str, float], work_items: float) -> float:
    """One op event's total count under a launch env (0 if guarded off)."""
    frac = 1.0
    for g in op.guards:
        frac *= guard_fraction(g, env)
        if frac == 0.0:
            return 0.0
    weight = sym_eval(op.weight, env)
    if not math.isfinite(weight):
        weight = 1.0
    return max(weight, 0.0) * frac * work_items


def _site_extent_bytes(site: AccessSite, launch: object,
                       model: object) -> float:
    """Byte extent of one global access site, clamped to its buffer."""
    bound = launch.buffers.get(site.param)  # type: ignore[attr-defined]
    if bound is None:
        return 0.0
    key, offset = bound
    avail = max(float(model.buffers[key].nbytes) - float(offset), 0.0)  # type: ignore[attr-defined]
    if site.stride == "indirect" or not math.isfinite(site.hi):
        return avail
    lo = max(site.lo, 0.0)
    extent = (site.hi - lo + 1.0) * site.elem_size
    return min(max(extent, 0.0), avail)


def _class_split(stride: str,
                 coeff: int | None) -> tuple[float, float, float]:
    """(seq, strided, random) traffic split of one access pattern."""
    if stride in ("unit", "uniform"):
        return (1.0, 0.0, 0.0)
    if stride == "indirect":
        return (0.0, 0.0, 1.0)
    if coeff is not None:
        return (0.0, 1.0, 0.0)
    # nonlinear index (blocked/transposed sweeps): no single stride
    # class captures it; spread evenly like AIWC's mixed bucket
    third = 1.0 / 3.0
    return (third, third, third)


def _accumulate_launch(agg: _KernelAgg, summary: KernelSummary,
                       launch: object, model: object,
                       env: dict[str, float]) -> None:
    """Fold one launch's ops and memory accesses into its kernel's agg.

    Traffic is priced per raw access as ``min(extent, touched)``:
    ``extent`` is the byte span the index interval addresses (clamped
    to the bound buffer) and ``touched`` is the access count —
    trip weight x guard occupancy x NDRange x element size.  A
    wavefront kernel whose indices span the whole matrix is charged
    only the band its launch touches; a broadcast read collapses to
    one element.  The working set stays extent-based (merged sites):
    it prices residency, not volume.
    """
    work_items = 1.0
    for extent in launch.global_size:  # type: ignore[attr-defined]
        work_items *= max(float(extent), 1.0)
    agg.launches += 1
    agg.max_items = max(agg.max_items, work_items)
    agg.total_items += work_items
    for op in summary.ops:
        total = _op_total(op, env, work_items)
        if total <= 0.0:
            continue
        if op.chain:
            agg.chain += total
        elif op.kind == "fp":
            agg.fp += total
        else:
            agg.int_ops += total
        if op.divergent:
            agg.divergent += total

    from .absint import stride_class

    for access in summary.accesses:
        if access.space != "global":
            continue
        bound = launch.buffers.get(access.param)  # type: ignore[attr-defined]
        if bound is None:
            continue
        key, offset = bound
        avail = max(float(model.buffers[key].nbytes) - float(offset), 0.0)  # type: ignore[attr-defined]
        if avail <= 0.0:
            continue
        frac = 1.0
        for g in access.guards:
            frac *= guard_fraction(g, env)
            if frac == 0.0:
                break
        if frac == 0.0:
            continue
        lo = sym_eval(access.index.lo, env)
        hi = sym_eval(access.index.hi, env)
        cls = stride_class(access.index.dep)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            cls = "indirect"
            extent = avail
        else:
            extent = min(
                max((hi - max(lo, 0.0) + 1.0) * access.elem_size, 0.0),
                avail)
        if extent <= 0.0:
            continue
        weight = sym_eval(access.weight, env)
        if not math.isfinite(weight):
            weight = 1.0
        touched = max(weight, 0.0) * frac * work_items * access.elem_size
        traffic = min(extent, touched)
        if traffic <= 0.0:
            continue
        if access.is_write:
            agg.bytes_written += traffic
        else:
            agg.bytes_read += traffic
        dep = access.index.dep
        coeff = int(dep[1]) if dep[0] == "affine" else None
        seq, strided, random = _class_split(cls, coeff)
        agg.class_bytes[0] += traffic * seq
        agg.class_bytes[1] += traffic * strided
        agg.class_bytes[2] += traffic * random

    launch_extent = 0.0
    for site in classify_launch_sites(summary, env):
        if site.space != "global":
            continue
        launch_extent += _site_extent_bytes(site, launch, model)
    agg.working_set = max(agg.working_set, launch_extent)


# ---------------------------------------------------------------------------
# Characterization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticCharacterization:
    """Static AIWC result: the vector plus per-kernel diagnostics."""

    metrics: object  # AIWCMetrics (typed loosely to avoid an import cycle)
    per_kernel: dict[str, dict[str, float]]
    footprint_bytes: float


def _aggregate(model: object) -> dict[str, _KernelAgg]:
    """Per-kernel op and traffic totals over every launch of a model."""
    ir = model_ir(model)
    aggs: dict[str, _KernelAgg] = {}
    for launch in model.launches:  # type: ignore[attr-defined]
        summary = ir.summary(launch.kernel)
        env = _launch_env(launch)
        for macro, value in dict(model.macros).items():  # type: ignore[attr-defined]
            env.setdefault(macro, float(value))
        env.update(resolve_trips(summary, launch, model, env))
        agg = aggs.setdefault(launch.kernel, _KernelAgg())
        _accumulate_launch(agg, summary, launch, model, env)
    return aggs


def characterize_model(model: object, name: str = "kernel",
                       dwarf: str = "static") -> StaticCharacterization:
    """Compute the static AIWC vector of a static launch model.

    Mirrors :func:`repro.aiwc.metrics.characterize` formula by formula,
    with every input derived from the IR: op totals from weighted
    :class:`OpEvent` streams, traffic and pattern mix from classified
    access sites, the footprint from the symbolic §4.4 evaluation, and
    the branch share zeroed when the CFG proves no data-dependent
    branch exists (:func:`branch_entropy_bound` = 0 everywhere).
    """
    from ..aiwc.metrics import AIWCMetrics, pattern_entropy_from_weights

    aggs = _aggregate(model)
    fp = sum(a.fp for a in aggs.values())
    int_ops = sum(a.int_ops for a in aggs.values())
    chain = sum(a.chain for a in aggs.values())
    divergent = sum(a.divergent for a in aggs.values())
    total_ops = fp + int_ops + chain
    bytes_total = sum(a.bytes_read + a.bytes_written for a in aggs.values())
    launches = sum(a.launches for a in aggs.values())
    max_items = max((a.max_items for a in aggs.values()), default=1.0)
    class_bytes = [
        sum(a.class_bytes[i] for a in aggs.values()) for i in range(3)
    ]
    footprint = float(static_footprint(model).total_bytes)

    kernels = {k.name: k for k in model_ir(model).kernels}
    entropy_bits = sum(
        branch_entropy_bound(kernels[kname]) for kname in aggs
    )
    branch = divergent / total_ops if total_ops else 0.0
    if entropy_bits == 0.0:
        branch = 0.0

    per_kernel = {
        kname: {
            "flops": agg.fp,
            "int_ops": agg.int_ops,
            "chain_ops": agg.chain,
            "divergent_ops": agg.divergent,
            "launches": float(agg.launches),
            "work_items": agg.max_items,
            "bytes_read": agg.bytes_read,
            "bytes_written": agg.bytes_written,
            "branch_entropy_bits": branch_entropy_bound(kernels[kname]),
            "sync_phases": float(sync_phases(kernels[kname])),
        }
        for kname, agg in aggs.items()
    }

    metrics = AIWCMetrics(
        benchmark=name,
        dwarf=dwarf,
        opcode_total=math.log10(max(total_ops, 1.0)),
        fp_fraction=fp / total_ops if total_ops else 0.0,
        arithmetic_intensity=fp / bytes_total if bytes_total else 0.0,
        work_items_log=math.log10(max(max_items, 1.0)),
        granularity=math.log10(
            max(total_ops / max(max_items * launches, 1.0), 1.0)),
        serial_fraction=min(chain / total_ops, 1.0) if total_ops else 0.0,
        launch_intensity=math.log10(max(launches, 1)),
        memory_entropy=pattern_entropy_from_weights(class_bytes),
        unique_footprint_log=math.log10(max(footprint, 1.0)),
        branch_fraction=float(branch),
    )
    return StaticCharacterization(
        metrics=metrics, per_kernel=per_kernel, footprint_bytes=footprint)


def characterize_static(bench: object) -> object:
    """Static AIWC vector of a sized benchmark (no dynamic profile)."""
    return characterize_model(
        bench.static_launches(),  # type: ignore[attr-defined]
        name=bench.name, dwarf=bench.dwarf).metrics  # type: ignore[attr-defined]


def characterize_suite_static(size: str = "large") -> list:
    """Static vectors for every registered benchmark at a size preset.

    Mirrors :func:`repro.aiwc.metrics.characterize_suite` (falling back
    to each benchmark's largest preset) but over the paper set *and*
    the extensions, since the static path needs no hand-written
    profile.
    """
    from ..dwarfs import registry

    out = []
    for cls in {**registry.BENCHMARKS, **registry.EXTENSIONS}.values():
        use = size if size in cls.presets else cls.available_sizes()[-1]
        out.append(characterize_static(cls.from_size(use)))
    return out


def model_from_source(source: str, global_size: int = 1024,
                      buffer_elems: int = 1024) -> object:
    """A default launch model for a bare ``.cl`` source.

    Lets ``repro aiwc --static FILE.cl`` characterize a user-supplied
    kernel that ships no host program: every kernel with a body gets
    one launch of ``global_size`` work items, each global/constant
    pointer parameter is bound to a fresh ``buffer_elems``-element
    buffer of its declared element type, and every scalar parameter
    defaults to ``buffer_elems`` (the conventional "problem size"
    argument).  Raises :class:`~repro.ocl.clsource.CLSourceError` when
    the source does not parse.
    """
    from ..dwarfs.base import StaticBuffer, StaticLaunch, StaticLaunchModel
    from .frontend import type_sizeof

    bare = StaticLaunchModel(source=source, buffers={}, launches=())
    buffers: dict[str, StaticBuffer] = {}
    launches: list[StaticLaunch] = []
    for kernel in model_ir(bare).kernels:
        if not kernel.body.stmts:
            continue
        bound: dict[str, tuple[str, int]] = {}
        scalars: dict[str, float] = {}
        for param in kernel.params:
            if param.is_buffer:
                key = f"{kernel.name}.{param.name}"
                elem = max(type_sizeof(param.type_name), 1)
                buffers[key] = StaticBuffer(
                    key=key, nbytes=buffer_elems * elem)
                bound[param.name] = (key, 0)
            elif not param.is_pointer:
                scalars[param.name] = float(buffer_elems)
        launches.append(StaticLaunch(
            kernel=kernel.name, global_size=(global_size,),
            scalars=scalars, buffers=bound))
    if not launches:
        raise CLSourceError("source defines no kernel with a body")
    return StaticLaunchModel(source=source, buffers=buffers,
                             launches=tuple(launches))


# ---------------------------------------------------------------------------
# Static kernel profiles (the scheduler path)
# ---------------------------------------------------------------------------


def profiles_from_model(model: object) -> list:
    """Synthesize :class:`KernelProfile` objects from the IR.

    The inverse of :func:`repro.aiwc.metrics.characterize`'s
    aggregation: per-kernel op/byte totals are divided back into
    per-launch averages so the analytic roofline model and the
    scheduler can price a kernel that has never run.  Ordered by first
    launch for determinism.
    """
    from ..perfmodel.characterization import KernelProfile

    profiles = []
    for kname, agg in _aggregate(model).items():
        launches = max(agg.launches, 1)
        total = agg.total_ops
        class_total = sum(agg.class_bytes)
        if class_total > 0:
            seq = agg.class_bytes[0] / class_total
            strided = agg.class_bytes[1] / class_total
            random = max(1.0 - seq - strided, 0.0)
        else:
            seq, strided, random = 1.0, 0.0, 0.0
        chain_ops = (agg.chain / (agg.max_items * launches)
                     if agg.chain else 0.0)
        branch = min(agg.divergent / total, 1.0) if total else 0.0
        profiles.append(KernelProfile(
            name=kname,
            flops=agg.fp / launches,
            int_ops=agg.int_ops / launches,
            bytes_read=agg.bytes_read / launches,
            bytes_written=agg.bytes_written / launches,
            working_set_bytes=agg.working_set,
            work_items=max(int(agg.max_items), 1),
            seq_fraction=seq,
            strided_fraction=strided,
            random_fraction=random,
            branch_fraction=branch,
            serial_ops=0.0,
            chain_ops=chain_ops,
            launches=launches,
        ))
    return profiles


# ---------------------------------------------------------------------------
# The differential gate
# ---------------------------------------------------------------------------


def metric_scores(static: object, dynamic: object) -> dict[str, float]:
    """Scaled per-metric divergence scores (1.0 = tolerance boundary)."""
    scores: dict[str, float] = {}
    for metric in static.NUMERIC_FIELDS:  # type: ignore[attr-defined]
        s = float(getattr(static, metric))
        d = float(getattr(dynamic, metric))
        if metric in _LOG_COMPARED:
            s = math.log10(1.0 + min(max(s, 0.0), AI_SATURATION))
            d = math.log10(1.0 + min(max(d, 0.0), AI_SATURATION))
        band = METRIC_SCALES[metric] * GROUP_BANDS[GROUP_OF[metric]]
        scores[metric] = abs(s - d) / band
    return scores


def _model_allows(model: object) -> set[tuple[str, str | None]]:
    """Union of per-kernel lint suppressions over the model's source."""
    allows: set[tuple[str, str | None]] = set()
    for entries in kernel_suppressions(model.source).values():  # type: ignore[attr-defined]
        allows |= entries
    return allows


def compare_bench_aiwc(bench: object) -> tuple[list[Finding], dict]:
    """Static-vs-dynamic AIWC comparison for one sized benchmark.

    Returns the ``aiwc-divergence`` findings (one per out-of-band
    metric, unless its group is suppressed with ``// repro-lint:
    allow(aiwc-divergence: <group>)`` in the kernel source) and a table
    row carrying both vectors and the scaled scores.
    """
    from ..aiwc.metrics import characterize

    model = bench.static_launches()  # type: ignore[attr-defined]
    name = bench.name  # type: ignore[attr-defined]
    static = characterize_model(
        model, name=name, dwarf=bench.dwarf).metrics  # type: ignore[attr-defined]
    dynamic = characterize(bench)
    scores = metric_scores(static, dynamic)
    allows = _model_allows(model)
    suppressed = sorted(
        group for group in METRIC_GROUPS
        if ("aiwc-divergence", group) in allows
        or ("aiwc-divergence", None) in allows
    )
    findings: list[Finding] = []
    for metric in sorted(scores):
        score = scores[metric]
        group = GROUP_OF[metric]
        if score <= 1.0 or group in suppressed:
            continue
        s = float(getattr(static, metric))
        d = float(getattr(dynamic, metric))
        findings.append(Finding(
            check="aiwc-divergence",
            severity=default_severity("aiwc-divergence"),
            message=(
                f"static {metric} {s:.3f} vs dynamic {d:.3f} "
                f"({score:.2f}x the {group}-group tolerance)"
            ),
            benchmark=name,
            argument=metric,
            hint=(
                "reconcile the static accounting with the KernelProfile "
                "numbers, or suppress the group with // repro-lint: "
                f"allow(aiwc-divergence: {group})"
            ),
        ))
    row = {
        "static": {m: round(float(getattr(static, m)), 3)
                   for m in static.NUMERIC_FIELDS},  # type: ignore[attr-defined]
        "dynamic": {m: round(float(getattr(dynamic, m)), 3)
                    for m in dynamic.NUMERIC_FIELDS},  # type: ignore[attr-defined]
        "scores": {m: round(v, 3) for m, v in sorted(scores.items())},
        "suppressed_groups": suppressed,
    }
    return findings, row


def compare_benchmark_aiwc(
    name: str, sizes: tuple[str, ...] | None = None
) -> tuple[list[Finding], dict]:
    """Run the AIWC differential gate over a benchmark's size presets.

    Returns all findings plus ``{size: comparison-row}`` for the lint
    extras.  Sizes default to every preset the benchmark declares.
    """
    from ..dwarfs import registry

    cls = registry.get_benchmark(name)
    if sizes is None:
        sizes = cls.available_sizes()
    findings: list[Finding] = []
    table: dict[str, dict] = {}
    for size in sizes:
        bench_findings, row = compare_bench_aiwc(cls.from_size(size))
        if row:
            table[size] = row
        for finding in bench_findings:
            findings.append(Finding(
                check=finding.check, severity=finding.severity,
                message=f"[{size}] {finding.message}",
                benchmark=finding.benchmark, argument=finding.argument,
                hint=finding.hint,
            ))
    return findings, table
