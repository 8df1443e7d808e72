"""IR-derived memory-access model: traces, races, coalescing, reuse.

Fourth stage of the kernel IR pipeline.  The abstract interpreter
(:mod:`repro.analysis.absint`) already enumerates every global and
local memory reference of a kernel with a symbolic index interval and
a work-item dependence; this module turns that summary into the
artefacts the rest of the system consumes:

* **static trace synthesis** — :func:`synthesize_trace` lays the
  static launch model's buffers out back to back and emits a
  representative byte-address trace per launch directly from the
  classified access sites (unit/strided sweeps for affine indices,
  full-extent sweeps for loop-carried ones, deterministic uniform
  gathers for indirect ones).  The synthesized trace feeds the
  differential gate below; the production trace that the cache
  simulator and the per-cell counter replay consume is the
  hand-authored ``Benchmark.access_trace()``, fetched through
  :func:`resolve_access_trace`;

* **IR-exact checks** (part of ``repro lint``) — inter-work-item
  data-race detection (:func:`access_model_findings`; write/write and
  read/write overlap modulo the barrier epochs recorded by the
  interpreter), uncoalesced-global-access and local-memory
  bank-conflict findings;

* **reuse-distance summaries** — per-buffer LRU stack distances over
  the synthesized trace (:func:`reuse_distance_summary`), attached to
  the deep-lint extras;

* the **differential trace gate** (part of ``repro lint``) —
  :func:`compare_benchmark_traces` cross-checks the IR-derived trace
  against the hand-authored oracle per size preset: byte spans against
  the runtime footprint, indirect-access agreement against the
  declarative :class:`~repro.cache.trace.TraceSpec`, and touched
  cache-line counts within a calibrated band.

The race detector is deliberately conservative: it only reports
*provable* overlaps (identical affine coefficient, congruent bases,
numerically overlapping ranges under a concrete launch; or an
unguarded uniform-index write with more than one work item) plus
lower-confidence "potential" findings for indirect writes.  Guards
that pin an access to a single work item (``if (gid == 0))``) and
accesses separated by a barrier epoch are excluded.  Cross-work-group
races that a barrier does *not* order are out of scope (documented in
docs/analysis.md).
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from dataclasses import dataclass

import numpy as np

from ..cache import trace as trace_mod
from ..ocl.clsource import CLSourceError
from ..telemetry.tracer import get_tracer
from .absint import (
    Access,
    KernelSummary,
    _launch_env,
    model_ir,
    stride_class,
    sym_eval,
)
from .findings import Finding, default_severity
from .lint import _suppressed

#: Local-memory bank model (the ubiquitous 32 x 4-byte layout).
NUM_BANKS = 32
BANK_BYTES = 4

#: A global access whose inter-work-item byte stride reaches a full
#: cache line puts every lane on its own line: fully uncoalesced.
COALESCE_LINE_BYTES = 64

#: Cache-line granularity of the differential gate and reuse summary.
LINE_BYTES = 64

#: Trace length used by the differential gate (shorter than the
#: simulator default: the gate runs over every benchmark x size).
GATE_TRACE_LEN = 50_000

#: Trace length for the reuse-distance summary (the stack-distance
#: computation costs O(log n) numpy sorts of the whole trace).
REUSE_TRACE_LEN = 20_000

#: Differential-gate tolerance: spans and touched-line counts must
#: agree within this multiplicative factor.
SPAN_TOLERANCE = 4.0
TOUCHED_TOLERANCE = 8.0


# ---------------------------------------------------------------------------
# Site classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessSite:
    """One classified memory reference under a concrete launch."""

    kernel: str
    param: str
    space: str  # global / local
    is_write: bool
    stride: str  # uniform / unit / strided / indirect
    coeff: int | None  # affine work-item coefficient, in elements
    elem_size: int
    lo: float  # concrete index bounds under the launch env
    hi: float
    epoch: int
    line: int
    multiplicity: int = 1  # identical references collapsed


def _affine_coeff(access: Access) -> int | None:
    """The work-item coefficient of an affine access, else ``None``."""
    dep = access.index.dep
    if dep[0] == "affine":
        return int(dep[1])
    return None


def classify_launch_sites(summary: KernelSummary,
                          env: dict[str, float]) -> tuple[AccessSite, ...]:
    """Feasible access sites of one kernel under one launch env.

    Identical references (same parameter, bounds, stride and access
    kind) collapse into one site with a multiplicity count, so a loop
    body that touches ``a[i]`` three times yields one site replayed
    three times rather than three budget shares.

    Computed once per env and kept in :attr:`KernelSummary.sites`; the
    trace synthesis, stride classes, race check and static AIWC all
    classify the same launches.
    """
    key = tuple(sorted(env.items()))
    sites = summary.sites.get(key)
    if sites is None:
        sites = summary.sites[key] = _classify_sites(summary, env)
    return sites


def _classify_sites(summary: KernelSummary,
                    env: dict[str, float]) -> tuple[AccessSite, ...]:
    """The uncached :func:`classify_launch_sites`."""
    merged: dict[tuple, AccessSite] = {}
    for access in summary.accesses:
        if not all(g.feasible(env) for g in access.guards):
            continue
        lo = sym_eval(access.index.lo, env)
        hi = sym_eval(access.index.hi, env)
        cls = stride_class(access.index.dep)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            cls = "indirect"
            lo, hi = 0.0, math.inf
        site = AccessSite(
            kernel=summary.kernel, param=access.param, space=access.space,
            is_write=access.is_write, stride=cls,
            coeff=_affine_coeff(access), elem_size=access.elem_size,
            lo=lo, hi=hi, epoch=access.epoch, line=access.line,
        )
        key = (site.param, site.space, site.is_write, site.stride,
               site.coeff, site.lo, site.hi, site.epoch)
        prev = merged.get(key)
        if prev is None:
            merged[key] = site
        else:
            merged[key] = dataclasses.replace(
                prev, multiplicity=prev.multiplicity + 1)
    return tuple(merged.values())


# ---------------------------------------------------------------------------
# Static trace synthesis
# ---------------------------------------------------------------------------


def buffer_layout(model: object) -> dict[str, tuple[int, int]]:
    """Back-to-back base addresses: buffer key -> (base, nbytes)."""
    layout: dict[str, tuple[int, int]] = {}
    base = 0
    for key, buf in model.buffers.items():  # type: ignore[attr-defined]
        nbytes = max(int(buf.nbytes), 0)
        layout[key] = (base, nbytes)
        base += nbytes
    return layout


def _site_stream(site: AccessSite, base: int, buf_bytes: int,
                 budget: int) -> np.ndarray:
    """Synthesize the address stream of one global-memory site."""
    esz = max(site.elem_size, 1)
    passes = min(site.multiplicity, 8)
    if site.stride == "indirect":
        span = max(buf_bytes, esz)
        seed = zlib.crc32(f"{site.kernel}:{site.param}:{site.line}".encode())
        rng = np.random.default_rng(seed)
        return trace_mod.offset_trace(
            trace_mod.random_uniform(span, budget, rng, element_bytes=esz),
            base)
    lo = int(max(site.lo, 0))
    hi = int(site.hi)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    start = base + lo * esz
    extent = (hi - lo + 1) * esz
    if buf_bytes > 0:
        extent = min(extent, max(buf_bytes - lo * esz, 0))
    if extent <= 0:
        return np.empty(0, dtype=np.int64)
    if site.stride == "uniform":
        return np.full(max(budget, 1), start, dtype=np.int64)
    byte_stride = abs(site.coeff) * esz if site.coeff else esz
    if byte_stride <= esz:
        stream = trace_mod.sequential(extent, element_bytes=esz,
                                      passes=passes, max_len=budget)
    else:
        stream = trace_mod.strided(extent, byte_stride, element_bytes=esz,
                                   passes=passes, max_len=budget)
    return trace_mod.offset_trace(stream, start)


def synthesize_trace(
    model: object, max_len: int = trace_mod.DEFAULT_MAX_LEN
) -> tuple[np.ndarray, dict[str, tuple[int, int]]]:
    """Synthesize a byte-address trace from a static launch model.

    Returns ``(trace, layout)``: the int64 trace and the back-to-back
    buffer layout it addresses into.  Launch order is preserved (a
    launch per trace segment, its sites round-robin interleaved), so
    temporal locality between kernels of one iteration survives.
    """
    with get_tracer().span("accessmodel_synthesize", phase="absint"):
        return _synthesize_trace(model, max_len)


def _synthesize_trace(
    model: object, max_len: int
) -> tuple[np.ndarray, dict[str, tuple[int, int]]]:
    ir = model_ir(model)
    layout = buffer_layout(model)
    launches = list(model.launches)  # type: ignore[attr-defined]
    per_launch = max(max_len // max(len(launches), 1), 64)
    parts: list[np.ndarray] = []
    for launch in launches:
        summary = ir.summary(launch.kernel)
        bound = dict(launch.buffers)
        if summary.opaque:
            # body-less kernel: stream every bound buffer once
            streams = []
            for key, _offset in bound.values():
                base, nbytes = layout[key]
                streams.append(trace_mod.offset_trace(
                    trace_mod.sequential(
                        nbytes, passes=1,
                        max_len=per_launch // max(len(bound), 1)),
                    base))
            parts.append(trace_mod.interleaved(streams))
            continue
        env = _launch_env(launch)
        sites = [
            s for s in classify_launch_sites(summary, env)
            if s.space == "global" and s.param in bound
        ]
        budget = max(per_launch // max(len(sites), 1), 16)
        streams = []
        for site in sites:
            key, offset = bound[site.param]
            base, nbytes = layout[key]
            streams.append(_site_stream(
                site, base + offset, max(nbytes - offset, 0), budget))
        parts.append(trace_mod.interleaved(streams))
    parts = [p for p in parts if len(p)]
    if not parts:
        return np.empty(0, dtype=np.int64), layout
    trace = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if len(trace) > max_len:
        idx = np.linspace(0, len(trace) - 1, max_len).astype(np.int64)
        trace = trace[idx]
    return trace, layout


def resolve_access_trace(bench: object,
                         max_len: int = trace_mod.DEFAULT_MAX_LEN) -> np.ndarray:
    """The production access trace of one benchmark instance.

    The one place the trace source is decided: the counter replay
    (:mod:`repro.harness.artifacts`) and ``verify-sizes`` both fetch
    their trace here.  It is the hand-authored
    ``Benchmark.access_trace()``; the IR-synthesized trace only feeds
    the differential gate (:func:`compare_benchmark_traces`).
    """
    return bench.access_trace(max_len=max_len)  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# IR-exact checks: races, coalescing, bank conflicts
# ---------------------------------------------------------------------------


def _pinned_to_one_work_item(access: Access) -> bool:
    """Whether a guard pins the access to (at most) one work item.

    The ``if (gid == 0)`` / ``if (lid == 0)`` idiom: an equality guard
    between a work-item-dependent value and a uniform one restricts
    the access to a single lane, so a uniform-index write under it is
    not a whole-NDRange race.
    """
    for guard in access.guards:
        if guard.op != "==":
            continue
        deps = (guard.lhs.dep[0], guard.rhs.dep[0])
        if "uniform" in deps and deps != ("uniform", "uniform"):
            return True
    return False


def _total_work_items(launch: object) -> int:
    total = 1
    for dim in launch.global_size:  # type: ignore[attr-defined]
        total *= max(int(dim), 1)
    return total


def _race_pair(a: AccessSite, b: AccessSite, sweep_items: int) -> bool:
    """Provable overlap between two affine sites of one buffer.

    Only *pure gid sweeps* qualify: each site's interval width must be
    exactly ``|coeff| * (work items - 1)``, so the index is provably
    ``base + coeff * gid`` with nothing else varying.  Loop-widened
    intervals (a store covering a whole row panel) are skipped — their
    overlap says nothing about per-work-item aliasing.
    """
    if a.coeff is None or b.coeff is None or a.coeff != b.coeff:
        return False
    if a.coeff == 0 or sweep_items <= 1:
        return False
    expected_width = abs(a.coeff) * (sweep_items - 1)
    if int(a.hi - a.lo) != expected_width or int(b.hi - b.lo) != expected_width:
        return False
    if (a.lo, a.hi) == (b.lo, b.hi):
        # the same per-work-item cell: no *inter*-work-item overlap
        return False
    if (int(a.lo) - int(b.lo)) % abs(a.coeff) != 0:
        # different residues: the address sets are disjoint
        return False
    return a.lo <= b.hi and b.lo <= a.hi


def _race_findings(summary: KernelSummary, launch: object,
                   env: dict[str, float], benchmark: str | None,
                   allows: set) -> list[Finding]:
    findings: list[Finding] = []
    reported: set[tuple[str, str]] = set()
    work_items = _total_work_items(launch)
    accesses = [a for a in summary.accesses if a.space == "global"]

    def add(param: str, kind: str, message: str, severity: str,
            hint: str) -> None:
        if (param, kind) in reported:
            return
        if _suppressed(allows, "data-race", param):
            return
        reported.add((param, kind))
        findings.append(Finding(
            check="data-race", severity=severity, benchmark=benchmark,
            kernel=summary.kernel, argument=param, message=message,
            hint=hint,
        ))

    # (a) uniform-index writes: every work item stores to the same cell
    if work_items > 1:
        for access in accesses:
            if not access.is_write:
                continue
            if access.index.dep != ("uniform",):
                continue
            if not all(g.feasible(env) for g in access.guards):
                continue
            if _pinned_to_one_work_item(access):
                continue
            add(access.param, "uniform",
                f"all {work_items} work items write the same "
                f"{access.param!r} cell (uniform index, no guard pins "
                "the store to one work item)",
                default_severity("data-race"),
                "guard the store with a single-work-item check or make "
                "the index depend on get_global_id")

    # (b) affine write vs read/write with a congruent, shifted base
    sweep_items = max(int(launch.global_size[0]), 1)  # type: ignore[attr-defined]
    sites = [s for s in classify_launch_sites(summary, env)
             if s.space == "global"]
    for a in sites:
        if not a.is_write or a.coeff is None:
            continue
        for b in sites:
            if b is a or b.param != a.param or b.epoch != a.epoch:
                continue
            if not _race_pair(a, b, sweep_items):
                continue
            other = "write" if b.is_write else "read"
            add(a.param, "affine",
                f"work items overlap on {a.param!r}: a store at stride "
                f"{a.coeff} (index range [{int(a.lo)}, {int(a.hi)}]) "
                f"aliases a {other} of the same stride at a shifted "
                f"base (range [{int(b.lo)}, {int(b.hi)}]) with no "
                "intervening barrier",
                default_severity("data-race"),
                "separate the conflicting accesses with a barrier or "
                "privatise the overlapping cells")
            break

    # (c) indirect writes: cannot prove disjointness
    for access in accesses:
        if not access.is_write:
            continue
        if access.index.dep != ("indirect",):
            continue
        if not all(g.feasible(env) for g in access.guards):
            continue
        add(access.param, "indirect",
            f"store to {access.param!r} through a data-dependent index; "
            "work items may collide (not provably disjoint)",
            "warning",
            "if collisions are benign (idempotent stores), suppress "
            f"with // repro-lint: allow(data-race: {access.param})")
    return findings


def _coalescing_findings(summary: KernelSummary, env: dict[str, float],
                         benchmark: str | None,
                         allows: set) -> list[Finding]:
    findings: list[Finding] = []
    reported: set[str] = set()
    for access in summary.accesses:
        if access.space != "global":
            continue
        coeff = _affine_coeff(access)
        if coeff is None:
            continue
        stride_bytes = abs(coeff) * access.elem_size
        if stride_bytes < COALESCE_LINE_BYTES:
            continue
        if access.param in reported:
            continue
        if _suppressed(allows, "uncoalesced-access", access.param):
            continue
        if not all(g.feasible(env) for g in access.guards):
            continue
        reported.add(access.param)
        findings.append(Finding(
            check="uncoalesced-access",
            severity=default_severity("uncoalesced-access"),
            benchmark=benchmark, kernel=summary.kernel,
            argument=access.param,
            message=f"consecutive work items touch {access.param!r} "
                    f"{stride_bytes} bytes apart (>= the "
                    f"{COALESCE_LINE_BYTES}-byte line): every lane "
                    "fetches its own cache line",
            hint="transpose the layout so adjacent work items touch "
                 "adjacent elements, or suppress with // repro-lint: "
                 f"allow(uncoalesced-access: {access.param})",
        ))
    return findings


def _bank_conflict_findings(summary: KernelSummary, env: dict[str, float],
                            benchmark: str | None,
                            allows: set) -> list[Finding]:
    findings: list[Finding] = []
    reported: set[str] = set()
    for access in summary.accesses:
        if access.space != "local":
            continue
        coeff = _affine_coeff(access)
        if coeff is None or coeff == 0:
            continue
        stride_bytes = abs(coeff) * access.elem_size
        if stride_bytes % BANK_BYTES:
            continue
        words = stride_bytes // BANK_BYTES
        degree = math.gcd(words, NUM_BANKS)
        if degree <= 1:
            continue
        if access.param in reported:
            continue
        if _suppressed(allows, "bank-conflict", access.param):
            continue
        if not all(g.feasible(env) for g in access.guards):
            continue
        reported.add(access.param)
        findings.append(Finding(
            check="bank-conflict",
            severity=default_severity("bank-conflict"),
            benchmark=benchmark, kernel=summary.kernel,
            argument=access.param,
            message=f"local array {access.param!r} is accessed at a "
                    f"{words}-word stride: a {degree}-way bank conflict "
                    f"on a {NUM_BANKS}-bank local memory",
            hint="pad the array (stride + 1) or swap the indexing so "
                 "consecutive work items hit consecutive banks",
        ))
    return findings


def access_model_findings(
    model: object,
    benchmark: str | None = None,
    suppressions: dict[str, set] | None = None,
) -> list[Finding]:
    """Race / coalescing / bank-conflict findings for one launch model."""
    try:
        summaries = model_ir(model).summaries
    except CLSourceError:
        return []  # the build-failure finding is reported elsewhere
    suppressions = suppressions or {}
    findings: list[Finding] = []
    seen: set[str] = set()
    for launch in model.launches:  # type: ignore[attr-defined]
        name = launch.kernel
        if name in seen or name not in summaries:
            continue
        seen.add(name)
        summary = summaries[name]
        if summary.opaque:
            continue
        env = _launch_env(launch)
        allows = suppressions.get(name, set())
        findings.extend(_race_findings(summary, launch, env, benchmark,
                                       allows))
        findings.extend(_coalescing_findings(summary, env, benchmark,
                                             allows))
        findings.extend(_bank_conflict_findings(summary, env, benchmark,
                                                allows))
    return findings


# ---------------------------------------------------------------------------
# Reuse-distance summary
# ---------------------------------------------------------------------------


def stack_distances(lines: np.ndarray) -> np.ndarray:
    """LRU stack distance per access of a cache-line trace.

    ``-1`` marks cold (first-touch) accesses; otherwise the count of
    *distinct* lines touched since the previous access to the same
    line.

    Counted offline: with ``prev[j]`` the previous use of access
    ``j``'s line (``-1`` when cold), a reuse at ``i`` of the access at
    ``p`` has distance ``#{j < i : prev[j] <= p} - (p + 1)`` (every
    ``j <= p`` qualifies; past ``p`` exactly the first touch of each
    distinct line does).  ``j < i`` splits into one aligned block of
    ``j`` per set bit ``k`` of ``i`` (``j >> k == (i >> k) - 1``), so
    the count is one sort of ``(j >> k, prev[j])`` keys and two
    binary searches per bit: O(n log² n) in numpy.
    """
    n = len(lines)
    out = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return out
    order = np.argsort(lines, kind="stable")
    same = lines[order[1:]] == lines[order[:-1]]
    prev = np.full(n, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    reuse = np.flatnonzero(prev >= 0)
    last = prev[reuse]
    below = np.zeros(len(reuse), dtype=np.int64)
    # key = block * width + prev + 1 orders by block, then by prev
    width = n + 1
    positions = np.arange(n, dtype=np.int64)
    for k in range((n - 1).bit_length()):
        hit = ((reuse >> k) & 1).astype(bool)
        if not hit.any():
            continue
        keys = np.sort((positions >> k) * width + prev + 1)
        start = ((reuse[hit] >> k) - 1) * width
        below[hit] += (
            np.searchsorted(keys, start + last[hit] + 1, side="right")
            - np.searchsorted(keys, start, side="left"))
    out[reuse] = below - (last + 1)
    return out


def reuse_distance_summary(model: object,
                           max_len: int = REUSE_TRACE_LEN,
                           line_bytes: int = LINE_BYTES) -> dict:
    """Per-buffer reuse-distance statistics over the IR-derived trace.

    Returns a JSON-ready mapping ``buffer key -> {accesses, lines,
    cold_fraction, mean, median}`` where distances are in distinct
    cache lines (the classic LRU stack distance).
    """
    trace, layout = synthesize_trace(model, max_len=max_len)
    if not len(trace):
        return {}
    distances = stack_distances(trace // line_bytes)
    summary: dict[str, dict] = {}
    for key, (base, nbytes) in layout.items():
        if nbytes <= 0:
            continue
        mask = (trace >= base) & (trace < base + nbytes)
        if not mask.any():
            continue
        dist = distances[mask]
        warm = dist[dist >= 0]
        summary[key] = {
            "accesses": int(mask.sum()),
            "lines": trace_mod.distinct_lines(trace[mask], line_bytes),
            "cold_fraction": round(float((dist < 0).mean()), 4),
            "mean": round(float(warm.mean()), 2) if len(warm) else None,
            "median": round(float(np.median(warm)), 2) if len(warm) else None,
        }
    return summary


# ---------------------------------------------------------------------------
# Differential trace gate (part of repro lint)
# ---------------------------------------------------------------------------


def _ratio(a: float, b: float) -> float:
    """Symmetric ratio >= 1 (``inf`` when only one side is zero)."""
    if a <= 0 and b <= 0:
        return 1.0
    if a <= 0 or b <= 0:
        return math.inf
    return max(a / b, b / a)


def _span_bytes(trace: np.ndarray) -> int:
    if not len(trace):
        return 0
    return int(trace.max() - trace.min()) + 1


def compare_benchmark_traces(
    name: str,
    sizes: tuple[str, ...] | None = None,
    max_len: int = GATE_TRACE_LEN,
) -> tuple[list[Finding], dict]:
    """Cross-check IR-derived vs hand-authored traces for one benchmark.

    Per size preset, three agreements are required:

    1. both traces span the same order of magnitude of address space
       as the runtime footprint (within :data:`SPAN_TOLERANCE`);
    2. every random component of the hand-authored
       :class:`~repro.cache.trace.TraceSpec` has a matching indirect
       access in the IR model (the IR may discover more);
    3. the touched cache-line counts agree within
       :data:`TOUCHED_TOLERANCE`.

    Returns ``(findings, extras)``; a ``trace-divergence`` finding per
    disagreeing size, and the JSON-ready comparison table either way.
    """
    from ..dwarfs import registry

    cls = registry.get_benchmark(name)
    if sizes is None:
        sizes = cls.available_sizes()
    findings: list[Finding] = []
    table: dict[str, dict] = {}
    for size in sizes:
        bench = cls.from_size(size)
        model = bench.static_launches()
        hand = bench.access_trace(max_len=max_len)
        ir, _layout = synthesize_trace(model, max_len=max_len)
        spec = bench.trace_spec()
        footprint = max(bench.footprint_bytes(), 1)

        ir_classes = ir_stride_classes(model)
        hand_indirect = "indirect" in spec.stride_classes()
        ir_indirect = "indirect" in ir_classes

        span_hand = _span_bytes(hand)
        span_ir = _span_bytes(ir)
        touched_hand = trace_mod.distinct_lines(hand, LINE_BYTES)
        touched_ir = trace_mod.distinct_lines(ir, LINE_BYTES)

        span_ok = (_ratio(span_ir, footprint) <= SPAN_TOLERANCE
                   and _ratio(span_hand, footprint) <= SPAN_TOLERANCE)
        # one-directional: indirection the oracle models must be found
        # by the IR; extra IR-discovered indirection (hmm's b[obs[t]]
        # gather) is a refinement, not a divergence
        indirect_ok = ir_indirect or not hand_indirect
        touched_ok = _ratio(touched_ir, touched_hand) <= TOUCHED_TOLERANCE
        ok = span_ok and indirect_ok and touched_ok

        table[size] = {
            "footprint_bytes": int(footprint),
            "span_hand": span_hand,
            "span_ir": span_ir,
            "touched_lines_hand": int(touched_hand),
            "touched_lines_ir": int(touched_ir),
            "indirect_hand": hand_indirect,
            "indirect_ir": ir_indirect,
            "ok": ok,
        }
        if not ok:
            reasons = []
            if not span_ok:
                reasons.append(
                    f"span {span_ir} B (ir) / {span_hand} B (hand) vs "
                    f"footprint {footprint} B")
            if not indirect_ok:
                reasons.append(
                    f"indirect access: ir={ir_indirect} hand={hand_indirect}")
            if not touched_ok:
                reasons.append(
                    f"touched lines {touched_ir} (ir) vs {touched_hand} "
                    "(hand)")
            findings.append(Finding(
                check="trace-divergence",
                severity=default_severity("trace-divergence"),
                benchmark=name, location=f"size {size}",
                message="IR-derived trace disagrees with the hand-authored "
                        "oracle: " + "; ".join(reasons),
                hint="reconcile the static launch model with the "
                     "benchmark's trace_spec() (docs/analysis.md)",
            ))
    return findings, table


def ir_stride_classes(model: object) -> set[str]:
    """All stride classes of the model's global accesses (any launch)."""
    ir = model_ir(model)
    classes: set[str] = set()
    for launch in model.launches:  # type: ignore[attr-defined]
        summary = ir.summary(launch.kernel)
        env = _launch_env(launch)
        for site in classify_launch_sites(summary, env):
            if site.space == "global" and site.param in launch.buffers:
                classes.add(site.stride)
    return classes
