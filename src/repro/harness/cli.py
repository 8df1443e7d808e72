"""Command-line interface (the ``opendwarfs`` entry point).

Follows the paper's invocation convention (§4.4.5): each application
runs as ``Benchmark Device -- Arguments`` where Device is the
``-p <platform> -d <device> -t <type>`` triple and Arguments is the
benchmark's Table 3 string, e.g.::

    opendwarfs run kmeans -p 0 -d 1 -t 0 -- -g -f 26 -p 65600
    opendwarfs run fft --device "GTX 1080" --size medium
    opendwarfs run kmeans --size tiny --trace t.json --metrics m.prom
    opendwarfs table 2
    opendwarfs figure 3a
    opendwarfs trace lsb.kmeans.r0 -o kmeans.trace.json
    opendwarfs verify-sizes kmeans
    opendwarfs list-devices
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

from ..analysis.findings import DEFAULT_SEVERITIES, FAIL_ON_CHOICES
from ..devices.catalog import CATALOG, get_device
from ..dwarfs.base import SIZES
from ..dwarfs.registry import BENCHMARKS, EXTENSIONS, get_benchmark
from ..ocl.platform import select_device
from ..scibench.stats import summarize
from . import figures as figmod
from .report import render_table, table1_text, table2_text, table3_text
from .results import ResultSet
from .runner import RunConfig, expand_matrix, run_benchmark
from .sweep import SweepCache, WorkerDied, default_cache_dir, run_sweep

#: Exit statuses shared by every subcommand: 0 = success, 1 = the
#: command ran but found something (lint findings, regressions, an
#: unsatisfiable schedule), 2 = usage or configuration error (bad
#: flags, unknown device, missing baseline), 3 = a sweep worker died
#: (the lost cells are named on stderr; every other cell finished and,
#: with a cache, a rerun computes only the lost ones).
EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_WORKER_DIED = 3


class UsageError(Exception):
    """A usage/configuration error; :func:`main` maps it to exit 2."""


def _resolve_device(name: str):
    """Catalog lookup that reports unknown names as a usage error."""
    try:
        return get_device(name)
    except KeyError as exc:
        raise UsageError(str(exc.args[0]) if exc.args else str(exc)) from None


@contextlib.contextmanager
def _observability(args):
    """Wire ``--trace`` / ``--metrics`` / ``--log-jsonl`` around a command.

    ``--trace`` subscribes a Chrome-trace exporter to the global event
    bus and installs an enabled tracer so harness spans land in the
    same file; ``--log-jsonl`` installs a process-default run log; both
    are torn down (and their files written) on the way out.
    ``--metrics`` snapshots the global registry afterwards.
    """
    from ..telemetry import (
        ChromeTraceExporter,
        GLOBAL_EVENT_BUS,
        RunLog,
        Tracer,
        default_registry,
        set_default_runlog,
        set_tracer,
    )

    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    log_path = getattr(args, "log_jsonl", None)
    for out_path in (trace_path, metrics_path, log_path):
        if out_path:
            Path(out_path).expanduser().parent.mkdir(parents=True,
                                                     exist_ok=True)
    exporter = tracer = runlog = prev_tracer = None
    if trace_path:
        exporter = ChromeTraceExporter()
        GLOBAL_EVENT_BUS.subscribe(exporter.on_event)
        tracer = Tracer(enabled=True)
        prev_tracer = set_tracer(tracer)
    if log_path:
        runlog = RunLog(log_path)
        set_default_runlog(runlog)
    try:
        yield
    finally:
        if runlog is not None:
            set_default_runlog(None)
            runlog.close()
            print(f"wrote {log_path} ({runlog.records_written} records)")
        if exporter is not None:
            GLOBAL_EVENT_BUS.unsubscribe(exporter.on_event)
            set_tracer(prev_tracer)
            exporter.add_tracer(tracer)
            exporter.write(trace_path)
            print(f"wrote {trace_path} ({exporter.slice_count} slices)")
        if metrics_path:
            Path(metrics_path).write_text(default_registry().expose())
            print(f"wrote {metrics_path}")


@contextlib.contextmanager
def _ensure_tracer():
    """Yield an enabled tracer: the current one, or a temporary install.

    Lets phase-collecting commands (``regress record``, ``--profile``)
    compose with ``--trace``: when :func:`_observability` already
    installed an enabled tracer, its spans are reused rather than
    shadowed.
    """
    from ..telemetry import get_tracer, tracing

    current = get_tracer()
    if current.enabled:
        yield current
    else:
        with tracing() as tracer:
            yield tracer


def _phase_dict(spans) -> dict:
    """Per-phase timing summary (the BENCH ``phases`` field) from spans."""
    from ..telemetry import phase_summary

    return {
        stat.phase: {"total_s": stat.total_s, "self_s": stat.self_s,
                     "count": stat.count}
        for stat in phase_summary(spans).stats
    }


def _sweep_options(args, default_cache: bool) -> tuple[int | None, SweepCache | None, bool]:
    """Resolve ``--jobs``/``--cache-dir``/``--no-cache``/``--refresh``/``--resume``.

    Returns ``(jobs, cache, refresh)`` for :func:`run_sweep`.  The
    cache defaults on (at :func:`default_cache_dir`) only for
    full-matrix sweeps (``default_cache=True``); single runs and
    figures cache only when ``--cache-dir`` is given explicitly, so
    their output stays invocation-independent.  ``--resume`` is the
    cache-reuse default made explicit; combining it with ``--no-cache``
    or ``--refresh`` is contradictory and rejected.
    """
    resume = getattr(args, "resume", False)
    no_cache = getattr(args, "no_cache", False)
    refresh = getattr(args, "refresh", False)
    if resume and (no_cache or refresh):
        raise UsageError("--resume contradicts --no-cache/--refresh")
    cache = None
    if not no_cache:
        if args.cache_dir:
            cache = SweepCache(args.cache_dir)
        elif default_cache or resume:
            cache = SweepCache(default_cache_dir())
    return args.jobs, cache, refresh


def _print_sweep_summary(outcome, cache: SweepCache | None) -> None:
    """One-line accounting of a sweep's compute/cache split."""
    where = f" [cache: {cache.root}]" if cache is not None else ""
    print(f"{outcome.cells} cells: {outcome.computed} computed, "
          f"{outcome.cached} cached in {outcome.wall_s:.2f} s "
          f"({outcome.jobs} jobs){where}")


def _matrix_configs(args) -> list[RunConfig]:
    """The measurement-matrix cells selected by ``--benchmark``/``--size``/
    ``--device`` (each ``None`` meaning "every one registered")."""
    execute = not args.no_execute
    benchmark = getattr(args, "benchmark", None)
    cells = expand_matrix(
        [benchmark] if benchmark and benchmark != "all" else None,
        [args.size] if args.size else None,
        [_resolve_device(args.device).name] if args.device else None)
    return [RunConfig(benchmark=b, size=s, device=d, samples=args.samples,
                      execute=execute, validate=execute, seed=args.seed)
            for b, s, d in cells]


def cmd_run_all(args) -> int:
    """``run all``: the paper's full measurement matrix, parallel + cached.

    Covers every registered benchmark x its sizes (or ``--size``) x the
    catalog (or ``--device``).  Like a single ``run``, each cell
    executes functionally and validates unless ``--no-execute`` asks
    for model-only timing — recommended when sweeping the large sizes,
    whose functional numpy passes are the expensive part.
    """
    from ..telemetry import ProfileSession

    jobs, cache, refresh = _sweep_options(args, default_cache=True)
    configs = _matrix_configs(args)
    session = ProfileSession(enabled=getattr(args, "profile", False))
    with _observability(args), session:
        outcome = run_sweep(configs, jobs=jobs, cache=cache, refresh=refresh)
    if session.enabled:
        print(session.report().to_table())
    results = ResultSet(outcome.results)
    rows = []
    # expand_matrix is benchmark-major, sizes in Table 2 order
    for name, size in dict.fromkeys((c.benchmark, c.size) for c in configs):
        best = results.best_device(name, size)
        rows.append({
            "benchmark": name, "size": size,
            "best device": best.device,
            "class": best.device_class,
            "mean (ms)": round(best.mean_ms, 4),
        })
    print(render_table(rows, "Fastest device per benchmark x size"))
    _print_sweep_summary(outcome, cache)
    return EXIT_OK


def _split_device_args(argv: list[str]) -> tuple[list[str], list[str]]:
    """Split ``Device -- Arguments`` at the ``--`` separator."""
    if "--" in argv:
        split = argv.index("--")
        return argv[:split], argv[split + 1 :]
    return argv, []


def cmd_list_devices(_args) -> int:
    """``list-devices``: print the simulated device catalog."""
    rows = []
    for spec in CATALOG:
        rows.append({
            "Name": spec.name,
            "Class": spec.device_class.value,
            "Vendor": spec.vendor.value,
            "fp32 GFLOP/s": round(spec.compute.fp32_gflops),
            "Mem GB/s": spec.memory.bandwidth_gbs,
            "TDP W": spec.tdp_w,
        })
    print(render_table(rows, "Simulated devices"))
    return EXIT_OK


def cmd_run(args) -> int:
    """``run``: one measurement group (or dispatch to ``run all``)."""
    if args.benchmark == "all":
        return cmd_run_all(args)
    device_argv, bench_argv = _split_device_args(args.rest)
    # resolve the device: either -p/-d/-t triple or --device name
    if args.device:
        device_name = _resolve_device(args.device).name
    else:
        p = d = t = None
        i = 0
        while i < len(device_argv):
            if device_argv[i] == "-p":
                p = int(device_argv[i + 1]); i += 2
            elif device_argv[i] == "-d":
                d = int(device_argv[i + 1]); i += 2
            elif device_argv[i] == "-t":
                t = int(device_argv[i + 1]); i += 2
            else:
                print(f"unknown device argument {device_argv[i]!r}", file=sys.stderr)
                return EXIT_USAGE
        if None in (p, d, t):
            device_name = "i7-6700K"
        else:
            device_name = select_device(p, d, t).name

    from ..telemetry import ProfileSession

    cls = get_benchmark(args.benchmark)
    session = ProfileSession(enabled=getattr(args, "profile", False))
    with _observability(args), session:
        if bench_argv:
            bench = cls.from_args(bench_argv)
            # derive a label for reporting; reuse the closest preset if any
            size = next(
                (s for s in cls.available_sizes()
                 if cls.presets[s] == getattr(bench, "n", None)),
                "custom",
            )
            if size == "custom":
                result = _run_custom(bench, device_name, args)
                _print_result(result)
                return EXIT_OK
        else:
            size = args.size or cls.available_sizes()[0]
        config = RunConfig(
            benchmark=args.benchmark, size=size, device=device_name,
            samples=args.samples, execute=not args.no_execute,
            validate=not args.no_execute, seed=args.seed,
        )
        jobs, cache, refresh = _sweep_options(args, default_cache=False)
        if cache is not None:
            outcome = run_sweep([config], jobs=1, cache=cache,
                                refresh=refresh)
            _print_result(outcome.results[0])
            _print_sweep_summary(outcome, cache)
        else:
            _print_result(run_benchmark(config))
    if session.enabled:
        print(session.report().to_table())
    return EXIT_OK


def _run_custom(bench, device_name: str, args):
    """Measure a benchmark instance built from explicit arguments."""
    import numpy as np

    from ..ocl import CommandQueue, Context, find_device
    from ..perfmodel import iteration_time, noisy_samples
    from .runner import MIN_LOOP_SECONDS, RunResult, energy_samples

    spec = get_device(device_name)
    rng = np.random.default_rng(4321)
    validated = False
    if not args.no_execute:
        context = Context(find_device(spec.name))
        queue = CommandQueue(context, rng=rng)
        try:
            bench.run_complete(context, queue)
            validated = True
        finally:
            bench.teardown()
    breakdown = iteration_time(spec, bench.profiles())
    loop = max(1, math.ceil(MIN_LOOP_SECONDS / max(breakdown.total_s, 1e-9)))
    times = noisy_samples(spec, breakdown.total_s, args.samples, rng,
                          loop_iterations=loop)
    energies = energy_samples(spec, times, breakdown.utilization, rng)
    return RunResult(
        benchmark=bench.name, size="custom", device=spec.name,
        device_class=spec.device_class.value, nominal_s=breakdown.total_s,
        times_s=times, energies_j=energies, loop_iterations=loop,
        breakdown=breakdown, footprint_bytes=bench.footprint_bytes(),
        validated=validated,
    )


def _print_result(result) -> None:
    s = summarize(result.times_s)
    print(f"benchmark : {result.benchmark} ({result.size})")
    print(f"device    : {result.device} [{result.device_class}]")
    print(f"footprint : {result.footprint_bytes / 1024:.1f} KiB")
    print(f"validated : {result.validated}")
    print(f"samples   : {s.n} (looped x{result.loop_iterations} per sample)")
    print(f"kernel    : mean {s.mean * 1e3:.4f} ms  median {s.median * 1e3:.4f} ms"
          f"  cov {s.cov:.3f}")
    print(f"bound     : {result.breakdown.bound}"
          f" (compute {result.breakdown.compute_s * 1e3:.4f} ms,"
          f" memory {result.breakdown.memory_s * 1e3:.4f} ms,"
          f" launch {result.breakdown.launch_s * 1e3:.4f} ms)")
    print(f"energy    : mean {result.energies_j.mean():.4f} J")


def cmd_table(args) -> int:
    """``table``: print one of the paper's tables."""
    text = {1: table1_text, 2: table2_text, 3: table3_text}[args.number]()
    print(text)
    return EXIT_OK


def cmd_figure(args) -> int:
    """``figure``: regenerate one of the paper's figures."""
    fid = args.figure_id.lower()
    samples = args.samples
    jobs, cache, refresh = _sweep_options(args, default_cache=False)
    sweep_kw = dict(samples=samples, jobs=jobs, cache=cache,
                    refresh=refresh)
    with _observability(args):
        if fid in ("1", "fig1"):
            fig = figmod.figure1_crc(**sweep_kw)
        elif fid in ("2a", "2b", "2c", "2d", "2e"):
            bench = {"2a": "kmeans", "2b": "lud", "2c": "csr", "2d": "dwt",
                     "2e": "fft"}[fid]
            fig = figmod.figure2(bench, **sweep_kw)
        elif fid in ("3a", "3b"):
            fig = figmod.figure3({"3a": "srad", "3b": "nw"}[fid],
                                 **sweep_kw)
        elif fid in ("4", "fig4"):
            fig = figmod.figure4(**sweep_kw)
        elif fid in ("5", "fig5"):
            fig = figmod.figure5(**sweep_kw)
        else:
            print(f"unknown figure {args.figure_id!r}", file=sys.stderr)
            return EXIT_USAGE
    print(fig.render())
    if args.csv:
        print(fig.to_csv())
    if args.html:
        from .plots import save_figure_html
        path = save_figure_html(fig, args.html, log_scale=(fid in ("5", "fig5")))
        print(f"wrote {path}")
    return EXIT_OK


def cmd_profile(args) -> int:
    """``profile run|all``: self-profile the harness over a sweep.

    Runs the selected matrix under a
    :class:`~repro.telemetry.profile.ProfileSession` and reports where
    the harness's own wall time went: a phase-attributed table (or
    folded stacks / JSON with ``--format``), cProfile hotspots, and —
    always — a folded-stack file for flamegraph tools plus one merged
    Perfetto trace in which worker spans nest under the parent sweep
    span.  The result cache defaults off here (``--cache-dir`` opts
    in): serving cells from the cache would profile deserialisation,
    not measurement.
    """
    import json as jsonmod

    from ..telemetry import (
        ChromeTraceExporter,
        GLOBAL_EVENT_BUS,
        ProfileSession,
    )

    jobs, cache, refresh = _sweep_options(args, default_cache=False)
    configs = _matrix_configs(args)
    if not configs:
        raise UsageError("no matrix cells selected")
    exporter = ChromeTraceExporter()
    session = ProfileSession(memory=args.memory)
    with exporter.attached(GLOBAL_EVENT_BUS), session:
        outcome = run_sweep(configs, jobs=jobs, cache=cache, refresh=refresh)
    report = session.report(top=args.top)

    folded_path = Path(args.folded).expanduser()
    folded_path.parent.mkdir(parents=True, exist_ok=True)
    folded_path.write_text(report.to_folded() + "\n")
    exporter.add_tracer(session.tracer)
    trace_path = Path(args.trace).expanduser()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    exporter.write(trace_path)

    if args.format == "table":
        text = report.to_table()
    elif args.format == "folded":
        text = report.to_folded()
    else:
        text = jsonmod.dumps(report.to_json(), indent=2, sort_keys=True)
    if args.output:
        out = Path(args.output).expanduser()
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {out}")
    else:
        print(text)
    print(f"wrote {folded_path} (folded stacks) and {trace_path} "
          f"(Perfetto trace, {report.span_count} spans)")
    _print_sweep_summary(outcome, cache)
    return EXIT_OK


def cmd_trace(args) -> int:
    """``trace``: inspect a trace file without a viewer.

    Replays a saved LSB recorder file into a Chrome/Perfetto trace, or
    with ``--summary`` prints span count, total/self time and the top-k
    slices by duration — for either an LSB file or an already-exported
    Chrome trace JSON (auto-detected).
    """
    import json as jsonmod

    from ..scibench import lsb
    from ..telemetry import summarize_trace_events, trace_from_recorder

    events = None
    if args.summary:
        # accept Chrome trace JSON directly; fall through to LSB replay
        try:
            payload = jsonmod.loads(
                Path(args.lsb_file).read_text(encoding="utf-8"))
            if isinstance(payload, dict) and "traceEvents" in payload:
                events = payload["traceEvents"]
        except (OSError, ValueError, UnicodeDecodeError):
            events = None
    if events is None:
        try:
            recorder = lsb.load(args.lsb_file)
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.lsb_file!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        exporter = trace_from_recorder(recorder)
        if not args.summary:
            out = args.output or f"{args.lsb_file}.trace.json"
            exporter.write(out)
            print(f"wrote {out} ({exporter.slice_count} slices from "
                  f"{len(recorder)} measurements)")
            return EXIT_OK
        events = exporter.to_dict()["traceEvents"]
    print(summarize_trace_events(events, top=args.top).render())
    return EXIT_OK


def cmd_characterize(args) -> int:
    """AIWC characterization + diversity analysis (paper §7)."""
    from ..aiwc import analyze, characterize_suite
    metrics = characterize_suite(args.size)
    print(render_table([m.as_row() for m in metrics],
                       f"AIWC metrics ({args.size})"))
    report = analyze(metrics)
    print(render_table(report.distinctiveness_rows(),
                       "Distinctiveness (distance to nearest neighbour)"))
    print("MST:", ", ".join(f"{a}-{b}({d})" for a, b, d in report.mst_edges))
    return EXIT_OK


def cmd_aiwc(args) -> int:
    """``aiwc``: workload characterization, dynamic or purely static.

    ``--static`` derives the AIWC vectors from the kernel IR (the
    static AIWC stage) instead of the hand-authored profiles, covering
    extensions too.  A positional ``.cl`` path characterizes a
    user-supplied kernel with no dynamic run at all: a default launch
    model is synthesized (one launch per kernel, default NDRange and
    buffer sizes) and interpreted abstractly.
    """
    import json as _json

    if args.source is not None:
        from ..analysis.staticaiwc import characterize_model, model_from_source
        from ..ocl.clsource import CLSourceError
        try:
            source = Path(args.source).read_text()
            model = model_from_source(source)
            result = characterize_model(model, name=Path(args.source).stem)
        except (OSError, CLSourceError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if args.json:
            print(_json.dumps({"metrics": result.metrics.as_row(),
                               "kernels": result.per_kernel},
                              indent=2, sort_keys=True))
        else:
            print(render_table([result.metrics.as_row()],
                               f"Static AIWC: {args.source}"))
        return EXIT_OK

    if args.static:
        from ..analysis.staticaiwc import characterize_suite_static
        metrics = characterize_suite_static(args.size)
        title = f"Static AIWC metrics ({args.size})"
    else:
        from ..aiwc import characterize_suite
        metrics = characterize_suite(args.size)
        title = f"AIWC metrics ({args.size})"
    rows = [m.as_row() for m in metrics]
    if args.benchmark:
        rows = [r for r in rows if r["benchmark"] == args.benchmark]
    if args.json:
        print(_json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(render_table(rows, title))
    return EXIT_OK


def cmd_autotune(args) -> int:
    """Local work-group size tuning (paper §7)."""
    from ..tuning import autotune_benchmark
    spec = _resolve_device(args.device)
    bench = get_benchmark(args.benchmark).from_size(args.size)
    results = autotune_benchmark(spec, bench)
    for name, result in results.items():
        print(render_table(result.rows(),
                           f"{name} on {spec.name} "
                           f"(best: {result.best_local_size}, "
                           f"{result.speedup_vs_worst:.1f}x vs worst)"))
    return EXIT_OK


def cmd_schedule(args) -> int:
    """Best-device selection under budgets (paper §7)."""
    from ..scheduling import select_device as select
    bench = get_benchmark(args.benchmark).from_size(args.size)
    selection = select(bench, time_budget_s=args.time_budget,
                       energy_budget_j=args.energy_budget,
                       objective=args.objective)
    rows = [{
        "device": p.device, "class": p.device_class,
        "time (ms)": round(p.time_s * 1e3, 4),
        "energy (J)": round(p.energy_j, 4),
        "pick": "<-" if selection.chosen and p.device == selection.chosen.device
                else "",
    } for p in (*selection.feasible, *selection.rejected)]
    print(render_table(rows, f"{args.benchmark} ({args.size}) by "
                             f"{args.objective}"))
    if not selection.satisfiable:
        print("no device satisfies the given budgets")
        return EXIT_FINDINGS
    return EXIT_OK


def cmd_transfers(args) -> int:
    """Host<->device transfer times (measured in the paper, §4.3)."""
    from .transfers import measure_transfers
    m = measure_transfers(args.benchmark, args.size, args.device)
    print(render_table([m.as_row()], "Memory transfer times"))
    return EXIT_OK


def cmd_verify_sizes(args) -> int:
    """``verify-sizes``: cache-counter problem-size verification (§4.4)."""
    from ..sizing.verify import verify_benchmark_sizes
    v = verify_benchmark_sizes(args.benchmark, device=args.device)
    print(render_table(v.summary_rows(),
                       f"Cache-counter verification: {args.benchmark} on {v.device}"))
    return EXIT_OK


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every sweep-capable command (``run``, ``figure``)."""
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for sweep cells "
                             "(default: os.cpu_count(); 1 = serial, "
                             "identical samples either way)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="content-addressed result cache location: a "
                             "directory, or remote://HOST:PORT of a `serve "
                             "--cache-only` instance (default for "
                             "full-matrix sweeps: $REPRO_CACHE_DIR or "
                             "~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the result cache")
    parser.add_argument("--refresh", action="store_true",
                        help="recompute every cell, overwriting cached entries")
    parser.add_argument("--resume", action="store_true",
                        help="continue an interrupted sweep from the cache "
                             "(cells already computed are restored, the "
                             "rest are measured)")


def cmd_lint(args) -> int:
    """``lint``: run the analysis suite and gate on finding severity.

    Executes every benchmark (or one, with ``--benchmark``) at its
    smallest problem size, lints the host bindings, optionally runs
    under the shadow-memory sanitizer, and checks every kernel on the
    IR: the kernel-body checks, the access-model checks (data races,
    uncoalesced global access, bank conflicts), the §4.4 symbolic
    working-set cross-check, and the trace and AIWC differential gates
    (IR-derived address traces and static workload characterization
    against their hand-authored and dynamic counterparts) at every
    size preset.  Exits nonzero when any finding reaches ``--fail-on``.
    """
    from ..analysis import run_deep_suite

    report = run_deep_suite(
        benchmarks=[args.benchmark] if args.benchmark else None,
        size=args.size,
        sanitize=args.sanitize,
        device_name=args.device,
        ignore=tuple(args.ignore),
        traces=True,
        aiwc=True,
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.render_text())
    if args.metrics:
        from ..telemetry import default_registry

        Path(args.metrics).write_text(default_registry().expose())
        print(f"wrote {args.metrics}", file=sys.stderr)
    return EXIT_FINDINGS if report.fails(args.fail_on) else EXIT_OK


def _regress_thresholds(args):
    """Build classification :class:`~repro.regress.Thresholds` from flags."""
    from ..regress import Thresholds
    try:
        return Thresholds(alpha=args.alpha,
                          min_effect_size=args.min_effect,
                          min_rel_shift=args.min_shift)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_regress_record(args) -> int:
    """``regress record``: freeze a sweep as a named baseline.

    Measures the selected matrix through :func:`run_sweep` (parallel,
    and cached like ``run all`` so an interrupted record resumes), then
    stores every cell's config, content-address and raw samples as
    ``<baseline-dir>/<name>.json``.  With ``--trajectory-dir`` the
    run's per-cell summaries are also appended to the performance
    trajectory as the next ``BENCH_<n>.json`` point.
    """
    from ..regress import (
        Baseline,
        BaselineError,
        BaselineStore,
        Trajectory,
        TrajectoryError,
        TrajectoryPoint,
        default_baseline_dir,
    )

    jobs, cache, refresh = _sweep_options(args, default_cache=True)
    configs = _matrix_configs(args)
    with _observability(args), _ensure_tracer() as tracer:
        outcome = run_sweep(configs, jobs=jobs, cache=cache, refresh=refresh)
        phases = _phase_dict(tracer.finished)
    try:
        baseline = Baseline.from_sweep(args.name, configs, outcome.results)
        store = BaselineStore(args.baseline_dir or default_baseline_dir())
        path = store.save(baseline)
    except BaselineError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    print(f"recorded baseline {args.name!r}: {len(baseline)} cells -> {path}")
    _print_sweep_summary(outcome, cache)
    if args.trajectory_dir:
        trajectory = Trajectory(args.trajectory_dir)
        index = (args.bench_index if args.bench_index is not None
                 else trajectory.next_index())
        point = TrajectoryPoint.from_results(
            index, outcome.results, label=args.label or args.name,
            phases=phases)
        try:
            point_path = trajectory.append(point)
        except TrajectoryError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
        print(f"appended trajectory point {point_path}")
    return EXIT_OK


def cmd_regress_check(args) -> int:
    """``regress check``: re-measure a baseline's cells and gate.

    Re-runs the *exact* configurations the baseline froze (same sample
    count, same seed — so on an unchanged performance model the samples
    are bit-identical and every cell is ``unchanged``), compares each
    group with Welch's t-test, Cohen's d and a bootstrap ratio CI, and
    exits :data:`EXIT_FINDINGS` when the report trips ``--fail-on``.
    The fresh run deliberately bypasses the sweep cache unless a cache
    is explicitly requested: serving the baseline's own cached samples
    back would make the gate vacuous.
    """
    from ..regress import BaselineError, BaselineStore, compare, default_baseline_dir

    store = BaselineStore(args.baseline_dir or default_baseline_dir())
    try:
        baseline = store.load(args.name)
    except BaselineError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    thresholds = _regress_thresholds(args)
    configs = [cell.run_config() for cell in baseline]
    jobs, cache, refresh = _sweep_options(args, default_cache=False)
    # the comparison stays inside the observability scope so the
    # regress_cells_*_total counters land in a --metrics snapshot
    with _observability(args):
        outcome = run_sweep(configs, jobs=jobs, cache=cache, refresh=refresh)
        report = compare(baseline, outcome.results, thresholds)
    if args.json:
        print(report.to_json())
    else:
        print(report.render_text())
    return EXIT_FINDINGS if report.fails(args.fail_on) else EXIT_OK


def cmd_regress_history(args) -> int:
    """``regress history``: the trajectory and its change points."""
    from ..regress import (
        Trajectory,
        TrajectoryError,
        change_points,
        default_trajectory_dir,
    )

    trajectory = Trajectory(args.trajectory_dir or default_trajectory_dir())
    try:
        points = trajectory.points()
    except TrajectoryError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    thresholds = _regress_thresholds(args)
    changes = change_points(points, thresholds)
    if args.json:
        import json as jsonmod
        print(jsonmod.dumps({
            "points": [
                {"index": p.index, "label": p.label,
                 "model_version": p.model_version,
                 "created_unix": p.created_unix, "cells": len(p.cells)}
                for p in points
            ],
            "change_points": [c.to_dict() for c in changes],
        }, indent=2, sort_keys=True))
    else:
        if not points:
            print(f"no trajectory points in {trajectory.root}")
        rows = [{
            "point": f"BENCH_{p.index}", "label": p.label,
            "cells": len(p.cells), "model": p.model_version,
        } for p in points]
        if rows:
            print(render_table(rows, f"Trajectory: {trajectory.root}"))
        for change in changes:
            print(change.format())
        print(f"{len(changes)} change point(s) across {len(points)} point(s)")
    if args.fail_on_change and changes:
        return EXIT_FINDINGS
    return EXIT_OK


def cmd_serve(args) -> int:
    """``serve``: benchmark-as-a-service over line-delimited JSON/TCP.

    Full mode queues cell/matrix submissions from many concurrent
    clients (deduplicated in flight, cached, dispatched by priority
    then FIFO over the sweep's ``CellPool``); ``--cache-only`` serves
    just the shared result store so other workers can point
    ``--cache-dir remote://host:port`` at it.  Protocol and topology: ``docs/service.md``.  ``--log-jsonl``
    doubles as the served-job history feeding ``regress render
    --board``.
    """
    from ..service.server import BenchService, serve_forever

    if args.queue_limit < 1:
        raise UsageError("--queue-limit must be >= 1")
    cache = None
    if not args.no_cache:
        cache = SweepCache(args.cache_dir or default_cache_dir())
    elif args.cache_only:
        raise UsageError("--cache-only needs a cache (drop --no-cache)")
    with _observability(args):
        service = BenchService(
            host=args.host, port=args.port, cache=cache, jobs=args.jobs,
            queue_limit=args.queue_limit, cache_only=args.cache_only,
            execute=args.execute)
        serve_forever(service, port_file=args.port_file)
    return EXIT_OK


def cmd_regress_render(args) -> int:
    """``regress render``: the trajectory as a markdown results document.

    Regenerates the committed ``BENCHMARKS.md`` from the
    ``BENCH_<n>.json`` history (rez's auto-updating results-document
    pattern).  ``--check`` compares against the existing output file
    instead of writing, exiting :data:`EXIT_FINDINGS` when stale — the
    CI guard that the document tracks the trajectory.
    """
    from pathlib import Path

    from ..regress import (
        Trajectory,
        TrajectoryError,
        default_trajectory_dir,
        render_markdown,
    )

    trajectory = Trajectory(args.trajectory_dir or default_trajectory_dir())
    try:
        points = trajectory.points()
    except TrajectoryError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "board", False):
        from ..service.board import load_job_history, render_board

        job_records = []
        if args.job_log:
            try:
                job_records = load_job_history(args.job_log)
            except (OSError, ValueError) as exc:
                print(f"cannot read job log {args.job_log!r}: {exc}",
                      file=sys.stderr)
                return EXIT_USAGE
        text = render_board(points, job_records, _regress_thresholds(args))
    elif getattr(args, "job_log", None):
        raise UsageError("--job-log only makes sense with --board")
    else:
        text = render_markdown(points, _regress_thresholds(args))
    if args.check:
        if not args.output:
            raise UsageError("--check requires -o/--output to compare against")
        path = Path(args.output)
        current = path.read_text(encoding="utf-8") if path.exists() else None
        if current != text:
            print(f"{path} is stale; regenerate with "
                  "`python scripts/update_benchmarks_md.py`",
                  file=sys.stderr)
            return EXIT_FINDINGS
        print(f"{path} is up to date ({len(points)} trajectory point(s))")
        return EXIT_OK
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output} ({len(points)} trajectory point(s))")
    else:
        print(text, end="")
    return EXIT_OK


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome/Perfetto trace-event JSON of "
                             "every enqueued command (open in ui.perfetto.dev)")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write harness metrics in Prometheus text format")
    parser.add_argument("--log-jsonl", default=None, metavar="PATH",
                        help="write a structured JSONL run log")


def build_parser() -> argparse.ArgumentParser:
    """The full ``opendwarfs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="opendwarfs",
        description="Extended OpenDwarfs benchmark suite (simulated OpenCL)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-devices", help="show the device catalog"
                   ).set_defaults(func=cmd_list_devices)

    run = sub.add_parser(
        "run", help="run one benchmark, or `all` for the full sweep matrix")
    run.add_argument("benchmark", choices=sorted(BENCHMARKS) + ["all"],
                     help="benchmark name, or `all` for every benchmark x "
                          "size x device (parallel, cached, model-only)")
    run.add_argument("--size", choices=SIZES, default=None)
    run.add_argument("--device", default=None, help="device name from Table 1")
    run.add_argument("--samples", type=int, default=50)
    run.add_argument("--seed", type=int, default=12345,
                     help="base RNG seed for the measurement protocol")
    run.add_argument("--no-execute", action="store_true",
                     help="model-only timing (skip functional execution)")
    run.add_argument("--profile", action="store_true",
                     help="self-profile the harness and print the "
                          "phase/hotspot report afterwards")
    _add_sweep_flags(run)
    _add_observability_flags(run)
    run.set_defaults(func=cmd_run, rest=[])

    table = sub.add_parser("table", help="print a paper table")
    table.add_argument("number", type=int, choices=(1, 2, 3))
    table.set_defaults(func=cmd_table)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("figure_id",
                        help="1, 2a-2e, 3a, 3b, 4 or 5")
    figure.add_argument("--samples", type=int, default=50)
    figure.add_argument("--csv", action="store_true")
    figure.add_argument("--html", default=None, metavar="PATH",
                        help="also render boxplots to an HTML file")
    _add_sweep_flags(figure)
    _add_observability_flags(figure)
    figure.set_defaults(func=cmd_figure)

    trace = sub.add_parser(
        "trace", help="convert a saved LSB recorder file to a Chrome trace, "
                      "or summarise a trace with --summary")
    trace.add_argument("lsb_file",
                       help="LibSciBench .r file (see repro.scibench.lsb) "
                            "or, with --summary, a Chrome trace JSON")
    trace.add_argument("-o", "--output", default=None, metavar="PATH",
                       help="output path (default: <lsb_file>.trace.json)")
    trace.add_argument("--summary", action="store_true",
                       help="print span count, total/self time and the "
                            "top-k slices instead of writing a trace")
    trace.add_argument("--top", type=int, default=10, metavar="K",
                       help="slices to list in the summary (default: 10)")
    trace.set_defaults(func=cmd_trace)

    profile = sub.add_parser(
        "profile",
        help="self-profile the harness: phase attribution, hotspots, "
             "flamegraph input, merged Perfetto trace")
    profile_sub = profile.add_subparsers(dest="profile_command",
                                         required=True)

    def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--size", choices=SIZES, default=None)
        parser.add_argument("--device", default=None,
                            help="device name from Table 1 (default: all)")
        parser.add_argument("--samples", type=int, default=50)
        parser.add_argument("--seed", type=int, default=12345)
        parser.add_argument("--no-execute", action="store_true",
                            help="model-only timing (skip functional "
                                 "execution)")
        parser.add_argument("--format", choices=("table", "folded", "json"),
                            default="table",
                            help="report rendering (default: table)")
        parser.add_argument("-o", "--output", default=None, metavar="PATH",
                            help="write the report here instead of stdout")
        parser.add_argument("--folded", default="profile.folded",
                            metavar="PATH",
                            help="folded-stack output for flamegraph.pl / "
                                 "speedscope (default: %(default)s)")
        parser.add_argument("--trace", default="profile.trace.json",
                            metavar="PATH",
                            help="merged Perfetto trace output "
                                 "(default: %(default)s)")
        parser.add_argument("--memory", action="store_true",
                            help="also track allocations with tracemalloc "
                                 "(per-cell peak attribution)")
        parser.add_argument("--top", type=int, default=20, metavar="N",
                            help="hotspots to list (default: 20)")
        _add_sweep_flags(parser)

    profile_run = profile_sub.add_parser(
        "run", help="profile a sweep of one benchmark")
    profile_run.add_argument("benchmark", choices=sorted(BENCHMARKS))
    _add_profile_flags(profile_run)
    profile_run.set_defaults(func=cmd_profile)

    profile_all = profile_sub.add_parser(
        "all", help="profile the full measurement matrix")
    _add_profile_flags(profile_all)
    profile_all.set_defaults(func=cmd_profile, benchmark=None)

    characterize = sub.add_parser(
        "characterize", help="AIWC metrics + suite diversity (paper §7)")
    characterize.add_argument("--size", choices=SIZES, default="large")
    characterize.set_defaults(func=cmd_characterize)

    aiwc = sub.add_parser(
        "aiwc", help="AIWC characterization: dynamic profiles or the "
                     "static IR stage")
    aiwc.add_argument("source", nargs="?", default=None, metavar="FILE.cl",
                      help="characterize a user-supplied OpenCL source "
                           "statically (no dynamic run; a default launch "
                           "model is synthesized)")
    aiwc.add_argument("--static", action="store_true",
                      help="derive the vectors from the kernel IR instead "
                           "of the hand-authored profiles (covers the "
                           "extension benchmarks too)")
    aiwc.add_argument("--benchmark",
                      choices=sorted(BENCHMARKS) + sorted(EXTENSIONS),
                      default=None,
                      help="restrict the table to one benchmark")
    aiwc.add_argument("--size", choices=SIZES, default="large")
    aiwc.add_argument("--json", action="store_true",
                      help="emit the metric rows as JSON")
    aiwc.set_defaults(func=cmd_aiwc)

    autotune = sub.add_parser(
        "autotune", help="local work-group size tuning (paper §7)")
    autotune.add_argument("benchmark", choices=sorted(BENCHMARKS))
    autotune.add_argument("--size", choices=SIZES, default="large")
    autotune.add_argument("--device", default="GTX 1080")
    autotune.set_defaults(func=cmd_autotune)

    schedule = sub.add_parser(
        "schedule", help="best device under time/energy budgets (paper §7)")
    schedule.add_argument("benchmark", choices=sorted(BENCHMARKS))
    schedule.add_argument("--size", choices=SIZES, default="large")
    schedule.add_argument("--objective", choices=("time", "energy", "edp"),
                          default="time")
    schedule.add_argument("--time-budget", type=float, default=None,
                          metavar="SECONDS")
    schedule.add_argument("--energy-budget", type=float, default=None,
                          metavar="JOULES")
    schedule.set_defaults(func=cmd_schedule)

    transfers = sub.add_parser(
        "transfers", help="host<->device transfer times (paper §4.3)")
    transfers.add_argument("benchmark", choices=sorted(BENCHMARKS))
    transfers.add_argument("--size", choices=SIZES, default="small")
    transfers.add_argument("--device", default="GTX 1080")
    transfers.set_defaults(func=cmd_transfers)

    lint = sub.add_parser(
        "lint", help="kernel lint + runtime sanitizer (repro.analysis)")
    lint.add_argument("--benchmark",
                      choices=sorted(BENCHMARKS) + sorted(EXTENSIONS),
                      default=None,
                      help="restrict to one benchmark (default: the whole "
                           "suite, paper set plus extensions)")
    lint.add_argument("--size", choices=SIZES, default=None,
                      help="problem size (default: each benchmark's smallest)")
    lint.add_argument("--sanitize", action="store_true",
                      help="also execute kernels under the shadow-memory "
                           "sanitizer (OOB, uninit reads, races, leaks)")
    lint.add_argument("--json", action="store_true",
                      help="emit the JSON report (schema: docs/analysis.md)")
    lint.add_argument("--ignore", action="append", default=[], metavar="CHECK",
                      choices=sorted(DEFAULT_SEVERITIES),
                      help="drop findings of this check id (repeatable)")
    lint.add_argument("--fail-on", choices=FAIL_ON_CHOICES, default="error",
                      help="exit nonzero when a finding reaches this "
                           "severity; 'any' trips on every finding "
                           "(default: error)")
    lint.add_argument("--device", default="i7-6700K",
                      help="catalog device to execute on")
    lint.add_argument("--metrics", default=None, metavar="PATH",
                      help="write analysis metrics in Prometheus text format")
    lint.set_defaults(func=cmd_lint)

    verify = sub.add_parser("verify-sizes",
                            help="cache-counter verification of Table 2 sizes")
    verify.add_argument("benchmark", choices=sorted(BENCHMARKS))
    verify.add_argument("--device", default="i7-6700K")
    verify.set_defaults(func=cmd_verify_sizes)

    regress = sub.add_parser(
        "regress",
        help="performance-regression gate: baselines, checks, history")
    regress_sub = regress.add_subparsers(dest="regress_command",
                                         required=True)

    def _add_threshold_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--alpha", type=float, default=0.01,
                            help="Welch's-test significance level "
                                 "(default: 0.01)")
        parser.add_argument("--min-effect", type=float, default=0.5,
                            metavar="D",
                            help="minimum |Cohen's d| in pooled-sigma units "
                                 "(default: 0.5, the paper's detection "
                                 "target)")
        parser.add_argument("--min-shift", type=float, default=0.03,
                            metavar="FRACTION",
                            help="minimum relative mean shift "
                                 "(default: 0.03 = 3%%)")

    record = regress_sub.add_parser(
        "record", help="measure a sweep and freeze it as a named baseline")
    record.add_argument("--name", default="default",
                        help="baseline name (default: %(default)s)")
    record.add_argument("--benchmark", choices=sorted(BENCHMARKS),
                        default=None,
                        help="restrict to one benchmark (default: all)")
    record.add_argument("--size", choices=SIZES, default=None,
                        help="restrict to one problem size (default: each "
                             "benchmark's presets)")
    record.add_argument("--device", default=None,
                        help="restrict to one Table 1 device (default: the "
                             "full catalog)")
    record.add_argument("--samples", type=int, default=50)
    record.add_argument("--seed", type=int, default=12345,
                        help="base RNG seed for the measurement protocol")
    record.add_argument("--no-execute", action="store_true",
                        help="model-only timing (skip functional execution)")
    record.add_argument("--baseline-dir", default=None, metavar="DIR",
                        help="baseline store location (default: "
                             "$REPRO_BASELINE_DIR or .repro/baselines)")
    record.add_argument("--trajectory-dir", default=None, metavar="DIR",
                        help="also append this run to the BENCH_<n>.json "
                             "trajectory in DIR")
    record.add_argument("--bench-index", type=int, default=None, metavar="N",
                        help="force the trajectory point index (default: "
                             "next free)")
    record.add_argument("--label", default=None,
                        help="trajectory point label, e.g. a git revision "
                             "(default: the baseline name)")
    _add_sweep_flags(record)
    _add_observability_flags(record)
    record.set_defaults(func=cmd_regress_record)

    check = regress_sub.add_parser(
        "check", help="re-measure a baseline's cells and gate on regressions")
    check.add_argument("--name", default="default",
                       help="baseline name (default: %(default)s)")
    check.add_argument("--baseline-dir", default=None, metavar="DIR",
                       help="baseline store location (default: "
                            "$REPRO_BASELINE_DIR or .repro/baselines)")
    check.add_argument("--fail-on", choices=("regressed", "changed", "none"),
                       default="regressed",
                       help="exit 1 when the report has this (default: "
                            "%(default)s; `changed` also trips on "
                            "improvements and coverage drift)")
    check.add_argument("--json", action="store_true",
                       help="emit the JSON report (schema: "
                            "docs/regression.md)")
    _add_threshold_flags(check)
    _add_sweep_flags(check)
    _add_observability_flags(check)
    check.set_defaults(func=cmd_regress_check)

    history = regress_sub.add_parser(
        "history", help="render the BENCH_<n>.json trajectory + change points")
    history.add_argument("--trajectory-dir", default=None, metavar="DIR",
                         help="trajectory location (default: "
                              "$REPRO_TRAJECTORY_DIR or .repro/trajectory)")
    history.add_argument("--json", action="store_true",
                         help="emit points and change points as JSON")
    history.add_argument("--fail-on-change", action="store_true",
                         help="exit 1 when any change point is detected")
    _add_threshold_flags(history)
    history.set_defaults(func=cmd_regress_history)

    render = regress_sub.add_parser(
        "render",
        help="render the trajectory as a markdown results document "
             "(BENCHMARKS.md)")
    render.add_argument("--trajectory-dir", default=None, metavar="DIR",
                        help="trajectory location (default: "
                             "$REPRO_TRAJECTORY_DIR or .repro/trajectory)")
    render.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="write the document here (default: stdout)")
    render.add_argument("--check", action="store_true",
                        help="compare against -o instead of writing; exit 1 "
                             "when the committed document is stale")
    render.add_argument("--board", action="store_true",
                        help="append the served-job history section "
                             "(the auto-updating results board)")
    render.add_argument("--job-log", default=None, metavar="PATH",
                        help="service JSONL run log feeding the board's "
                             "Served jobs section (from `serve --log-jsonl`)")
    _add_threshold_flags(render)
    render.set_defaults(func=cmd_regress_render)

    serve = sub.add_parser(
        "serve",
        help="benchmark-as-a-service: queue cells/matrices over TCP "
             "(docs/service.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=0, metavar="N",
                       help="TCP port (default: 0 = ephemeral; see "
                            "--port-file)")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port here once listening "
                            "(for scripts racing an ephemeral port)")
    serve.add_argument("--queue-limit", type=int, default=64, metavar="N",
                       help="pending-job bound before submits are rejected "
                            "with retry_after (default: %(default)s)")
    serve.add_argument("--cache-only", action="store_true",
                       help="serve only the shared result store (no "
                            "compute); workers reach it via --cache-dir "
                            "remote://HOST:PORT")
    serve.add_argument("--execute", action="store_true",
                       help="default served cells to functional execution "
                            "+ validation (clients can override per "
                            "request)")
    _add_sweep_flags(serve)
    _add_observability_flags(serve)
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit status."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # For `run`, peel off the paper-style tail — the `-p/-d/-t` device
    # triple and everything after `--` — before argparse sees it, since
    # those short flags collide with argparse option handling.
    rest: list[str] = []
    if argv and argv[0] == "run":
        for i, token in enumerate(argv):
            if token == "--" or (token in ("-p", "-d", "-t") and i > 1):
                rest = argv[i:]
                argv = argv[:i]
                break
    args = build_parser().parse_args(argv)
    if hasattr(args, "rest"):
        args.rest = rest
    try:
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except WorkerDied as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_WORKER_DIED
    except BrokenPipeError:
        # stdout consumer (head, less) closed the pipe: not an error
        import os
        try:
            sys.stdout.close()
        except Exception:
            pass
        os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
