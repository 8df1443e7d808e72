"""The in-process workloads, run in a fresh interpreter.

``run.py`` starts this file once per timed phase (and once per set-up
sample), so every pass starts from the state a CLI invocation starts
from.  Usage::

    python3 perfbench/work.py setup <workload>
    python3 perfbench/work.py run <workload> <traced 0|1> <seconds> <out.json>

Both import ``repro.harness.cli``, build the workload's configs and
print ``ready`` with the set-up's calibration (``hostspeed``);
``setup`` then exits.  ``run`` goes on to make as many
whole passes of the workload as fit in ``seconds`` (at least one),
checks every output against ``pins.json`` and writes the measurements
to ``out.json``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (sibling module)
from hostspeed import SETUP_PERIOD_S, Interleaver, cpu_ref_s  # noqa: E402


def configs_for(workload: str) -> list:
    if workload == "sweep_model":
        return workloads.model_configs()
    if workload == "sweep_exec":
        return workloads.exec_configs()
    return []


def sweep_pass(configs: list) -> tuple[list, list[str]]:
    """One serial pass over ``configs`` with an empty artifact memo.

    Returns the cells' results and the error of every cell that raised.
    """
    from repro.harness.artifacts import clear_memo
    from repro.harness.runner import run_benchmark

    clear_memo()
    results, errors = [], []
    for config in configs:
        try:
            results.append(run_benchmark(config))
        except Exception as exc:  # one failed cell must not end the run
            errors.append(f"{config.benchmark}/{config.size}/"
                          f"{config.device}: {exc!r}")
    return results, errors


def sweep_outputs(results: list) -> dict:
    """``{cell id: (payload digest, validated)}`` of a pass's results."""
    from repro.harness.sweep import result_to_payload

    return {
        workloads.cell_id(r.benchmark, r.size, r.device):
            (workloads.payload_digest(result_to_payload(r)), r.validated)
        for r in results
    }


def lint_pass() -> tuple[str | None, int, list[str]]:
    """``lint --deep --traces --aiwc --json`` in-process.

    Returns the report's SHA-256, its finding count and the error if
    the run raised.
    """
    from repro.analysis import run_deep_suite

    digest, findings, errors = None, 0, []
    try:
        report = run_deep_suite(traces=True, aiwc=True)
        text = report.to_json()
        digest = hashlib.sha256(text.encode()).hexdigest()
        findings = len(report.findings)
    except Exception as exc:  # counted as a failed lint run
        errors.append(repr(exc))
    return digest, findings, errors


def check_sweep(workload: str, outputs: dict, errors: list[str],
                configs: list, pins: dict) -> list[str]:
    """Failures of one sweep pass: raised, unvalidated or off-pin cells."""
    failures = list(errors)
    table = pins[workload]
    for config in configs:
        cid = workloads.cell_id(config.benchmark, config.size, config.device)
        if cid not in outputs:
            continue  # already counted in errors
        digest, validated = outputs[cid]
        if config.validate and not validated:
            failures.append(f"{cid}: not validated")
        elif digest != table.get(cid):
            failures.append(f"{cid}: payload digest {digest[:12]} "
                            f"!= pin {str(table.get(cid))[:12]}")
    return failures


def run(workload: str, configs: list, traced: bool, seconds: float) -> dict:
    """Repeat passes for ``seconds``; time each, check its outputs.

    A pass starts only if it is expected to end within ``seconds``
    (the first always starts), so a run never overshoots by a pass.
    An untraced pass runs under an :class:`Interleaver`, whose
    calibration time is taken out of the pass's wall and CPU time; a
    traced pass runs under the span wrappers instead.
    """
    pins = workloads.load_pins()
    recorder = None
    if traced:
        from spans import SpanRecorder, install, layer_metrics

        recorder = SpanRecorder()
        install(recorder, "layers")
    walls, cpus, cpu_refs, failures, attempted = [], [], [], [], 0
    interleaver = Interleaver()
    started = time.perf_counter()
    elapsed: list[float] = []  # whole passes, calibration included
    while not elapsed or (time.perf_counter() - started
                          + statistics.median(elapsed) <= seconds):
        pass_start = time.perf_counter()
        if traced:
            cpu_start, wall_start = time.process_time(), time.perf_counter()
        else:
            interleaver.start()
        if workload == "lint_ir":
            digest, findings, errors = lint_pass()
        else:
            results, errors = sweep_pass(configs)
        if traced:
            part = {"cpu_s": time.process_time() - cpu_start,
                    "wall_s": time.perf_counter() - wall_start}
        else:
            part = interleaver.stop()
            cpu_refs.append(cpu_ref_s([part]))
        elapsed.append(time.perf_counter() - pass_start)
        if len(elapsed) == 1:
            # later passes would add heap growth that depends on how
            # many of them fit in ``seconds``, i.e. on the host's speed
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        walls.append(part["wall_s"])
        cpus.append(part["cpu_s"])
        if workload == "lint_ir":
            attempted += 1
            pin = pins["lint_ir"]
            if errors:
                failures.extend(errors)
            elif findings != pin["findings"] or digest != pin["report_sha256"]:
                failures.append(f"lint report: {findings} findings, "
                                f"sha256 {digest[:12]}")
        else:
            attempted += len(configs)
            failures.extend(check_sweep(workload, sweep_outputs(results),
                                        errors, configs, pins))
    out = {
        "walls": walls,
        "cpus": cpus,
        "cpu_refs": cpu_refs,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }
    if recorder is not None:
        out["layers"] = layer_metrics(recorder)
    return out


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    if workload not in workloads.WORKLOADS:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    setup = Interleaver(SETUP_PERIOD_S)
    setup.start()
    import repro.harness.cli  # noqa: F401

    configs = configs_for(workload)
    print("ready " + json.dumps(setup.stop()), flush=True)
    if mode == "setup":
        return 0
    traced, seconds, out_path = argv[2] == "1", float(argv[3]), argv[4]
    out = run(workload, configs, traced, seconds)
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
