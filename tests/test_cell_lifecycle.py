"""One cell lifecycle for every driver of the measurement matrix.

``run_sweep`` in-process, ``run_sweep`` over a process pool and the
``repro serve`` engine all hand a cell to the same steps once its key
is known (``repro.harness.sweep``: the cache read/write path,
``adopt_cell``, ``count_cell``).  So on the same cells, each driver
must produce the same payloads, run-log records, counters and
per-cell spans — on a cold cache and again on a warm one.
"""

import asyncio
import json

import pytest

from repro.harness.runner import RunConfig, run_benchmark
from repro.harness.sweep import (
    SweepCache,
    cell_key,
    result_to_payload,
    run_sweep,
)
from repro.service.jobs import ServiceEngine
from repro.telemetry.metrics import default_registry
from repro.telemetry.runlog import memory_runlog
from repro.telemetry.tracer import tracing

SAMPLES = 4

#: Model-only, default seed: exactly the configs the engine builds.
CELLS = [
    RunConfig(benchmark, "tiny", device, samples=SAMPLES,
              execute=False, validate=False)
    for benchmark, device in (("fft", "i7-6700K"), ("crc", "GTX 1080"),
                              ("csr", "R9 290X"))
]


def _sweep(jobs):
    def drive(cache, runlog):
        outcome = run_sweep(CELLS, jobs=jobs, cache=cache, runlog=runlog)
        return [result_to_payload(r) for r in outcome.results]
    return drive


def _serve(cache, runlog):
    async def main():
        engine = ServiceEngine(cache=cache, jobs=2,
                               registry=default_registry(), runlog=runlog)
        jobs = [engine.submit(c.benchmark, c.size, c.device, 1,
                              samples=c.samples)[0] for c in CELLS]
        await engine.start()
        try:
            return list(await asyncio.gather(*[j.future for j in jobs]))
        finally:
            await engine.stop()

    return asyncio.run(main())


@pytest.fixture(scope="module")
def reference():
    return [result_to_payload(run_benchmark(c)) for c in CELLS]


@pytest.mark.parametrize("drive", [_sweep(1), _sweep(2), _serve],
                         ids=["run_sweep-jobs1", "run_sweep-jobs2",
                              "serve-jobs2"])
def test_drivers_share_one_cell_lifecycle(drive, reference, tmp_path):
    keys = {cell_key(c) for c in CELLS}
    cache = SweepCache(tmp_path)
    registry = default_registry()
    registry.reset()
    for kind in ("computed", "cached"):  # cold pass, then warm pass
        runlog, buffer = memory_runlog()
        with tracing() as tracer:
            payloads = drive(cache, runlog)
        assert payloads == reference, f"{kind} payloads differ"

        records = [json.loads(line)
                   for line in buffer.getvalue().splitlines()]
        cell_records = [r for r in records
                        if r["event"] in ("cell_cached", "cell_computed")]
        assert [r["event"] for r in cell_records] == [f"cell_{kind}"] * 3
        assert {r["key"] for r in cell_records} == keys

        cell_spans = [s for s in tracer.finished
                      if s.name in ("sweep_cell", "service_job")]
        assert len(cell_spans) == len(CELLS)
        assert {s.attributes["key"] for s in cell_spans} == keys
        assert {s.attributes["cached"] for s in cell_spans} == {
            kind == "cached"}

    assert registry.counter("sweep_cells_computed_total").total == len(CELLS)
    assert registry.counter("sweep_cells_cached_total").total == len(CELLS)
