"""LibSciBench-style stats, timers and recorder."""

import dataclasses
import json
import time

import numpy as np
import pytest

from repro import ocl
from repro.harness.runner import RunConfig, run_benchmark
from repro.harness.sweep import result_to_payload
from repro.scibench import (
    DeviceClock,
    REGION_KERNEL,
    REGION_TRANSFER,
    Recorder,
    WallClock,
    achieved_power,
    coefficient_of_variation,
    required_sample_size,
    summarize,
    welch_t_test,
)


class TestSampleSize:
    def test_paper_sample_size_is_50(self):
        """beta=0.8 at half-sigma separation -> n=50 (paper §4.3)."""
        assert required_sample_size(effect_size=0.5, power=0.8, alpha=0.05) == 50

    def test_larger_effect_needs_fewer(self):
        assert required_sample_size(effect_size=1.0) < required_sample_size(0.5)

    def test_two_sided_needs_more(self):
        assert (required_sample_size(two_sided=True)
                > required_sample_size(two_sided=False))

    def test_achieved_power_at_50(self):
        assert achieved_power(50) == pytest.approx(0.8, abs=0.02)

    def test_achieved_power_tiny_n(self):
        assert achieved_power(1) == 0.0

    def test_invalid_params(self):
        for kwargs in (dict(alpha=0.0), dict(alpha=1.5), dict(power=0.0),
                       dict(effect_size=-1.0)):
            with pytest.raises(ValueError):
                required_sample_size(**kwargs)


class TestSummarize:
    def test_basic_statistics(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.n == 5
        assert s.mean == 3.0
        assert s.median == 3.0
        assert s.minimum == 1.0
        assert s.maximum == 5.0
        assert s.iqr == 2.0

    def test_ci_contains_mean(self):
        s = summarize(np.random.default_rng(0).normal(10, 1, 100))
        assert s.ci_low < s.mean < s.ci_high

    def test_ci_narrows_with_n(self):
        rng = np.random.default_rng(0)
        wide = summarize(rng.normal(10, 1, 10))
        narrow = summarize(rng.normal(10, 1, 1000))
        assert (narrow.ci_high - narrow.ci_low) < (wide.ci_high - wide.ci_low)

    def test_single_sample(self):
        s = summarize([5.0])
        assert s.std == 0.0
        assert s.ci_low == s.ci_high == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_cov(self):
        assert summarize([2.0, 2.0, 2.0]).cov == 0.0
        assert coefficient_of_variation([1.0]) == 0.0
        assert coefficient_of_variation([1.0, 3.0]) > 0

    def test_cov_zero_mean_zero_spread(self):
        # all-zero samples: no spread, cov is a well-defined 0
        assert summarize([0.0, 0.0, 0.0]).cov == 0.0
        assert coefficient_of_variation([0.0, 0.0]) == 0.0

    def test_cov_zero_mean_nonzero_spread_is_nan(self):
        # mean 0 with real spread: cov is undefined, not an inf/crash
        import math
        assert math.isnan(summarize([-1.0, 1.0]).cov)
        assert math.isnan(coefficient_of_variation([-1.0, 1.0]))


class TestWelch:
    def test_detects_difference(self, rng):
        a = rng.normal(10.0, 1.0, 50)
        b = rng.normal(10.5, 1.0, 50)  # half-sigma shift: the paper's target
        _, p = welch_t_test(a, b)
        assert p < 0.2  # detectable most of the time at n=50

    def test_same_distribution_high_p(self, rng):
        a = rng.normal(10.0, 1.0, 50)
        _, p = welch_t_test(a, a)
        assert p == pytest.approx(1.0)


class TestTimers:
    def test_wall_clock_measures(self):
        clock = WallClock()
        with clock:
            time.sleep(0.01)
        assert clock.elapsed_ns >= 9_000_000

    def test_wall_clock_accumulates(self):
        clock = WallClock()
        for _ in range(3):
            with clock:
                pass
        assert clock.elapsed_ns >= 0
        clock.reset()
        assert clock.elapsed_ns == 0

    def test_stop_without_start(self):
        with pytest.raises(RuntimeError):
            WallClock().stop()

    def test_device_clock_brackets_commands(self, cpu_context):
        queue = ocl.CommandQueue(cpu_context)
        buf = cpu_context.create_buffer(size=1 << 20)
        clock = DeviceClock(queue)
        with clock:
            queue.enqueue_fill_buffer(buf, 0)
        assert clock.elapsed_ns > 0

    def test_device_clock_idle_is_zero(self, cpu_context):
        queue = ocl.CommandQueue(cpu_context)
        clock = DeviceClock(queue)
        with clock:
            pass
        assert clock.elapsed_ns == 0


class TestRecorder:
    def test_record_and_summarise(self):
        rec = Recorder("t")
        for v in (1.0, 2.0, 3.0):
            rec.record(REGION_KERNEL, v)
        assert rec.count(REGION_KERNEL) == 3
        assert rec.summary(REGION_KERNEL).mean == 2.0

    def test_regions_kept_separate(self):
        rec = Recorder()
        rec.record(REGION_KERNEL, 1.0)
        rec.record(REGION_TRANSFER, 9.0)
        assert rec.regions == (REGION_KERNEL, REGION_TRANSFER)
        assert rec.summary(REGION_TRANSFER).mean == 9.0

    def test_energy_summary(self):
        rec = Recorder()
        rec.record(REGION_KERNEL, 1.0, energy_j=5.0)
        rec.record(REGION_KERNEL, 1.0)  # no energy
        assert rec.energy_summary(REGION_KERNEL).n == 1

    def test_missing_region_raises(self):
        with pytest.raises(KeyError):
            Recorder().summary("nope")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Recorder().record(REGION_KERNEL, -1.0)

    def test_record_event(self, cpu_context):
        queue = ocl.CommandQueue(cpu_context)
        buf = cpu_context.create_buffer(size=1024)
        event = queue.enqueue_fill_buffer(buf, 0)
        rec = Recorder()
        rec.record_event(REGION_TRANSFER, event)
        assert rec.count(REGION_TRANSFER) == 1

    def test_csv_export(self):
        rec = Recorder()
        rec.record(REGION_KERNEL, 0.5, energy_j=2.0)
        csv = rec.to_csv()
        assert "region,time_s,energy_j" in csv
        assert "kernel,0.5,2" in csv

    def test_clear(self):
        rec = Recorder()
        rec.record(REGION_KERNEL, 1.0)
        rec.clear()
        assert len(rec) == 0


class TestRecordSamples:
    """``record_samples`` is one call for what a loop of ``record`` did."""

    @pytest.fixture(params=["GTX 1080", "i7-6700K", "R9 290X"])
    def result(self, request):
        return run_benchmark(RunConfig("fft", "tiny", request.param, samples=12,
                                       execute=False))

    @staticmethod
    def _record_loop(result):
        rec = Recorder(result.recorder.name)
        for t, e in zip(result.times_s, result.energies_j):
            rec.record(REGION_KERNEL, float(t), energy_j=float(e), sampled=True)
        return rec

    def test_same_as_record_loop(self, result):
        batch, loop = result.recorder, self._record_loop(result)
        assert batch._measurements == loop._measurements
        for m in batch._measurements:
            assert type(m.time_s) is float and type(m.energy_j) is float
        assert batch.to_csv() == loop.to_csv()
        looped = dataclasses.replace(result, recorder=loop)
        assert (json.dumps(result_to_payload(result)["recorder"])
                == json.dumps(result_to_payload(looped)["recorder"]))

    def test_each_measurement_owns_its_tags(self):
        rec = Recorder()
        rec.record_samples(REGION_KERNEL, np.array([1.0, 2.0]),
                           np.array([3.0, 4.0]), sampled=True)
        first, second = rec._measurements
        assert first.tags == second.tags == {"sampled": True}
        assert first.tags is not second.tags
        first.tags["extra"] = 1
        assert second.tags == {"sampled": True}

    def test_negative_time_rejected(self):
        rec = Recorder()
        with pytest.raises(ValueError):
            rec.record_samples(REGION_KERNEL, np.array([1.0, -1e-9, 2.0]),
                               np.array([1.0, 1.0, 1.0]))
        assert len(rec) == 0
