"""PAPI event sets and the RAPL/NVML sensor facades."""

import numpy as np
import pytest

from repro.counters import (
    COUNTER_NAMES,
    NvmlSensor,
    PapiEventSet,
    POWER_ACCURACY_W,
    RaplSensor,
)
from repro.devices import get_device
from repro.perfmodel import mean_power_w


class TestPapiEventSet:
    def test_lifecycle(self, skylake):
        events = PapiEventSet(skylake)
        events.start()
        events.record_memory_trace(np.arange(0, 4096, 64))
        report = events.stop()
        assert report["PAPI_TOT_INS"] == 64
        assert report["PAPI_L1_DCM"] == 64  # all cold misses

    def test_requires_start(self, skylake):
        events = PapiEventSet(skylake)
        with pytest.raises(RuntimeError):
            events.record_instructions(10)

    def test_stop_requires_running(self, skylake):
        events = PapiEventSet(skylake)
        events.start()
        events.stop()
        with pytest.raises(RuntimeError):
            events.stop()

    def test_counter_names_present(self, skylake):
        events = PapiEventSet(skylake)
        events.start()
        events.record_memory_trace(np.arange(0, 1024, 64))
        events.record_branch_trace([0x40] * 10, [True] * 10)
        report = events.stop()
        for name in COUNTER_NAMES:
            assert name in report.counts

    def test_rates_normalised_by_instructions(self, skylake):
        events = PapiEventSet(skylake)
        events.start()
        events.record_memory_trace(np.arange(0, 4096, 64))
        events.record_instructions(936)  # 64 + 936 = 1000 total
        report = events.stop()
        assert report.rate("PAPI_L1_DCM") == pytest.approx(64 / 1000)
        percentages = report.as_percentages()
        assert percentages["PAPI_L1_DCM"] == pytest.approx(6.4)

    def test_l3_miss_ratio(self, skylake):
        events = PapiEventSet(skylake)
        events.start()
        events.record_memory_trace(np.arange(0, 64 * 1024 * 1024, 4096))
        report = events.stop()
        assert 0.0 < report.l3_miss_ratio() <= 1.0

    def test_branch_counters(self, skylake):
        events = PapiEventSet(skylake)
        events.start()
        events.record_branch_trace([0x10] * 100, [True] * 100)
        report = events.stop()
        assert report["PAPI_BR_INS"] == 100
        assert report["PAPI_BR_MSP"] < 10

    def test_working_set_transition_visible(self, skylake):
        """L1 misses jump when the working set crosses 32 KiB."""
        def miss_rate(ws):
            events = PapiEventSet(skylake)
            events.start()
            addrs = np.tile(np.arange(0, ws, 64), 4)
            events.record_memory_trace(addrs)
            return events.stop().rate("PAPI_L1_DCM")
        fits = miss_rate(16 * 1024)
        spills = miss_rate(256 * 1024)
        assert spills > 2 * fits


class TestRapl:
    def test_intel_only(self, gtx1080):
        with pytest.raises(ValueError):
            RaplSensor(gtx1080)

    def test_measure_matches_power_model(self, skylake):
        sensor = RaplSensor(skylake)
        e = sensor.measure(2.0, 0.5)
        assert e == pytest.approx(2.0 * mean_power_w(skylake, 0.5), rel=1e-6)

    def test_cumulative_counter(self, skylake):
        sensor = RaplSensor(skylake)
        sensor.accumulate(1.0, 1.0)
        first = sensor.read_j()
        sensor.accumulate(1.0, 1.0)
        assert sensor.read_j() == pytest.approx(2 * first)

    def test_negative_duration_rejected(self, skylake):
        with pytest.raises(ValueError):
            RaplSensor(skylake).accumulate(-1.0, 0.5)


class TestNvml:
    def test_nvidia_only(self, skylake):
        with pytest.raises(ValueError):
            NvmlSensor(skylake)

    def test_deterministic_without_rng(self, gtx1080):
        sensor = NvmlSensor(gtx1080)
        assert sensor.power_w(0.7) == sensor.power_w(0.7)

    def test_noise_within_accuracy_band(self, gtx1080, rng):
        sensor = NvmlSensor(gtx1080, rng=rng)
        nominal = mean_power_w(gtx1080, 0.7)
        readings = [sensor.power_w(0.7) for _ in range(200)]
        assert all(abs(r - nominal) <= POWER_ACCURACY_W + 1e-9 for r in readings)

    def test_measure_integrates(self, gtx1080):
        sensor = NvmlSensor(gtx1080)
        e = sensor.measure(3.0, 1.0, samples=10)
        assert e == pytest.approx(3.0 * mean_power_w(gtx1080, 1.0), rel=0.01)

    def test_amd_has_no_energy_module(self):
        amd = get_device("R9 290X")
        with pytest.raises(ValueError):
            NvmlSensor(amd)
        with pytest.raises(ValueError):
            RaplSensor(amd)


# ----------------------------------------------------------------------
# Array durations: one draw per cell against the per-reading oracle
# ----------------------------------------------------------------------
SEEDS = (0, 7, 1337)
UTILIZATIONS = (0.0, 0.37, 1.0)


def _durations(seed, n=50):
    """Durations spanning microseconds to seconds, like a sweep's cells."""
    return 10.0 ** np.random.default_rng(seed + 100).uniform(-6, 1, size=n)


def _nvml_oracle(sensor, times, utilization, samples=10):
    out = []
    for t in times:
        if samples < 2:
            out.append(sensor.power_w(utilization) * t)
            continue
        readings = np.array([sensor.power_w(utilization) for _ in range(samples)])
        out.append(float(np.trapezoid(readings, dx=t / (samples - 1))))
    return np.array(out)


def _rapl_oracle(sensor, times, utilization):
    out = []
    for t in times:
        before = sensor.read_j()
        sensor.accumulate(t, utilization)
        out.append(sensor.read_j() - before)
    return np.array(out)


class TestNvmlArrayMeasure:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("utilization", UTILIZATIONS)
    def test_matches_per_reading_loop(self, gtx1080, seed, utilization):
        times = _durations(seed)
        batch_rng = np.random.default_rng(seed)
        loop_rng = np.random.default_rng(seed)
        got = NvmlSensor(gtx1080, rng=batch_rng).measure(times, utilization)
        want = _nvml_oracle(NvmlSensor(gtx1080, rng=loop_rng), times, utilization)
        assert got.shape == times.shape
        assert (got == want).all()
        assert batch_rng.random() == loop_rng.random()

    @pytest.mark.parametrize("n", [0, 1, 7, 200])
    def test_any_length(self, gtx1080, n):
        times = _durations(3, n)
        got = NvmlSensor(gtx1080, rng=np.random.default_rng(3)).measure(times, 0.6)
        want = _nvml_oracle(NvmlSensor(gtx1080, rng=np.random.default_rng(3)),
                            times, 0.6)
        assert got.shape == (n,)
        assert (got == want).all()

    @pytest.mark.parametrize("samples", [0, 1, 2, 5])
    def test_few_readings_per_region(self, gtx1080, samples):
        times = _durations(5)
        batch_rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = NvmlSensor(gtx1080, rng=batch_rng).measure(times, 0.8, samples=samples)
        want = _nvml_oracle(NvmlSensor(gtx1080, rng=loop_rng), times, 0.8, samples)
        assert (got == want).all()
        assert batch_rng.random() == loop_rng.random()

    def test_without_rng(self, gtx1080):
        times = _durations(1)
        sensor = NvmlSensor(gtx1080)
        assert (sensor.measure(times, 0.5) == _nvml_oracle(sensor, times, 0.5)).all()

    def test_scalar_returns_float(self, gtx1080):
        e = NvmlSensor(gtx1080, rng=np.random.default_rng(2)).measure(1.5, 0.5)
        assert type(e) is float
        want = _nvml_oracle(NvmlSensor(gtx1080, rng=np.random.default_rng(2)),
                            [1.5], 0.5)[0]
        assert e == want

    def test_negative_anywhere_rejected(self, gtx1080):
        times = _durations(4)
        times[17] = -1e-3
        with pytest.raises(ValueError):
            NvmlSensor(gtx1080, rng=np.random.default_rng(4)).measure(times, 0.5)
        with pytest.raises(ValueError):
            NvmlSensor(gtx1080).measure(-1.0, 0.5)
        with pytest.raises(ValueError):
            NvmlSensor(gtx1080).measure(np.ones((2, 3)), 0.5)


class TestRaplArrayMeasure:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("utilization", UTILIZATIONS)
    def test_matches_per_reading_loop(self, skylake, seed, utilization):
        times = _durations(seed)
        batch_rng = np.random.default_rng(seed)
        loop_rng = np.random.default_rng(seed)
        batch = RaplSensor(skylake, rng=batch_rng)
        loop = RaplSensor(skylake, rng=loop_rng)
        got = batch.measure(times, utilization)
        want = _rapl_oracle(loop, times, utilization)
        assert got.shape == times.shape
        assert (got == want).all()
        assert batch.read_j() == loop.read_j()
        assert batch_rng.random() == loop_rng.random()

    def test_two_calls_equal_one_sequential_loop(self, skylake):
        times = _durations(9, 60)
        batch = RaplSensor(skylake, rng=np.random.default_rng(9))
        loop = RaplSensor(skylake, rng=np.random.default_rng(9))
        got = np.concatenate([batch.measure(times[:25], 0.4),
                              batch.measure(times[25:], 0.9)])
        want = np.concatenate([_rapl_oracle(loop, times[:25], 0.4),
                               _rapl_oracle(loop, times[25:], 0.9)])
        assert (got == want).all()
        assert batch.read_j() == loop.read_j()

    def test_without_rng(self, skylake):
        times = _durations(2)
        got = RaplSensor(skylake).measure(times, 0.5)
        assert (got == _rapl_oracle(RaplSensor(skylake), times, 0.5)).all()

    def test_scalar_returns_float(self, skylake):
        sensor = RaplSensor(skylake, rng=np.random.default_rng(2))
        e = sensor.measure(1.5, 0.5)
        assert type(e) is float
        oracle = RaplSensor(skylake, rng=np.random.default_rng(2))
        assert e == _rapl_oracle(oracle, [1.5], 0.5)[0]

    def test_negative_anywhere_rejected(self, skylake):
        times = _durations(4)
        times[-1] = -1e-3
        sensor = RaplSensor(skylake, rng=np.random.default_rng(4))
        with pytest.raises(ValueError):
            sensor.measure(times, 0.5)
        assert sensor.read_j() == 0.0
        with pytest.raises(ValueError):
            sensor.measure(-1.0, 0.5)
        with pytest.raises(ValueError):
            sensor.measure(np.ones((2, 3)), 0.5)
