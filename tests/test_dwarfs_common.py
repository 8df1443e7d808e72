"""Uniform behaviour across all eleven dwarf benchmarks."""

import numpy as np
import pytest

from repro import ocl
from repro.dwarfs import BENCHMARKS, SIZES, create, get_benchmark
from repro.dwarfs.base import Benchmark
from repro.dwarfs.registry import EXTENSIONS
from repro.perfmodel import KernelProfile

#: Paper benchmarks plus extensions — the lifecycle contract holds for all.
ALL = sorted([*BENCHMARKS, *EXTENSIONS])


class TestRegistry:
    def test_eleven_benchmarks(self):
        assert len(BENCHMARKS) == 11

    def test_expected_names(self):
        assert set(BENCHMARKS) == {
            "kmeans", "lud", "csr", "fft", "dwt", "srad", "crc", "nw",
            "gem", "nqueens", "hmm",
        }

    def test_lookup_case_insensitive(self):
        assert get_benchmark("KMEANS").name == "kmeans"

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError, match="known"):
            get_benchmark("quicksort")

    def test_dwarf_coverage(self):
        """One benchmark per Berkeley dwarf named in the paper."""
        dwarfs = {cls.dwarf for cls in BENCHMARKS.values()}
        assert dwarfs == {
            "MapReduce", "Dense Linear Algebra", "Sparse Linear Algebra",
            "Spectral Methods", "Structured Grid", "Combinational Logic",
            "Dynamic Programming", "N-Body Methods",
            "Backtrack & Branch and Bound", "Graphical Models",
        }

    def test_four_sizes_except_restricted(self):
        for name, cls in BENCHMARKS.items():
            if name == "nqueens":
                assert cls.available_sizes() == ("tiny",)
            else:
                assert cls.available_sizes() == SIZES


@pytest.mark.parametrize("name", ALL)
class TestLifecycle:
    def test_tiny_end_to_end_validates(self, name, cpu_context, cpu_queue):
        bench = create(name, "tiny")
        bench.run_complete(cpu_context, cpu_queue)
        assert cpu_queue.total_kernel_time_s() > 0

    def test_footprint_matches_allocation(self, name, cpu_context):
        """The paper verifies footprints by printing the sum of device
        allocations; the buffers the launch model declares must sum to
        exactly what host_setup allocates, at tiny and small."""
        sizes = [s for s in ("tiny", "small")
                 if s in get_benchmark(name).presets]
        for size in sizes:
            context = ocl.Context(cpu_context.device)
            try:
                bench = create(name, size)
                bench.host_setup(context)
                assert context.allocated_bytes == bench.footprint_bytes(), size
            finally:
                context.release_all()

    def test_profiles_well_formed(self, name):
        bench = create(name, "tiny")
        profiles = bench.profiles()
        assert profiles
        for p in profiles:
            assert isinstance(p, KernelProfile)
            assert p.work_items >= 1
            assert p.launches >= 1
            assert p.total_ops + p.chain_ops + p.bytes_total > 0

    def test_access_trace_within_footprint(self, name):
        bench = create(name, "tiny")
        trace = bench.access_trace(max_len=5000)
        assert len(trace) > 0
        assert trace.min() >= 0
        # traces address the declared footprint (allow one line of slack)
        assert trace.max() < bench.footprint_bytes() + 64

    def test_validate_before_collect_raises(self, name):
        bench = create(name, "tiny")
        with pytest.raises(AssertionError):
            bench.validate()

    def test_run_before_setup_raises(self, name, cpu_queue):
        bench = create(name, "tiny")
        with pytest.raises(RuntimeError):
            bench.run_iteration(cpu_queue)

    def test_teardown_releases_buffers(self, name, cpu_context):
        bench = create(name, "tiny")
        bench.host_setup(cpu_context)
        bench.teardown()
        assert cpu_context.allocated_bytes == 0

    def test_cli_args_render(self, name):
        text = get_benchmark(name).cli_args("tiny")
        assert text
        assert "{" not in text  # fully substituted

    def test_repeated_iterations_still_validate(self, name, cpu_context,
                                                cpu_queue):
        bench = create(name, "tiny")
        bench.host_setup(cpu_context)
        bench.transfer_inputs(cpu_queue)
        for _ in range(2):
            bench.run_iteration(cpu_queue)
        bench.collect_results(cpu_queue)
        bench.validate()


#: Dwarfs whose per-launch profile callbacks read the cached footprint.
PER_LAUNCH_FOOTPRINT = ["hmm", "lud", "nw"]


@pytest.mark.parametrize("name", PER_LAUNCH_FOOTPRINT)
def test_launch_footprint_equals_footprint_at_every_preset(name):
    for size in get_benchmark(name).presets:
        bench = create(name, size)
        assert bench.launch_footprint_bytes == bench.footprint_bytes(), size


@pytest.mark.parametrize("name", PER_LAUNCH_FOOTPRINT)
def test_iterations_build_the_launch_model_at_most_once(name, cpu_context,
                                                        cpu_queue):
    bench = create(name, "tiny")
    bench.host_setup(cpu_context)
    bench.transfer_inputs(cpu_queue)
    builds = []
    build = bench.static_launches
    bench.static_launches = lambda: builds.append(1) or build()
    for _ in range(3):
        bench.run_iteration(cpu_queue)
    assert len(builds) <= 1
