"""The extension example (examples/custom_benchmark.py) keeps working."""

import importlib.util
from pathlib import Path

import pytest

from repro.analysis import SLACK_PER_BUFFER, parse_source, static_footprint
from repro.dwarfs.base import Benchmark

EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "custom_benchmark.py"

EXPECTED_OUTPUT = """\
jacobi3d small: validated, 108.0 KiB, 0.028 ms modeled on i7-6700K

modeled large-size sweep across device classes:
  i7-6700K            4.709 ms  (memory-bound)
  GTX 1080            0.823 ms  (memory-bound)
  R9 Fury X           0.630 ms  (memory-bound)
  K20m                1.176 ms  (memory-bound)
  Xeon Phi 7210       4.275 ms  (memory-bound)

the bandwidth-bound stencil favours GPUs, exactly like srad.
"""


@pytest.fixture(scope="module")
def example():
    spec = importlib.util.spec_from_file_location("custom_benchmark", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_main_output_unchanged(example, capsys):
    example.main()
    assert capsys.readouterr().out == EXPECTED_OUTPUT


def test_kernel_source_parses(example):
    program = parse_source(example.JACOBI_CL)
    assert [k.name for k in program.kernels] == ["jacobi"]
    assert [p.name for p in program.kernels[0].params] == ["src", "dst", "n"]


def test_footprint_is_the_declared_ping_pong_grids(example):
    assert issubclass(example.Jacobi3D, Benchmark)
    for size in example.Jacobi3D.available_sizes():
        bench = example.Jacobi3D.from_size(size)
        model = bench.static_launches()
        assert set(model.buffers) == {"a", "b"}
        assert bench.footprint_bytes() == 2 * bench.n**3 * 4
        assert len(model.launches) == bench.sweeps
        # sweeps alternate between the two grids
        sources = [launch.buffers["src"][0] for launch in model.launches]
        assert sources == ["a", "b"] * (bench.sweeps // 2)


def test_addressed_extents_match_declared_buffers(example):
    """The §4.4 footprint gate holds for the example's launch model."""
    bench = example.Jacobi3D.from_size("tiny")
    model = bench.static_launches()
    static = static_footprint(model)
    assert not static.fallbacks
    delta = static.total_bytes - bench.footprint_bytes()
    assert abs(delta) <= SLACK_PER_BUFFER * len(model.buffers)
