#!/usr/bin/env python
"""Extending the suite: write a new OpenDwarfs-style benchmark.

The paper aims 'to achieve a full representation of each dwarf ... by
integrating other benchmark suites and adding custom kernels' (§2).
This example adds a custom kernel — a 7-point 3-D Jacobi stencil
(another Structured Grid representative) — through the same public API
the built-in dwarfs use, then sizes and measures it exactly like the
rest of the suite.  Like every built-in dwarf, it declares its device
buffers once, in ``static_launches()``: the footprint is their sum, and
the IR analyses read the same model.

Run:  python examples/custom_benchmark.py
"""

import numpy as np

from repro import ocl
from repro.dwarfs.base import (Benchmark, StaticBuffer, StaticLaunch,
                               StaticLaunchModel, assert_close)
from repro.ocl import Context, KernelSource, MemFlags, Program
from repro.perfmodel import KernelProfile, iteration_time
from repro.devices import get_device

#: OpenCL C source of the kernel (what a real OpenCL port would build).
JACOBI_CL = r"""
// Structured Grid: one 7-point Jacobi sweep on an n^3 grid
__kernel void jacobi(__global const float *src, __global float *dst, int n)
{
    const int idx = get_global_id(0);
    const int y = (idx / n) % n, x = idx % n;
    // boundary cells copy through; the first two tests are the z faces
    if (idx < n * n || idx >= (n - 1) * n * n
            || y == 0 || y == n - 1 || x == 0 || x == n - 1) {
        dst[idx] = src[idx];
        return;
    }
    dst[idx] = (src[idx - n * n] + src[idx + n * n]
              + src[idx - n] + src[idx + n]
              + src[idx - 1] + src[idx + 1]) / 6.0f;
}
"""


def _jacobi_kernel(nd, src, dst, n):
    """One 7-point Jacobi sweep on an n^3 grid (interior only)."""
    n = int(n)
    a = src.reshape(n, n, n)
    out = dst.reshape(n, n, n)
    out[...] = a
    out[1:-1, 1:-1, 1:-1] = (
        a[:-2, 1:-1, 1:-1] + a[2:, 1:-1, 1:-1]
        + a[1:-1, :-2, 1:-1] + a[1:-1, 2:, 1:-1]
        + a[1:-1, 1:-1, :-2] + a[1:-1, 1:-1, 2:]
    ) / 6.0


class Jacobi3D(Benchmark):
    """Structured Grid: 7-point Jacobi relaxation on an n^3 grid."""

    name = "jacobi3d"
    dwarf = "Structured Grid"
    presets = {"tiny": 12, "small": 24, "medium": 96, "large": 160}
    args_template = "{phi}"

    def __init__(self, n: int, sweeps: int = 4, seed: int = 0):
        super().__init__()
        self.n, self.sweeps, self.seed = int(n), int(sweeps), seed
        self.grid = None
        self.result = None

    @classmethod
    def from_scale(cls, phi, **overrides):
        return cls(n=int(phi), **overrides)

    def static_launches(self) -> StaticLaunchModel:
        """Ping-pong grids ``a`` and ``b``; sweeps alternate between them."""
        grid = self.n**3 * 4
        launches = []
        src, dst = "a", "b"
        for _ in range(self.sweeps):
            launches.append(StaticLaunch(
                "jacobi", (self.n**3,), scalars={"n": self.n},
                buffers={"src": (src, 0), "dst": (dst, 0)}))
            src, dst = dst, src
        return StaticLaunchModel(
            source=JACOBI_CL,
            buffers={"a": StaticBuffer("a", grid),
                     "b": StaticBuffer("b", grid)},
            launches=tuple(launches),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        rng = np.random.default_rng(self.seed)
        self.grid = rng.uniform(0, 1, (self.n,) * 3).astype(np.float32)
        self.buf_a = context.buffer_like(self.grid)
        self.buf_b = context.buffer_like(np.zeros_like(self.grid))
        program = Program(context, [
            KernelSource("jacobi", _jacobi_kernel, self._profile,
                         cl_source=JACOBI_CL),
        ]).build()
        self.kernel = program.create_kernel("jacobi")
        self._setup_done = True

    def transfer_inputs(self, queue):
        self._require_setup()
        return [queue.enqueue_write_buffer(self.buf_a, self.grid)]

    def run_iteration(self, queue):
        self._require_setup()
        queue.enqueue_write_buffer(self.buf_a, self.grid)
        events = []
        src, dst = self.buf_a, self.buf_b
        for _ in range(self.sweeps):
            self.kernel.set_args(src, dst, self.n)
            events.append(queue.enqueue_nd_range_kernel(self.kernel, (self.n**3,)))
            src, dst = dst, src
        self._final = src
        return events

    def collect_results(self, queue):
        self._require_setup()
        self.result = np.empty_like(self.grid)
        return [queue.enqueue_read_buffer(self._final, self.result)]

    def validate(self) -> None:
        ref = self.grid.astype(np.float64)
        for _ in range(self.sweeps):
            nxt = ref.copy()
            nxt[1:-1, 1:-1, 1:-1] = (
                ref[:-2, 1:-1, 1:-1] + ref[2:, 1:-1, 1:-1]
                + ref[1:-1, :-2, 1:-1] + ref[1:-1, 2:, 1:-1]
                + ref[1:-1, 1:-1, :-2] + ref[1:-1, 1:-1, 2:]) / 6.0
            ref = nxt
        assert_close(self.result, ref, 1e-4, "jacobi3d vs float64 reference")

    def _profile(self, nd, src, dst, n) -> KernelProfile:
        n = int(n)
        cells = float(n**3)
        return KernelProfile(
            name="jacobi", flops=7.0 * cells, int_ops=6.0 * cells,
            bytes_read=cells * 4.0, bytes_written=cells * 4.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=n**3, seq_fraction=0.8, strided_fraction=0.2,
        )

    def profiles(self):
        return [self._profile(None, None, None, self.n).scaled(self.sweeps)]


def main() -> None:
    # functional run + validation on one device
    device = ocl.find_device("i7-6700K")
    ctx = Context(device)
    queue = ocl.CommandQueue(ctx)
    bench = Jacobi3D.from_size("small")
    bench.run_complete(ctx, queue)
    print(f"jacobi3d small: validated, {bench.footprint_kib():.1f} KiB, "
          f"{queue.total_kernel_time_s() * 1e3:.3f} ms modeled on {device.name}")
    bench.teardown()

    # the analytic model ranks devices without executing anything
    print("\nmodeled large-size sweep across device classes:")
    bench = Jacobi3D.from_size("large")
    for name in ("i7-6700K", "GTX 1080", "R9 Fury X", "K20m", "Xeon Phi 7210"):
        spec = get_device(name)
        tb = iteration_time(spec, bench.profiles())
        print(f"  {name:15s} {tb.total_s * 1e3:9.3f} ms  ({tb.bound}-bound)")
    print("\nthe bandwidth-bound stencil favours GPUs, exactly like srad.")


if __name__ == "__main__":
    main()
