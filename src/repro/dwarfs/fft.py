"""fft — the Spectral Methods dwarf (with dwt).

Radix-2 Stockham autosort FFT, the algorithm underlying Eric
Bainville's OpenCL FFT that the paper adopted after the original
OpenDwarfs FFT "returned incorrect results or failures on some
combinations of platforms and problem sizes" (§2).  Stockham needs no
bit-reversal pass: each of the log2(N) stages is one kernel launch
that ping-pongs between two buffers — hence the benchmark's device
footprint of two complex64 arrays (16·N bytes; the tiny size of 2048
points is exactly 32 KiB).

Validation compares against ``numpy.fft.fft`` by relative L2 norm.
"""

from __future__ import annotations

import numpy as np

from ..cache import trace as trace_mod
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError, assert_close)


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def stockham_stage(src: np.ndarray, dst: np.ndarray, n_total: int, stage: int) -> None:
    """One decimation-in-frequency Stockham stage.

    At stage ``t`` the data is logically an ``(n, s)`` matrix with
    ``n = N >> t`` and ``s = 1 << t``; rows ``p`` and ``p + n/2``
    combine into adjacent output rows ``2p`` and ``2p + 1``.
    """
    n = n_total >> stage
    s = 1 << stage
    m = n // 2
    x = src.reshape(n, s)
    y = dst.reshape(n, s)
    w = np.exp(-2j * np.pi * np.arange(m) / n).astype(src.dtype)
    a, b = x[:m], x[m:]
    y[0::2] = a + b
    y[1::2] = (a - b) * w[:, None]


def _fft_stage_kernel(nd, src, dst, n_total, stage):
    stockham_stage(src, dst, int(n_total), int(stage))


class FFT(Benchmark):
    """Spectral Methods dwarf: 1-D complex-to-complex FFT."""

    name = "fft"
    dwarf = "Spectral Methods"
    presets = {"tiny": 2048, "small": 16384, "medium": 524288, "large": 2097152}
    args_template = "{phi}"

    def __init__(self, n: int, seed: int = 99):
        super().__init__()
        if not _is_pow2(n):
            raise ValueError(f"FFT size must be a power of two, got {n}")
        self.n = int(n)
        self.stages = self.n.bit_length() - 1
        self.seed = seed
        self.signal: np.ndarray | None = None
        self.spectrum_out: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "FFT":
        return cls(n=int(phi), **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "FFT":
        """Parse the Table 3 form: a single size argument."""
        if len(argv) != 1:
            raise ValueError(f"fft: expected one size argument, got {argv!r}")
        return cls(n=int(argv[0]), **overrides)

    # ------------------------------------------------------------------
    def static_launches(self) -> StaticLaunchModel:
        n = self.n
        launches: list[StaticLaunch] = []
        src, dst = "a", "b"
        for stage in range(self.stages):
            launches.append(StaticLaunch(
                "fft_radix2", (n // 2,),
                scalars={"n_total": n, "stage": stage},
                buffers={"src": (src, 0), "dst": (dst, 0)}))
            src, dst = dst, src
        return StaticLaunchModel(
            source=kernels_cl.FFT_CL,
            buffers={"a": StaticBuffer("a", n * 8),
                     "b": StaticBuffer("b", n * 8)},
            launches=tuple(launches),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        rng = np.random.default_rng(self.seed)
        real = rng.standard_normal(self.n)
        imag = rng.standard_normal(self.n)
        self.signal = (real + 1j * imag).astype(np.complex64)

        self.buf_a = context.buffer_like(self.signal)
        self.buf_b = context.buffer_like(np.zeros(self.n, dtype=np.complex64))
        program = Program(context, [
            KernelSource("fft_radix2", _fft_stage_kernel, self._profile_stage,
                         cl_source=kernels_cl.FFT_CL),
        ]).build()
        self.kernel = program.create_kernel("fft_radix2")
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        return [queue.enqueue_write_buffer(self.buf_a, self.signal)]

    def run_iteration(self, queue) -> list[Event]:
        """One full transform: log2(N) ping-pong stage launches."""
        self._require_setup()
        # restore the input (the transform is out-of-place per stage but
        # overwrites both buffers across a full run)
        queue.enqueue_write_buffer(self.buf_a, self.signal)
        events = []
        src, dst = self.buf_a, self.buf_b
        for stage in range(self.stages):
            self.kernel.set_args(src, dst, self.n, stage)
            events.append(
                queue.enqueue_nd_range_kernel(self.kernel, (self.n // 2,))
            )
            src, dst = dst, src
        self._result_buffer = src  # holds the completed spectrum
        return events

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        self.spectrum_out = np.empty(self.n, dtype=np.complex64)
        return [queue.enqueue_read_buffer(self._result_buffer, self.spectrum_out)]

    def validate(self) -> None:
        if self.spectrum_out is None:
            raise ValidationError("fft: results were never collected")
        expected = np.fft.fft(self.signal.astype(np.complex128))
        # fp32 error grows ~ sqrt(log n)
        rtol = 1e-5 * np.sqrt(max(self.stages, 1)) * 20
        assert_close(self.spectrum_out, expected, rtol, "fft: spectrum vs numpy.fft")

    # ------------------------------------------------------------------
    def _profile_stage(self, nd, src, dst, n_total, stage) -> KernelProfile:
        n = int(n_total)
        return KernelProfile(
            name="fft_radix2",
            flops=10.0 * (n / 2),           # complex mul (6) + 2 complex adds (4)
            int_ops=4.0 * (n / 2),          # index arithmetic
            bytes_read=n * 8.0,
            bytes_written=n * 8.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=n // 2,
            seq_fraction=0.45,
            strided_fraction=0.35,          # stride-s / stride-n/2 access
            random_fraction=0.20,           # twiddle + scattered stores
        )

    def profiles(self) -> list[KernelProfile]:
        stage = self._profile_stage(None, None, None, self.n, 0)
        return [stage.scaled(self.stages)]

    def trace_spec(self) -> trace_mod.TraceSpec:
        """Interleaved strided reads/sequential writes per stage."""
        half = self.n * 8  # one buffer
        div = 2 * max(self.stages, 1)  # per-stage budget, halved per stream
        groups = []
        for stage in range(self.stages):
            stride = max(8 * (1 << stage), 64)
            groups.append((
                trace_mod.strided_component(half, stride, passes=1,
                                            budget=("floordiv", div)),
                trace_mod.seq(half, passes=1, offset=half,
                              budget=("floordiv", div)),
            ))
        return trace_mod.TraceSpec(groups=tuple(groups))
