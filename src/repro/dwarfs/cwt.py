"""cwt — continuous wavelet transform (planned extension, paper §2).

"We have also added a 2-D discrete wavelet transform from the Rodinia
suite ... and **we plan to add a continuous wavelet transform code**."
This module delivers that planned benchmark: a Morlet CWT of a 1-D
signal across a bank of scales, computed the way GPU implementations
do it — one FFT of the signal, then per-scale frequency-domain
multiplication with the wavelet's spectrum and an inverse FFT
(one kernel launch per scale).

It is an *extension* benchmark: it registers in
:data:`repro.dwarfs.registry.EXTENSIONS` rather than the paper's
Table 2/3 set, so the reproduced tables stay faithful, but it runs
under exactly the same harness, sizing and model machinery.

Validation: a float64 direct time-domain convolution reference on a
subset of scales.
"""

from __future__ import annotations

import numpy as np

from ..cache import trace as trace_mod
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError, assert_close)

#: Morlet centre frequency (rad/s), the conventional omega0.
OMEGA0 = 6.0

#: Scales per decade in the default bank.
SCALES_PER_OCTAVE = 4


def morlet_spectrum(n: int, scale: float, dt: float = 1.0) -> np.ndarray:
    """Frequency-domain Morlet wavelet at one scale, for an n-point FFT.

    The (analytic) Morlet has spectrum
    ``pi^-1/4 * H(w) * exp(-(s*w - w0)^2 / 2)`` where H is the unit
    step; normalised so energy is scale-invariant.
    """
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    s_omega = scale * omega
    spectrum = np.zeros(n)
    positive = omega > 0
    spectrum[positive] = (np.pi ** -0.25) * np.exp(
        -0.5 * (s_omega[positive] - OMEGA0) ** 2)
    return (spectrum * np.sqrt(2.0 * np.pi * scale / dt)).astype(np.float64)


def morlet_time(scale: float, length: int, dt: float = 1.0) -> np.ndarray:
    """Time-domain analytic Morlet at one scale (validation reference)."""
    half = length // 2
    t = (np.arange(length) - half) * dt
    x = t / scale
    wave = (np.pi ** -0.25) * np.exp(1j * OMEGA0 * x) * np.exp(-0.5 * x * x)
    return wave * (dt / np.sqrt(scale))


def default_scales(n_scales: int, smallest: float = 4.0) -> np.ndarray:
    """A geometric bank of ``n_scales`` scales, SCALES_PER_OCTAVE/octave.

    The smallest scale of 4 samples keeps the Morlet spectrum
    negligible at Nyquist (at scale 2 the wavelet aliases).
    """
    return smallest * 2.0 ** (np.arange(n_scales) / SCALES_PER_OCTAVE)


def _cwt_scale_kernel(nd, signal_hat, out, scale, n, dt):
    """One scale: multiply by the wavelet spectrum, inverse FFT."""
    n = int(n)
    psi = morlet_spectrum(n, float(scale), float(dt))
    out[...] = np.fft.ifft(signal_hat * psi).astype(np.complex64)


def _fft_kernel(nd, signal, signal_hat):
    """Forward FFT of the input signal."""
    signal_hat[...] = np.fft.fft(signal).astype(np.complex64)


class CWT(Benchmark):
    """Spectral Methods (extension): continuous wavelet transform."""

    name = "cwt"
    dwarf = "Spectral Methods"
    presets = {"tiny": 1024, "small": 8192, "medium": 262144, "large": 1048576}
    args_template = "{phi} 32"

    def __init__(self, n: int, n_scales: int = 32, seed: int = 77):
        super().__init__()
        if n & (n - 1) or n <= 0:
            raise ValueError(f"signal length must be a power of two, got {n}")
        if n_scales < 1:
            raise ValueError(f"need at least one scale, got {n_scales}")
        self.n = int(n)
        self.n_scales = int(n_scales)
        self.scales = default_scales(self.n_scales)
        self.seed = seed
        self.signal: np.ndarray | None = None
        self.coefficients: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "CWT":
        return cls(n=int(phi), **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "CWT":
        """Parse ``N [n_scales]``."""
        if not 1 <= len(argv) <= 2:
            raise ValueError(f"cwt: expected 'N [scales]', got {argv!r}")
        kwargs = dict(n=int(argv[0]))
        if len(argv) == 2:
            kwargs["n_scales"] = int(argv[1])
        return cls(**kwargs, **overrides)

    # ------------------------------------------------------------------
    def static_launches(self) -> StaticLaunchModel:
        n = self.n
        launches = [StaticLaunch(
            "cwt_fft", (n,),
            buffers={"signal": ("signal", 0), "signal_hat": ("hat", 0)})]
        for i, scale in enumerate(self.scales):
            launches.append(StaticLaunch(
                "cwt_scale", (n,),
                scalars={"scale": float(scale), "n": n, "dt": 1.0},
                buffers={"signal_hat": ("hat", 0), "out": ("out", i * n * 8)}))
        return StaticLaunchModel(
            source=kernels_cl.CWT_CL,
            macros={"OMEGA0": OMEGA0,
                    "PI_QUARTER_INV": float(np.pi) ** -0.25},
            buffers={
                "signal": StaticBuffer("signal", n * 4),
                "hat": StaticBuffer("hat", n * 8),
                "out": StaticBuffer("out", self.n_scales * n * 8),
            },
            launches=tuple(launches),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        rng = np.random.default_rng(self.seed)
        # a linear chirp plus noise: classic CWT demonstration content,
        # rising from n/256 to n/32 cycles (well below Nyquist)
        t = np.arange(self.n) / self.n
        f0, f1 = self.n / 256.0, self.n / 32.0
        phase = 2 * np.pi * (f0 * t + 0.5 * (f1 - f0) * t * t)
        self.signal = (np.sin(phase)
                       + 0.2 * rng.standard_normal(self.n)).astype(np.float32)

        self.buf_signal = context.buffer_like(self.signal, MemFlags.READ_ONLY)
        self.buf_hat = context.buffer_like(np.zeros(self.n, np.complex64))
        self.buf_out = context.buffer_like(
            np.zeros((self.n_scales, self.n), np.complex64))
        program = Program(context, [
            KernelSource("cwt_fft", _fft_kernel, self._profile_fft,
                         cl_source=kernels_cl.CWT_CL),
            KernelSource("cwt_scale", _cwt_scale_kernel, self._profile_scale,
                         cl_source=kernels_cl.CWT_CL),
        ]).build()
        self.kernels = program.all_kernels()
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        return [queue.enqueue_write_buffer(self.buf_signal, self.signal)]

    def run_iteration(self, queue) -> list[Event]:
        """One transform: 1 FFT launch + one launch per scale."""
        self._require_setup()
        fft = self.kernels["cwt_fft"].set_args(self.buf_signal, self.buf_hat)
        events = [queue.enqueue_nd_range_kernel(fft, (self.n,))]
        plane = self.buf_out.array
        for i, scale in enumerate(self.scales):
            k = self.kernels["cwt_scale"].set_args(
                self.buf_hat, plane[i], float(scale), self.n, 1.0)
            events.append(queue.enqueue_nd_range_kernel(k, (self.n,)))
        return events

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        self.coefficients = np.empty((self.n_scales, self.n), np.complex64)
        return [queue.enqueue_read_buffer(self.buf_out, self.coefficients)]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Direct circular-convolution reference on spot scales.

        Spot scales are restricted to the well-sampled band
        ``4 <= s <= n/8``: below it the discretised wavelet aliases,
        above it its support wraps the signal — in both regimes the
        truncated time-domain reference itself is invalid, not the
        transform.
        """
        if self.coefficients is None:
            raise ValidationError("cwt: results were never collected")
        signal = self.signal.astype(np.float64)
        valid = [i for i, s in enumerate(self.scales)
                 if 4.0 <= s <= self.n / 8]
        if not valid:
            raise ValidationError("cwt: no scale in the validatable band")
        spots = {valid[0], valid[len(valid) // 2], valid[-1]}
        for idx in spots:
            scale = float(self.scales[idx])
            wave = morlet_time(scale, self.n)
            # circular convolution with the time-reversed conjugate
            kernel = np.conj(wave[::-1])
            expected = np.fft.ifft(np.fft.fft(signal)
                                   * np.fft.fft(np.roll(kernel, self.n // 2 + 1)))
            assert_close(self.coefficients[idx], expected, 5e-2,
                         f"cwt: scale {scale:.2f} vs direct convolution")

    def power_spectrum(self) -> np.ndarray:
        """Scalogram |W|^2 (scales x time)."""
        if self.coefficients is None:
            raise ValidationError("cwt: results were never collected")
        return np.abs(self.coefficients.astype(np.complex128)) ** 2

    # ------------------------------------------------------------------
    def _profile_fft(self, nd, *args) -> KernelProfile:
        n = self.n
        stages = max(n.bit_length() - 1, 1)
        return KernelProfile(
            name="cwt_fft",
            flops=5.0 * n * stages,
            int_ops=2.0 * n * stages,
            bytes_read=n * 4.0 + n * 8.0 * (stages - 1),
            bytes_written=n * 8.0 * stages,
            working_set_bytes=float(n * 16),
            work_items=n // 2,
            seq_fraction=0.5, strided_fraction=0.3, random_fraction=0.2,
        )

    def _profile_scale(self, nd, *args) -> KernelProfile:
        n = self.n
        stages = max(n.bit_length() - 1, 1)
        return KernelProfile(
            name="cwt_scale",
            flops=(6.0 * n            # complex multiply by the spectrum
                   + 5.0 * n * stages  # inverse FFT
                   + 4.0 * n),         # wavelet spectrum evaluation
            int_ops=2.0 * n * stages,
            bytes_read=n * 8.0 * 2,
            bytes_written=n * 8.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=n,
            seq_fraction=0.6, strided_fraction=0.25, random_fraction=0.15,
        )

    def profiles(self) -> list[KernelProfile]:
        return [
            self._profile_fft(None),
            self._profile_scale(None).scaled(self.n_scales),
        ]

    def trace_spec(self) -> trace_mod.TraceSpec:
        hat_bytes = self.n * 8
        plane_bytes = self.n_scales * self.n * 8
        return trace_mod.TraceSpec.single(
            trace_mod.seq(hat_bytes, passes=min(self.n_scales, 6),
                          budget=("floordiv", 2)),
            trace_mod.seq(plane_bytes, passes=1, offset=hat_bytes,
                          budget=("floordiv", 2)),
        )
