"""dwt — the second Spectral Methods benchmark.

Two-dimensional multi-level discrete wavelet transform, the benchmark
the paper added from Rodinia "with modifications to improve
portability" (§2).  We implement the CDF 5/3 (LeGall) wavelet by
lifting — the JPEG 2000 lossless filter — with symmetric boundary
extension, which handles the odd image dimensions of the paper's
problem sizes (e.g. 72x54 halves to 36x27).

Each decomposition level launches two kernels, ``dwt_rows`` and
``dwt_cols``; coefficients are stored in the tiled subband layout
(LL in the top-left quadrant, then HL/LH/HH) that the benchmark's
"visual tiled fashion" PGM output displays (§4.4.3).  Validation
reconstructs the image through the inverse lifting and demands exact
agreement to floating-point tolerance.

Input is the synthetic gum-leaf image of :mod:`repro.io.images`.
"""

from __future__ import annotations

import numpy as np

from ..cache import trace as trace_mod
from ..io import images, ppm
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError, assert_close)

#: Decomposition levels from the Table 3 arguments (``-l 3``).
LEVELS = 3


def lift53_forward(x: np.ndarray, axis: int) -> np.ndarray:
    """CDF 5/3 forward lifting along ``axis`` with symmetric extension.

    Returns the transformed array with low-pass coefficients packed
    first, then high-pass (subband layout).  Works for odd lengths:
    ``ceil(n/2)`` low-pass and ``floor(n/2)`` high-pass samples.
    """
    x = np.moveaxis(x, axis, 0).astype(np.float32, copy=True)
    n = x.shape[0]
    if n < 2:
        return np.moveaxis(x, 0, axis)
    even = x[0::2].copy()   # n_low  = ceil(n/2)
    odd = x[1::2].copy()    # n_high = floor(n/2)
    n_high = odd.shape[0]
    # predict: d[i] -= (s[i] + s[i+1]) / 2, mirroring at the right edge
    right = even[1 : n_high + 1] if n % 2 == 1 else np.concatenate(
        [even[1:], even[-1:]], axis=0
    )
    odd -= (even[:n_high] + right) / 2.0
    # update: s[i] += (d[i-1] + d[i]) / 4, mirroring at both edges
    d_left = np.concatenate([odd[:1], odd[:-1]], axis=0)
    if n % 2 == 1:
        d_pairs = np.concatenate([odd, odd[-1:]], axis=0)
        d_left = np.concatenate([odd[:1], odd], axis=0)
        even += (d_left + d_pairs) / 4.0
    else:
        even += (d_left + odd) / 4.0
    out = np.concatenate([even, odd], axis=0)
    return np.moveaxis(out, 0, axis)


def lift53_inverse(x: np.ndarray, axis: int) -> np.ndarray:
    """Inverse CDF 5/3 lifting along ``axis`` (exact inverse)."""
    x = np.moveaxis(x, axis, 0).astype(np.float32, copy=True)
    n = x.shape[0]
    if n < 2:
        return np.moveaxis(x, 0, axis)
    n_low = (n + 1) // 2
    even = x[:n_low].copy()
    odd = x[n_low:].copy()
    n_high = odd.shape[0]
    # undo update
    if n % 2 == 1:
        d_pairs = np.concatenate([odd, odd[-1:]], axis=0)
        d_left = np.concatenate([odd[:1], odd], axis=0)
        even -= (d_left + d_pairs) / 4.0
    else:
        d_left = np.concatenate([odd[:1], odd[:-1]], axis=0)
        even -= (d_left + odd) / 4.0
    # undo predict
    right = even[1 : n_high + 1] if n % 2 == 1 else np.concatenate(
        [even[1:], even[-1:]], axis=0
    )
    odd += (even[:n_high] + right) / 2.0
    out = np.empty_like(x)
    out[0::2] = even
    out[1::2] = odd
    return np.moveaxis(out, 0, axis)


def _dwt_rows_kernel(nd, image, h, w):
    """Row-direction lifting on the active LL region."""
    h, w = int(h), int(w)
    region = image[:h, :w]
    region[...] = lift53_forward(region, axis=1)


def _dwt_cols_kernel(nd, image, h, w):
    """Column-direction lifting on the active LL region."""
    h, w = int(h), int(w)
    region = image[:h, :w]
    region[...] = lift53_forward(region, axis=0)


class DWT(Benchmark):
    """Spectral Methods dwarf: 2-D discrete wavelet transform."""

    name = "dwt"
    dwarf = "Spectral Methods"
    presets = {
        "tiny": (72, 54),
        "small": (200, 150),
        "medium": (1152, 864),
        "large": (3648, 2736),
    }
    args_template = "-l 3 {phi1}x{phi2}-gum.ppm"

    def __init__(self, width: int, height: int, levels: int = LEVELS, seed: int = 2018):
        super().__init__()
        if width < 2 ** levels or height < 2 ** levels:
            raise ValueError(
                f"{width}x{height} image too small for {levels} levels"
            )
        self.width = int(width)
        self.height = int(height)
        self.levels = int(levels)
        self.seed = seed
        self.image: np.ndarray | None = None
        self.coefficients_out: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "DWT":
        width, height = phi
        return cls(width=width, height=height, **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "DWT":
        """Parse ``-l L WxH-gum.ppm`` (Table 3)."""
        levels = LEVELS
        size = None
        i = 0
        while i < len(argv):
            if argv[i] == "-l":
                levels = int(argv[i + 1]); i += 2
            else:
                stem = argv[i].split("-")[0]
                w, h = stem.split("x")
                size = (int(w), int(h))
                i += 1
        if size is None:
            raise ValueError("dwt: image size argument required")
        return cls(width=size[0], height=size[1], levels=levels, **overrides)

    # ------------------------------------------------------------------
    def static_launches(self) -> StaticLaunchModel:
        launches: list[StaticLaunch] = []
        for h, w in self._level_shapes():
            for kernel in ("dwt_rows", "dwt_cols"):
                launches.append(StaticLaunch(
                    kernel, (h * w,),
                    scalars={"h": h, "w": w},
                    buffers={"image": ("image", 0)}))
        return StaticLaunchModel(
            source=kernels_cl.DWT_CL,
            buffers={
                "image": StaticBuffer("image", self.width * self.height * 4),
                "raster": StaticBuffer(
                    "raster", self.width * self.height, kernel_bound=False),
            },
            launches=tuple(launches),
        )

    def _level_shapes(self) -> list[tuple[int, int]]:
        """Active (h, w) region per decomposition level."""
        shapes = []
        h, w = self.height, self.width
        for _ in range(self.levels):
            shapes.append((h, w))
            h, w = (h + 1) // 2, (w + 1) // 2
        return shapes

    def host_setup(self, context: Context) -> None:
        self.context = context
        raster = images.gum_leaf_at_scale(self.width, self.height, seed=self.seed)
        self.image = raster.astype(np.float32)
        self.raster = raster

        self.buf_image = context.buffer_like(self.image)
        self.buf_raster = context.buffer_like(raster, MemFlags.READ_ONLY)
        program = Program(context, [
            KernelSource("dwt_rows", _dwt_rows_kernel, self._profile_pass,
                         cl_source=kernels_cl.DWT_CL),
            KernelSource("dwt_cols", _dwt_cols_kernel, self._profile_pass,
                         cl_source=kernels_cl.DWT_CL),
        ]).build()
        self.kernels = program.all_kernels()
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        return [queue.enqueue_write_buffer(self.buf_image, self.image)]

    def run_iteration(self, queue) -> list[Event]:
        """One multi-level forward transform (2 kernels per level)."""
        self._require_setup()
        queue.enqueue_write_buffer(self.buf_image, self.image)
        events = []
        for h, w in self._level_shapes():
            # pixel-parallel NDRanges, as in the Rodinia kernels
            rows = self.kernels["dwt_rows"].set_args(self.buf_image, h, w)
            events.append(queue.enqueue_nd_range_kernel(rows, (h * w,)))
            cols = self.kernels["dwt_cols"].set_args(self.buf_image, h, w)
            events.append(queue.enqueue_nd_range_kernel(cols, (h * w,)))
        return events

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        self.coefficients_out = np.empty_like(self.image)
        return [queue.enqueue_read_buffer(self.buf_image, self.coefficients_out)]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Invert the transform and demand the original image back."""
        if self.coefficients_out is None:
            raise ValidationError("dwt: results were never collected")
        recon = self.coefficients_out.copy()
        for h, w in reversed(self._level_shapes()):
            region = recon[:h, :w]
            region[...] = lift53_inverse(region, axis=0)
            region[...] = lift53_inverse(region, axis=1)
        assert_close(recon, self.image, 1e-4, "dwt: perfect reconstruction")

    def coefficients_pgm(self) -> bytes:
        """The coefficient plane as a tiled PGM (the benchmark's output)."""
        if self.coefficients_out is None:
            raise ValidationError("dwt: results were never collected")
        c = self.coefficients_out
        lo, hi = float(c.min()), float(c.max())
        scale = 255.0 / (hi - lo) if hi > lo else 1.0
        return ppm.dumps(((c - lo) * scale).astype(np.uint8))

    # ------------------------------------------------------------------
    def _profile_pass(self, nd, image, h, w) -> KernelProfile:
        h, w = int(h), int(w)
        pixels = h * w
        return KernelProfile(
            name="dwt_pass",
            flops=6.0 * pixels,             # 2 lifting steps x ~3 flops
            int_ops=3.0 * pixels,
            bytes_read=pixels * 4.0,
            bytes_written=pixels * 4.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=max(nd.work_items if nd is not None else max(h, w), 1),
            seq_fraction=0.5,
            strided_fraction=0.5,           # the column pass strides by W
        )

    def profiles(self) -> list[KernelProfile]:
        out = []
        for h, w in self._level_shapes():
            pixels = h * w
            for name in ("dwt_rows", "dwt_cols"):
                out.append(KernelProfile(
                    name=name,
                    flops=6.0 * pixels,
                    int_ops=3.0 * pixels,
                    bytes_read=pixels * 4.0,
                    bytes_written=pixels * 4.0,
                    working_set_bytes=float(self.footprint_bytes()),
                    work_items=max(pixels, 1),
                    seq_fraction=0.5 if name == "dwt_rows" else 0.1,
                    strided_fraction=0.5 if name == "dwt_rows" else 0.9,
                ))
        return out

    def trace_spec(self) -> trace_mod.TraceSpec:
        """Row-sequential pass interleaved with a column-strided pass."""
        nbytes = self.width * self.height * 4
        return trace_mod.TraceSpec.single(
            trace_mod.seq(nbytes, passes=1, budget=("floordiv", 2)),
            trace_mod.strided_component(nbytes, self.width * 4,
                                        passes=max(self.height // 64, 1),
                                        budget=("floordiv", 2)),
        )
