"""srad — the Structured Grid dwarf.

Speckle Reducing Anisotropic Diffusion (Rodinia), an iterative 4-point
stencil used to despeckle ultrasound imagery.  Two kernels per
diffusion iteration, as in the OpenCL original:

* ``srad1`` — directional derivatives, instantaneous coefficient of
  variation, diffusion coefficient ``c``;
* ``srad2`` — divergence and image update ``J += (lambda/4) * div``.

Boundaries are clamped (Neumann), matching Rodinia's index clamping.
The paper passes ``Φ1 Φ2 0 127 0 127 0.5 1``: grid rows/cols, a
statistics ROI (y1 y2 x1 x2), the diffusion coefficient lambda and the
iteration count (Table 3).

Validation runs an independently-coded float64 reference (padded-array
formulation rather than the kernels' roll-based one) and compares by
relative norm.  Being memory-bandwidth limited, this dwarf is the
paper's example of a code whose CPU-GPU gap widens with problem size
(Fig. 3a).
"""

from __future__ import annotations

import numpy as np

from ..cache import trace as trace_mod
from ..ocl import Context, Event, KernelSource, MemFlags, Program
from ..perfmodel.characterization import KernelProfile
from . import kernels_cl
from .base import (Benchmark, StaticBuffer, StaticLaunch, StaticLaunchModel,
                   ValidationError, assert_close)


def _clamped_shifts(a: np.ndarray):
    """Neighbour views with clamped (Neumann) boundaries."""
    north = np.vstack([a[:1], a[:-1]])
    south = np.vstack([a[1:], a[-1:]])
    west = np.hstack([a[:, :1], a[:, :-1]])
    east = np.hstack([a[:, 1:], a[:, -1:]])
    return north, south, west, east


def _srad1_kernel(nd, j, c, dn, ds, dw, de, q0sqr):
    """Derivatives, ICOV and diffusion coefficient."""
    q0sqr = float(q0sqr)
    north, south, west, east = _clamped_shifts(j)
    dn[...] = north - j
    ds[...] = south - j
    dw[...] = west - j
    de[...] = east - j
    g2 = (dn**2 + ds**2 + dw**2 + de**2) / (j * j)
    l = (dn + ds + dw + de) / j
    num = 0.5 * g2 - 0.0625 * (l * l)
    den = (1.0 + 0.25 * l) ** 2
    qsqr = num / den
    den2 = (qsqr - q0sqr) / (q0sqr * (1.0 + q0sqr))
    c[...] = 1.0 / (1.0 + den2)
    np.clip(c, 0.0, 1.0, out=c)


def _srad2_kernel(nd, j, c, dn, ds, dw, de, lam):
    """Divergence with south/east coefficient lookups; image update."""
    lam = float(lam)
    _, c_south, _, c_east = _clamped_shifts(c)
    div = c_south * ds + c * dn + c_east * de + c * dw
    j += (lam / 4.0) * div


class SRAD(Benchmark):
    """Structured Grid dwarf: speckle-reducing anisotropic diffusion."""

    name = "srad"
    dwarf = "Structured Grid"
    presets = {
        "tiny": (80, 16),
        "small": (128, 80),
        "medium": (1024, 336),
        "large": (2048, 1024),
    }
    args_template = "{phi1} {phi2} 0 127 0 127 0.5 1"

    def __init__(self, rows: int, cols: int, lam: float = 0.5, iterations: int = 1,
                 roi: tuple[int, int, int, int] = (0, 127, 0, 127), seed: int = 3):
        super().__init__()
        if rows < 2 or cols < 2:
            raise ValueError(f"grid must be at least 2x2, got {rows}x{cols}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.lam = float(lam)
        self.iterations = int(iterations)
        # clamp the ROI to the grid, as the benchmark does
        y1, y2, x1, x2 = roi
        self.roi = (min(y1, rows - 1), min(y2, rows - 1),
                    min(x1, cols - 1), min(x2, cols - 1))
        self.seed = seed
        self.image: np.ndarray | None = None
        self.result: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scale(cls, phi, **overrides) -> "SRAD":
        rows, cols = phi
        return cls(rows=rows, cols=cols, **overrides)

    @classmethod
    def from_args(cls, argv: list[str], **overrides) -> "SRAD":
        """Parse ``rows cols y1 y2 x1 x2 lambda iterations``."""
        if len(argv) != 8:
            raise ValueError(
                f"srad: expected 8 positional arguments, got {len(argv)}"
            )
        rows, cols, y1, y2, x1, x2 = (int(v) for v in argv[:6])
        return cls(rows=rows, cols=cols, roi=(y1, y2, x1, x2),
                   lam=float(argv[6]), iterations=int(argv[7]), **overrides)

    # ------------------------------------------------------------------
    def static_launches(self) -> StaticLaunchModel:
        plane = self.rows * self.cols * 4
        keys = ("j_img", "c", "dn", "ds", "dw", "de")
        bind = {key: (key, 0) for key in keys}
        launches: list[StaticLaunch] = []
        for _ in range(self.iterations):
            # q0sqr is data-dependent at runtime; any finite value works
            # for the footprint (it never feeds an index expression)
            launches.append(StaticLaunch(
                "srad1", (self.rows * self.cols,),
                scalars={"q0sqr": 0.5}, buffers=bind))
            launches.append(StaticLaunch(
                "srad2", (self.rows * self.cols,),
                scalars={"lambda_": self.lam}, buffers=bind))
        return StaticLaunchModel(
            source=kernels_cl.SRAD_CL,
            macros={"ROWS": self.rows, "COLS": self.cols},
            buffers={key: StaticBuffer(key, plane) for key in keys},
            launches=tuple(launches),
        )

    def host_setup(self, context: Context) -> None:
        self.context = context
        rng = np.random.default_rng(self.seed)
        # Rodinia exponentiates the input image; speckled positive field.
        base = rng.uniform(0.0, 1.0, size=(self.rows, self.cols))
        self.image = np.exp(base).astype(np.float32)

        shape = (self.rows, self.cols)
        self.buf_j = context.buffer_like(self.image)
        self.buf_c = context.buffer_like(np.zeros(shape, np.float32))
        self.buf_dn = context.buffer_like(np.zeros(shape, np.float32))
        self.buf_ds = context.buffer_like(np.zeros(shape, np.float32))
        self.buf_dw = context.buffer_like(np.zeros(shape, np.float32))
        self.buf_de = context.buffer_like(np.zeros(shape, np.float32))
        program = Program(context, [
            KernelSource("srad1", _srad1_kernel, self._profile_srad1,
                         cl_source=kernels_cl.SRAD_CL),
            KernelSource("srad2", _srad2_kernel, self._profile_srad2,
                         cl_source=kernels_cl.SRAD_CL),
        ]).build()
        self.kernels = program.all_kernels()
        self._setup_done = True

    def transfer_inputs(self, queue) -> list[Event]:
        self._require_setup()
        return [queue.enqueue_write_buffer(self.buf_j, self.image)]

    def _q0sqr(self, j: np.ndarray) -> float:
        """ICOV reference value from the ROI statistics."""
        y1, y2, x1, x2 = self.roi
        roi = j[y1 : y2 + 1, x1 : x2 + 1]
        mean = float(roi.mean())
        var = float(roi.var())
        return var / (mean * mean) if mean else 0.0

    def run_iteration(self, queue) -> list[Event]:
        """``iterations`` diffusion steps of two kernels each."""
        self._require_setup()
        queue.enqueue_write_buffer(self.buf_j, self.image)
        events = []
        n_items = self.rows * self.cols
        for _ in range(self.iterations):
            q0sqr = self._q0sqr(self.buf_j.array)
            k1 = self.kernels["srad1"].set_args(
                self.buf_j, self.buf_c, self.buf_dn, self.buf_ds,
                self.buf_dw, self.buf_de, q0sqr,
            )
            events.append(queue.enqueue_nd_range_kernel(k1, (n_items,)))
            k2 = self.kernels["srad2"].set_args(
                self.buf_j, self.buf_c, self.buf_dn, self.buf_ds,
                self.buf_dw, self.buf_de, self.lam,
            )
            events.append(queue.enqueue_nd_range_kernel(k2, (n_items,)))
        return events

    def collect_results(self, queue) -> list[Event]:
        self._require_setup()
        self.result = np.empty_like(self.image)
        return [queue.enqueue_read_buffer(self.buf_j, self.result)]

    # ------------------------------------------------------------------
    def _reference(self) -> np.ndarray:
        """Float64 reference with an explicitly padded formulation."""
        j = self.image.astype(np.float64)
        for _ in range(self.iterations):
            y1, y2, x1, x2 = self.roi
            roi = j[y1 : y2 + 1, x1 : x2 + 1]
            q0sqr = roi.var() / (roi.mean() ** 2)
            padded = np.pad(j, 1, mode="edge")
            dn = padded[:-2, 1:-1] - j
            ds = padded[2:, 1:-1] - j
            dw = padded[1:-1, :-2] - j
            de = padded[1:-1, 2:] - j
            g2 = (dn**2 + ds**2 + dw**2 + de**2) / j**2
            l = (dn + ds + dw + de) / j
            qsqr = (0.5 * g2 - 0.0625 * l**2) / (1.0 + 0.25 * l) ** 2
            c = 1.0 / (1.0 + (qsqr - q0sqr) / (q0sqr * (1.0 + q0sqr)))
            c = np.clip(c, 0.0, 1.0)
            cp = np.pad(c, 1, mode="edge")
            div = cp[2:, 1:-1] * ds + c * dn + cp[1:-1, 2:] * de + c * dw
            j = j + (self.lam / 4.0) * div
        return j

    def validate(self) -> None:
        if self.result is None:
            raise ValidationError("srad: results were never collected")
        assert_close(self.result, self._reference(), 1e-4,
                     "srad: diffusion result vs float64 reference")

    # ------------------------------------------------------------------
    def _stencil_profile(self, name: str, flops_per_point: float,
                         reads: float, writes: float) -> KernelProfile:
        n = self.rows * self.cols
        return KernelProfile(
            name=name,
            flops=flops_per_point * n,
            int_ops=6.0 * n,
            bytes_read=reads * n * 4.0,
            bytes_written=writes * n * 4.0,
            working_set_bytes=float(self.footprint_bytes()),
            work_items=n,
            seq_fraction=0.85,
            strided_fraction=0.15,          # north/south neighbours
        )

    def _profile_srad1(self, nd, *args) -> KernelProfile:
        return self._stencil_profile("srad1", 32.0, reads=5.0, writes=5.0)

    def _profile_srad2(self, nd, *args) -> KernelProfile:
        return self._stencil_profile("srad2", 10.0, reads=6.0, writes=1.0)

    def profiles(self) -> list[KernelProfile]:
        return [
            self._profile_srad1(None).scaled(self.iterations),
            self._profile_srad2(None).scaled(self.iterations),
        ]

    def trace_spec(self) -> trace_mod.TraceSpec:
        """Streaming over the planes with row-stride neighbour touches."""
        plane = self.rows * self.cols * 4
        return trace_mod.TraceSpec.single(
            trace_mod.seq(plane * 6, passes=1, budget=("floordiv", 2)),
            trace_mod.strided_component(plane, self.cols * 4, passes=2,
                                        budget=("floordiv", 2)),
        )
